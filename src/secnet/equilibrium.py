"""Spatial-temporal service equilibrium across N frequency bands.

The per-band service probability depends on the active-user density,
which depends on the total service probability, which depends on the
per-band values again.  The fixed point is solved for the single scalar
epsilon; everything per-band follows.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import InfeasibleError
from .queueing import OutageModel, TrafficModel

_RESIDUAL_TOL = 1e-10
_PRESCAN_POINTS = 64


@dataclass(frozen=True)
class BandConfig:
    """Radio parameters of one frequency band."""

    bandwidth: float
    vacancy: float
    bs_density: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not 0.0 < self.vacancy <= 1.0:
            raise ValueError(f"vacancy must be in (0,1], got {self.vacancy}")
        if self.bs_density <= 0:
            raise ValueError(f"bs_density must be > 0, got {self.bs_density}")


@dataclass(frozen=True)
class Scenario:
    """A full network instance."""

    user_density: float
    bands: tuple
    target_rate: float
    traffic: TrafficModel
    outage: OutageModel
    thinning: float = geometry.DEFAULT_THINNING

    def __post_init__(self):
        object.__setattr__(self, "bands", tuple(self.bands))
        if self.user_density <= 0:
            raise ValueError(f"user_density must be > 0, got {self.user_density}")
        if not self.bands:
            raise ValueError("at least one band is required")
        if self.target_rate <= 0:
            raise ValueError(f"target_rate must be > 0, got {self.target_rate}")
        if self.thinning <= 0:
            raise ValueError(f"thinning must be > 0, got {self.thinning}")

    @property
    def rho_s(self):
        return self.traffic.capacity / self.target_rate

    def with_rate(self, rate):
        return replace(self, target_rate=rate)

    def coverage_probabilities(self):
        return np.array(
            [
                geometry.coverage_probability(
                    geometry.CoverageQuery(self.target_rate, b.bandwidth)
                )
                for b in self.bands
            ]
        )


@dataclass(frozen=True)
class BandEquilibrium:
    service: float       # probability the band serves the typical user
    coverage: float
    access: float
    load: float          # active-user density / BS density in this band


@dataclass(frozen=True)
class EquilibriumSolution:
    epsilon: float
    bands: tuple
    rho_o: float
    rho_s: float
    p_active: float
    residual: float
    iterations: int
    method: str
    multiple_roots: bool = False


def _band_loads(scenario: Scenario, coverages, eps_trial):
    """Normalized active-user load per band at trial service probability."""
    vac = np.array([b.vacancy for b in scenario.bands])
    bs = np.array([b.bs_density for b in scenario.bands])
    weights = vac * coverages
    share = weights / weights.sum()
    return (scenario.user_density / bs) * (scenario.rho_s / eps_trial) * share


def _epsilon_map(scenario, coverages, eps):
    """1 - prod(1 - eps_n(eps)); evaluated in log space for tiny factors."""
    loads = _band_loads(scenario, coverages, eps)
    eps_n = np.array(
        [
            geometry.service_probability(b.vacancy, c, load, scenario.thinning)
            for b, c, load in zip(scenario.bands, coverages, loads)
        ]
    )
    log_miss = np.sum(np.log1p(-np.minimum(eps_n, 1.0 - 1e-300)))
    return 1.0 - math.exp(log_miss), eps_n, loads


def solve_equilibrium(scenario: Scenario) -> EquilibriumSolution:
    """Solve eps = 1 - prod(1 - eps_n(eps)) on (C/R, 1].

    Damped Picard iteration first; if it stalls, bisection on the residual
    h(eps) = eps - map(eps) over a sign-change bracket found by pre-scan.
    If the pre-scan finds several sign changes, the largest root is
    returned and flagged.
    """
    rho_s = scenario.rho_s
    if rho_s >= 1.0:
        raise InfeasibleError(f"C/R = {rho_s} >= 1: no stable rate exists")
    coverages = scenario.coverage_probabilities()
    lo = rho_s + 1e-9 if rho_s > 0 else 1e-12
    if lo >= 1.0:
        raise InfeasibleError(f"search interval ({lo}, 1] is empty")

    def h(eps):
        return eps - _epsilon_map(scenario, coverages, eps)[0]

    iterations = 0

    # damped Picard
    eps = max(min(1.0, 0.5 * (lo + 1.0)), lo)
    method = "picard"
    converged = False
    for _ in range(200):
        iterations += 1
        mapped, _, _ = _epsilon_map(scenario, coverages, eps)
        nxt = 0.5 * eps + 0.5 * mapped
        if not lo < nxt <= 1.0:
            break
        if abs(nxt - eps) < 1e-14 and abs(h(nxt)) < _RESIDUAL_TOL:
            eps = nxt
            converged = True
            break
        eps = nxt
    if converged:
        multiple = False
    else:
        # pre-scan for sign changes, bisect the right-most bracket
        grid = np.linspace(lo, 1.0, _PRESCAN_POINTS)
        hv = np.array([h(g) for g in grid])
        signs = np.sign(hv)
        changes = [
            i for i in range(len(grid) - 1)
            if signs[i] != signs[i + 1] or hv[i] == 0.0
        ]
        if not changes:
            if np.all(hv > 0):
                raise InfeasibleError(
                    "no service equilibrium: offered load exceeds the capacity "
                    f"limit (h({lo:g})={hv[0]:.3e}, h(1)={hv[-1]:.3e})"
                )
            raise InfeasibleError(
                f"equilibrium bracket not found: h({lo:g})={hv[0]:.3e}, "
                f"h(1)={hv[-1]:.3e}"
            )
        multiple = len(changes) > 1
        a, b = grid[changes[-1]], grid[changes[-1] + 1]
        ha = h(a)
        for _ in range(200):
            iterations += 1
            mid = 0.5 * (a + b)
            hm = h(mid)
            if abs(hm) < _RESIDUAL_TOL or (b - a) < 1e-15:
                break
            if (hm < 0) == (ha < 0):
                a, ha = mid, hm
            else:
                b = mid
        eps = mid
        method = "bisection"

    mapped, eps_n, loads = _epsilon_map(scenario, coverages, eps)
    residual = abs(eps - mapped)
    if residual > _RESIDUAL_TOL:
        raise InfeasibleError(
            f"equilibrium solver stalled with residual {residual:.3e}"
        )
    bands = tuple(
        BandEquilibrium(
            service=float(service),
            coverage=float(coverage),
            access=float(service / (band.vacancy * coverage)),
            load=float(load),
        )
        for service, coverage, load, band in zip(
            eps_n, coverages, loads, scenario.bands
        )
    )
    return EquilibriumSolution(
        epsilon=float(eps),
        bands=bands,
        rho_o=1.0 - float(eps),
        rho_s=float(rho_s),
        p_active=float(rho_s / eps),
        residual=float(residual),
        iterations=iterations,
        method=method,
        multiple_roots=multiple,
    )
