"""Capacity limits of homogeneous multi-band deployments and the
capacity-delay tradeoff front.

Two spectrum-scaling modes: fixed bandwidth per band (mode I, system
bandwidth grows with the band count) and fixed system bandwidth (mode II,
per-band bandwidth shrinks as 1/N).  The function called fixes the mode.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import geometry
from .equilibrium import Scenario, solve_equilibrium
from .errors import InfeasibleError, UnstableQueueError
from .queueing import mean_delay

_GOLDEN_TOL = 1e-8
_BRACKET_POINTS = 256
_BRACKET_SPAN = (1e-3, 20.0)


@dataclass(frozen=True)
class HomogeneousSetup:
    """N identical bands.  ``band_width`` is the width of each band for
    ``capacity_limit_fixed_band``, ``capacity_limit_derivative`` and
    ``optimal_rate_fixed_band`` (mode I), and the system total split N ways
    for ``capacity_limit_fixed_system`` and ``max_capacity_fixed_system``."""

    n_bands: int
    user_density: float
    bs_density: float
    vacancy: float = 1.0
    band_width: float = 1.0
    thinning: float = geometry.DEFAULT_THINNING

    def __post_init__(self):
        if self.n_bands < 1:
            raise ValueError(f"n_bands must be >= 1, got {self.n_bands}")
        if self.user_density <= 0 or self.bs_density <= 0:
            raise ValueError("densities must be > 0")
        if not 0.0 < self.vacancy <= 1.0:
            raise ValueError(f"vacancy must be in (0,1], got {self.vacancy}")
        if self.band_width <= 0:
            raise ValueError(f"band_width must be > 0, got {self.band_width}")
        if self.thinning <= 0:
            raise ValueError(f"thinning must be > 0, got {self.thinning}")

    @property
    def load_per_band(self):
        return self.user_density / (self.bs_density * self.n_bands)


def capacity_limit_fixed_band(setup: HomogeneousSetup, rate):
    """Largest stable per-user throughput at target rate ``rate``, mode I."""
    return _capacity_limit(setup, rate, 1)


def capacity_limit_fixed_system(setup: HomogeneousSetup, rate):
    """Mode II: total bandwidth fixed, each band gets 1/N of it."""
    return _capacity_limit(setup, rate, setup.n_bands)


def _capacity_limit(setup, rate, sharing):
    """Rate times the probability that some band serves a user at the
    stability boundary, where every user is active and the per-band load is
    the user/BS ratio over N.  ``sharing`` bands split ``band_width`` (1 or
    N), so a band's coverage sees ``sharing`` times the rate."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    p = geometry.coverage_probability(
        geometry.CoverageQuery(rate * sharing, setup.band_width)
    )
    eps_n = geometry.service_probability(
        setup.vacancy, p, setup.load_per_band, setup.thinning
    )
    miss = setup.n_bands * math.log1p(-min(eps_n, 1.0 - 1e-300))
    return rate * (1.0 - math.exp(miss))


def capacity_limit_derivative(setup: HomogeneousSetup, rate):
    """Analytic d/dR of the mode-I capacity limit.

    Derived by chain rule through the coverage probability; the thinning
    constant is kept inside the per-band service factor so the derivative
    is consistent with the limit expression itself.
    """
    w = setup.band_width
    lam_n = setup.load_per_band
    thin = setup.thinning
    chi2 = 2.0 ** (rate / w) - 1.0
    chi = math.sqrt(chi2)
    p = 1.0 / (1.0 + chi * math.atan(chi))
    eps_n = geometry.service_probability(setup.vacancy, p, lam_n, thin)
    f0 = 1.0 - (1.0 - eps_n) ** setup.n_bands
    dp_dchi = -(math.atan(chi) + chi / (1.0 + chi2)) * p * p
    dchi_dr = math.log(2.0) * 2.0 ** (rate / w) / (2.0 * w * chi)
    deps_dp = setup.vacancy * (1.0 + thin * lam_n * p / geometry._A) ** (
        -(geometry._A + 1.0)
    )
    df0_dr = (
        setup.n_bands
        * (1.0 - eps_n) ** (setup.n_bands - 1)
        * deps_dp
        * dp_dchi
        * dchi_dr
    )
    return f0 + rate * df0_dr


@dataclass(frozen=True)
class RateOptimum:
    rate: float
    capacity: float
    method: str  # "derivative-root" or "golden-fallback"


def optimal_rate_fixed_band(setup: HomogeneousSetup) -> RateOptimum:
    """Rate maximizing the mode-I capacity limit, from the derivative root.

    Falls back to direct golden-section maximization if no sign change of
    the derivative is bracketed.
    """
    w = setup.band_width
    grid = np.geomspace(_BRACKET_SPAN[0] * w, _BRACKET_SPAN[1] * w, _BRACKET_POINTS)
    dv = np.array([capacity_limit_derivative(setup, r) for r in grid])
    bracket = None
    for i in range(len(grid) - 1):
        if dv[i] > 0 and dv[i + 1] < 0:
            bracket = (grid[i], grid[i + 1])
            break
    if bracket is not None:
        rate = brentq(
            lambda r: capacity_limit_derivative(setup, r), *bracket,
            xtol=1e-14, rtol=1e-15,
        )
        return RateOptimum(
            rate=rate,
            capacity=capacity_limit_fixed_band(setup, rate),
            method="derivative-root",
        )
    res = minimize_scalar(
        lambda r: -capacity_limit_fixed_band(setup, r),
        bounds=(grid[0], grid[-1]),
        method="bounded",
        options={"xatol": _GOLDEN_TOL * w},
    )
    return RateOptimum(rate=float(res.x), capacity=float(-res.fun),
                       method="golden-fallback")


def max_capacity_fixed_system(setup: HomogeneousSetup):
    """Mode-II maximum capacity: the mode-I maximum divided by N (the
    rate rescaling R -> RN leaves the maximum value unchanged)."""
    opt = optimal_rate_fixed_band(setup)
    return opt.capacity / setup.n_bands


def optimize_fixed_system(user_bs_ratio, n_max=80, vacancy=1.0, band_width=1.0,
                          thinning=geometry.DEFAULT_THINNING):
    """Jointly optimize band count and rate at fixed system bandwidth.

    Returns (best N, best per-band rate, capacity).
    """
    best = None
    for n in range(1, n_max + 1):
        setup = HomogeneousSetup(
            n_bands=n, user_density=user_bs_ratio, bs_density=1.0,
            vacancy=vacancy, band_width=band_width, thinning=thinning,
        )
        opt = optimal_rate_fixed_band(setup)
        cap = opt.capacity / n
        if best is None or cap > best[2]:
            best = (n, opt.rate / n, cap)
    return best


def scaling_approximation(user_bs_ratio):
    """Log-linear approximation of the jointly optimized mode-II capacity."""
    if user_bs_ratio <= 0:
        raise ValueError(f"density ratio must be > 0, got {user_bs_ratio}")
    return 0.6359 - 0.052 * math.log2(user_bs_ratio)


@dataclass(frozen=True)
class DelayOptimum:
    rate: float
    delay: float


def _delay_at_rate(scenario: Scenario, rate):
    try:
        sol = solve_equilibrium(scenario.with_rate(rate))
        return mean_delay(scenario.traffic, scenario.outage, sol.epsilon, rate)
    except (InfeasibleError, UnstableQueueError):
        return math.inf


def min_delay_over_rate(scenario: Scenario, rate_span=(1e-2, 50.0),
                        scan_points=96) -> DelayOptimum:
    """Minimize the mean delay over the target rate.

    The delay is U-shaped in the rate; a log-spaced scan brackets the
    minimum and golden-section search polishes it.
    """
    w_min = min(b.bandwidth for b in scenario.bands)
    grid = np.geomspace(rate_span[0] * w_min, rate_span[1] * w_min, scan_points)
    delays = np.array([_delay_at_rate(scenario, r) for r in grid])
    if not np.any(np.isfinite(delays)):
        raise InfeasibleError("no feasible rate in the search span")
    k = int(np.nanargmin(delays))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda r: _delay_at_rate(scenario, r),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": _GOLDEN_TOL * grid[k]},
    )
    if not math.isfinite(res.fun):
        raise InfeasibleError("delay minimization landed on an infeasible rate")
    return DelayOptimum(rate=float(res.x), delay=float(res.fun))
