"""Spatial-temporal service equilibrium across N frequency bands.

The per-band service probability depends on the active-user density,
which depends on the total service probability, which depends on the
per-band values again.  The fixed point is solved for the single scalar
epsilon; everything per-band follows.  ``solve_equilibria`` solves it for
an array of target rates at once, on (rates x bands) arrays.
"""

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

    def with_rate(self, rate):
        return replace(self, target_rate=rate)


@dataclass(frozen=True, slots=True)
class BandEquilibrium:
    service: float       # probability the band serves the typical user
    coverage: float
    access: float
    load: float          # active-user density / BS density in this band


@dataclass(frozen=True, slots=True)
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


def _epsilon_map(vc, ck, eps):
    """The map eps -> 1 - prod_n(1 - eps_n(eps)) for one trial ``eps`` per row
    of the (rates x bands) arrays vc = vacancy x coverage and ck = contention
    x eps, which do not depend on eps: eps_n is ``geometry.service_probability``
    with these hoisted.  Returns the mapped values and the eps_n; the product
    is taken in log space for tiny factors."""
    eps_n = vc * geometry.access_probability(ck / eps[:, None])
    return 1.0 - np.exp(np.add.reduce(np.log1p(-eps_n), axis=1)), eps_n


def solve_equilibrium(scenario: Scenario) -> EquilibriumSolution:
    """Solve eps = 1 - prod(1 - eps_n(eps)) on (C/R, 1].

    Damped Picard iteration first; if it stalls, bisection on the residual
    h(eps) = eps - map(eps) over a sign-change bracket found by pre-scan.
    If the pre-scan finds several sign changes, the largest root is
    returned and flagged.  This is ``solve_equilibria`` for one rate.
    """
    results = solve_equilibria(scenario, [scenario.target_rate])
    if isinstance(results[0], InfeasibleError):
        # popped, so no local holds the error whose traceback holds this frame
        raise results.pop()
    return results[0]


def solve_equilibria(scenario: Scenario, rates):
    """``solve_equilibrium`` at each target rate of the array ``rates``: a list
    with, per rate, the ``EquilibriumSolution`` of ``scenario.with_rate(rate)``
    or the ``InfeasibleError`` its solve raises.  The rates take the steps of
    single solves in lockstep, so no result depends on the other rates."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not np.all(rates > 0):
        raise ValueError(f"rates must be a 1-D array of values > 0, got {rates}")
    rho_s = scenario.traffic.capacity / rates
    lo = np.where(rho_s > 0, rho_s + 1e-9, 1e-12)
    width, vacancy, bs_density = np.array(
        [(b.bandwidth, b.vacancy, b.bs_density) for b in scenario.bands]).T
    coverage = geometry.coverage_probability(rates[:, None], width)
    vc = vacancy * coverage
    total = vc.sum(axis=1, keepdims=True)  # 0 where no band covers a user
    share = vc / np.where(total > 0.0, total, 1.0)
    results = [  # per rate: None while solving, then the solution or error
        InfeasibleError(f"C/R = {r} >= 1: no stable rate exists") if r >= 1.0
        else InfeasibleError(f"search interval ({low}, 1] is empty") if low >= 1.0
        else InfeasibleError(f"no band covers a user at target rate {rate:g}")
        if not covered else None
        for r, low, rate, covered in zip(rho_s.tolist(), lo.tolist(),
                                         rates.tolist(), total[:, 0].tolist())
    ]
    k = (scenario.user_density / bs_density) * rho_s[:, None] * share  # load x eps
    ck = scenario.thinning * coverage * k

    def h(rows, eps):
        return eps - _epsilon_map(vc[rows], ck[rows], eps)[0]

    # damped Picard on the rows still iterating: a row stops when its step leaves
    # (lo, 1], and converges on a step below 1e-14 and a residual below tolerance
    iterations = np.zeros(len(rates), dtype=int)
    eps = np.maximum(np.minimum(1.0, 0.5 * (lo + 1.0)), lo)
    rows = np.flatnonzero([r is None for r in results])
    terms, e, low = (vc[rows], ck[rows]), eps[rows], lo[rows]
    stalled = []
    for step in range(1, 201):
        if not rows.size:
            break
        nxt = 0.5 * (e + _epsilon_map(*terms, e)[0])
        out = ~((low < nxt) & (nxt <= 1.0))
        small = np.abs(nxt - e) < 1e-14
        if (out | small).any():
            done = small & ~out
            done[done] = np.abs(h(rows[done], nxt[done])) < _RESIDUAL_TOL
            keep = ~(out | done)
            iterations[rows[~keep]] = step
            eps[rows[done]] = nxt[done]
            stalled += rows[out].tolist()
            rows, nxt, low = rows[keep], nxt[keep], low[keep]
            terms = tuple(t[keep] for t in terms)
        e = nxt
    iterations[rows] = 200
    stalled += rows.tolist()
    multiple = np.zeros(len(rates), dtype=bool)
    if stalled:
        _bisect(np.array(stalled), lo, h, eps, iterations, multiple, results)

    ok = np.flatnonzero([r is None for r in results])
    mapped, eps_n = _epsilon_map(vc[ok], ck[ok], eps[ok])
    residual = np.abs(eps[ok] - mapped)
    band_columns = zip(eps_n.tolist(), coverage[ok].tolist(),
                       (eps_n / vc[ok]).tolist(), (k[ok] / eps[ok, None]).tolist())
    for i, res, columns in zip(ok.tolist(), residual.tolist(), band_columns):
        if not res <= _RESIDUAL_TOL:  # written so that a NaN residual fails
            results[i] = InfeasibleError(
                f"equilibrium solver stalled with residual {res:.3e}")
            continue
        results[i] = EquilibriumSolution(
            epsilon=float(eps[i]),
            bands=tuple(map(BandEquilibrium, *columns)),
            rho_o=1.0 - float(eps[i]),
            rho_s=float(rho_s[i]),
            p_active=float(rho_s[i] / eps[i]),
            residual=res,
            iterations=int(iterations[i]),
            method="bisection" if i in stalled else "picard",
            multiple_roots=bool(multiple[i]),
        )
    return results


def _bisect(rows, lo, h, eps, iterations, multiple, results):
    """Bisection for the ``rows`` Picard left, in lockstep: pre-scan each row's
    (lo, 1] for sign changes of h and bisect the right-most bracket.  Writes the
    root, steps and several-roots flag into ``eps``, ``iterations``, ``multiple``,
    or the row's error into ``results``."""
    grid = np.linspace(lo[rows], 1.0, _PRESCAN_POINTS, axis=1)
    hv = h(np.repeat(rows, _PRESCAN_POINTS), grid.ravel()).reshape(grid.shape)
    signs = np.sign(hv)
    change = (signs[:, :-1] != signs[:, 1:]) | (hv[:, :-1] == 0.0)
    found = change.any(axis=1)
    for i in np.flatnonzero(~found):
        ends = f"h({lo[rows[i]]:g})={hv[i, 0]:.3e}, h(1)={hv[i, -1]:.3e}"
        results[rows[i]] = InfeasibleError(
            f"no service equilibrium: offered load exceeds the capacity limit ({ends})"
            if np.all(hv[i] > 0) else f"equilibrium bracket not found: {ends}"
        )
    rows, grid, hv, change = rows[found], grid[found], hv[found], change[found]
    multiple[rows] = change.sum(axis=1) > 1
    last = change.shape[1] - 1 - np.argmax(change[:, ::-1], axis=1)
    pick = np.arange(len(rows))
    a, b, ha = grid[pick, last], grid[pick, last + 1], hv[pick, last]
    mid, run = a, np.ones(len(rows), dtype=bool)
    for _ in range(200):  # a stopped row keeps its a, b and mid
        mid = np.where(run, 0.5 * (a + b), mid)
        hm = h(rows, mid)
        iterations[rows] += run
        run &= ~((np.abs(hm) < _RESIDUAL_TOL) | (b - a < 1e-15))
        left = run & ((hm < 0) == (ha < 0))
        a, ha = np.where(left, mid, a), np.where(left, hm, ha)
        b = np.where(run & ~left, mid, b)
        if not run.any():
            break
    eps[rows] = mid
