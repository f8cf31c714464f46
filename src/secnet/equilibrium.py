"""Spatial-temporal service equilibrium across N frequency bands.

The per-band service probability depends on the active-user density, which
depends on the total service probability eps, which depends on the per-band
values again: eps = map(eps), solved for the scalar eps.  ``solve_epsilons``
solves it for an array of target rates at once, on (rates x bands) arrays,
and returns eps, its residual and a status per row as arrays;
``solve_equilibrium`` is its batch of one at the scenario's own rate, with
the per-band ``BandEquilibrium`` columns, or the ``InfeasibleError`` that
names why the row has no root.  The fixed point's step calls ``geometry``'s
unchecked access kernel.

The root is unique.  In the activity p = rho_s / eps the map is g(p) / p with
g(p) = p (1 - prod_n(1 - f_n(p))), f_n(p) = vacancy_n coverage_n access(a_n p)
and a_n the contention at p = 1.  f_n falls with p while q_n = p f_n rises
strictly (f_n = 0 for a band that does not cover), so by induction on
g_N = q_N + (1 - f_N) g_{N-1}, g_N' = q_N' + (1 - f_N) g_{N-1}' - f_N' g_{N-1}
> 0 and g rises strictly from g(0) = 0.  Hence h(eps) = eps - map(eps)
= eps (rho_s - g(rho_s / eps)) / rho_s is negative below one root and
positive above it; the root exists exactly when C <= R g(1), the capacity
limit, and lies in the searched (rho_s + 1e-9, 1] exactly when
h(rho_s + 1e-9) <= 0.  That search is for C > 0: at C = 0 no user contends,
the map does not depend on eps, and the root is its value in closed form,
eps = 1 - prod_n(1 - vacancy_n coverage_n), however small.
"""

from dataclasses import dataclass
from typing import NamedTuple

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


def _epsilon_map(nvc, ck, eps):
    """The map eps -> 1 - prod_n(1 - eps_n(eps)) for one trial ``eps`` per row
    of the (rates x bands) arrays nvc = -vacancy x coverage and ck =
    contention x eps, which do not depend on eps: eps_n = vc x access is
    ``geometry.service_probability`` with these hoisted, and -vc is formed
    once per solve.  Returns the mapped values and the access probabilities;
    the product is taken in log space for tiny factors."""
    access = geometry._access(ck / eps[:, None])
    return -np.expm1(np.add.reduce(np.log1p(nvc * access), axis=1)), access


def solve_equilibrium(scenario: Scenario) -> EquilibriumSolution:
    """Solve eps = 1 - prod(1 - eps_n(eps)) on (C/R, 1] by damped Picard
    iteration, or by bisection from a pre-scan where Picard stalls, and at
    C = 0 in closed form; a demand past the capacity limit raises
    ``InfeasibleError``.  This is ``solve_epsilons`` for one rate."""
    rate = float(scenario.target_rate)
    sol, (rho_s, coverage, vc, share, k) = _solve(scenario, [rate], None)
    status, residual = sol.status[0], float(sol.residual[0])
    if status == UNCOVERED:
        raise InfeasibleError(f"no band covers a user at target rate {rate:g}")
    if status == OVERLOADED:  # the limit R g(1): contention at full activity, p = 1
        bs_density = np.array([b.bs_density for b in scenario.bands])
        full = (scenario.thinning * scenario.user_density / bs_density) * coverage * share
        limit = rate * _epsilon_map(-vc, full, np.ones(1))[0][0]
        raise InfeasibleError(
            f"no service equilibrium above eps = {rho_s[0] + 1e-9:g} at R = "
            f"{rate:g}: demand C = {scenario.traffic.capacity:g}, capacity limit "
            f"R*g(1) = {limit:g}")
    if status == STALLED:
        raise InfeasibleError(f"equilibrium solver stalled with residual {residual:.3e}")
    eps = sol.epsilon
    access = _epsilon_map(-vc, scenario.thinning * coverage * k, eps)[1]
    columns = (c[0].tolist() for c in (vc * access, coverage, access, k / eps[:, None]))
    return EquilibriumSolution(
        epsilon=float(eps[0]), bands=tuple(map(BandEquilibrium, *columns)),
        rho_o=1.0 - float(eps[0]), rho_s=float(rho_s[0]),
        p_active=float(rho_s[0] / eps[0]), residual=residual,
        iterations=int(sol.iterations[0]),
        method="bisection" if sol.bisected[0] else "picard")


# Row status of ``solve_epsilons``: solved, no band covers a user, a demand
# past the capacity limit, and a solve that stalled short of the residual bound
SOLVED, UNCOVERED, OVERLOADED, STALLED = range(4)


class Epsilons(NamedTuple):
    """``solve_epsilons``' arrays, one row per rate: eps (NaN where the status
    is not ``SOLVED``), its residual |eps - map(eps)|, the status, the solver
    steps and whether bisection took over from Picard."""

    epsilon: np.ndarray
    residual: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    bisected: np.ndarray


def solve_epsilons(scenario: Scenario, rates, demands=None) -> Epsilons:
    """The equilibrium eps at each target rate of the array ``rates``, at its
    demand C in ``demands`` if given, as arrays, with no per-row objects.
    Rows step in lockstep, so none depends on the others."""
    return _solve(scenario, rates, demands)[0]


def _solve(scenario, rates, demands):
    """``solve_epsilons``, and what ``solve_equilibrium`` builds its row from:
    rho_s, and the (rates x bands) coverage, vacancy x coverage, each band's
    share of it and load x eps."""
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or not np.all(rates > 0):
        raise ValueError(f"rates must be a 1-D array of values > 0, got {rates}")
    demands = np.broadcast_to(
        scenario.traffic.capacity if demands is None else demands, rates.shape)
    if not np.all(demands >= 0):
        raise ValueError(f"demands must be >= 0, got {demands}")
    rho_s = demands / rates
    lo = rho_s + 1e-9
    width, vacancy, bs_density = np.array(
        [(b.bandwidth, b.vacancy, b.bs_density) for b in scenario.bands]).T
    coverage = geometry.coverage_probability(rates[:, None], width)
    vc = vacancy * coverage
    total = vc.sum(axis=1)  # 0 where no band covers a user
    share = vc / np.where(total > 0.0, total, 1.0)[:, None]
    k = (scenario.user_density / bs_density) * rho_s[:, None] * share  # load x eps
    nvc, ck = -vc, scenario.thinning * coverage * k

    def h(rows, eps):
        return eps - _epsilon_map(nvc[rows], ck[rows], eps)[0]

    status = np.where(total > 0.0, SOLVED, UNCOVERED)
    rows = np.flatnonzero(total > 0.0)
    eps = 0.5 * (lo + 1.0)
    # at C = 0 nobody contends, so the map does not depend on eps: it is the root
    free = rows[rho_s[rows] == 0.0]
    if free.size:
        eps[free] = _epsilon_map(nvc[free], ck[free], eps[free])[0]
        rows = rows[rho_s[rows] > 0.0]
    # (lo, 1] holds the root exactly when h(lo) <= 0; a NaN h(lo) decides
    # nothing, and its row ends at the residual guard
    over = h(rows, lo[rows]) > 0.0
    status[rows[over]] = OVERLOADED
    rows = rows[~over]

    # damped Picard on the rows still iterating: a row stops when its step leaves
    # (lo, 1], and converges on a step below 1e-14 and a residual below tolerance
    iterations = np.zeros(len(rates), dtype=int)
    stalled = np.zeros(len(rates), dtype=bool)
    terms, e, low = (nvc[rows], ck[rows]), eps[rows], lo[rows]
    for step in range(1, 201):
        if not rows.size:
            break
        nxt = 0.5 * (e + _epsilon_map(*terms, e)[0])
        # nxt <= 1 holds, as e <= 1 and the map lies in [0, 1]: a step leaves
        # (lo, 1] exactly where nxt <= lo or is NaN
        inside = low < nxt
        small = np.abs(nxt - e) < 1e-14
        if np.count_nonzero(small) or np.count_nonzero(inside) < len(inside):
            out = ~inside
            done = small & inside
            done[done] = np.abs(h(rows[done], nxt[done])) < _RESIDUAL_TOL
            keep = ~(out | done)
            iterations[rows[~keep]] = step
            eps[rows[done]] = nxt[done]
            stalled[rows[out]] = True
            rows, nxt, low = rows[keep], nxt[keep], low[keep]
            terms = tuple(t[keep] for t in terms)
        e = nxt
    iterations[rows] = 200
    stalled[rows] = True
    if stalled.any():
        _bisect(np.flatnonzero(stalled), lo, h, eps, iterations)

    ok = np.flatnonzero(status == SOLVED)
    residual = np.full(len(rates), np.nan)
    residual[ok] = np.abs(eps[ok] - _epsilon_map(nvc[ok], ck[ok], eps[ok])[0])
    # written so that a NaN residual fails
    status[ok[~(residual[ok] <= _RESIDUAL_TOL)]] = STALLED
    eps[status != SOLVED] = np.nan
    return Epsilons(eps, residual, status, iterations, stalled), (
        rho_s, coverage, vc, share, k)


def _bisect(rows, lo, h, eps, iterations):
    """Bisection for the ``rows`` Picard left, in lockstep, from the last
    pre-scan point of (lo, 1] where h is not positive: h rises through the
    root, so that point and the next bracket it.  Writes ``eps``, ``iterations``."""
    grid = np.linspace(lo[rows], 1.0, _PRESCAN_POINTS, axis=1)
    hv = h(np.repeat(rows, _PRESCAN_POINTS), grid.ravel()).reshape(grid.shape)
    last = np.minimum(np.count_nonzero(~(hv > 0), axis=1), _PRESCAN_POINTS - 1) - 1
    a, b = (grid[np.arange(len(rows)), last + j] for j in (0, 1))
    mid, run = a, np.ones(len(rows), dtype=bool)
    for _ in range(200):  # a stopped row keeps its a, b and mid
        mid = np.where(run, 0.5 * (a + b), mid)
        hm = h(rows, mid)
        iterations[rows] += run
        run &= ~((np.abs(hm) < _RESIDUAL_TOL) | (b - a < 1e-15))
        left = run & (hm < 0)
        a = np.where(left, mid, a)
        b = np.where(run & ~left, mid, b)
        if not run.any():
            break
    eps[rows] = mid
