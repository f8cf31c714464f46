"""Capacity limits of homogeneous multi-band deployments and the
capacity-delay tradeoff front.

The limit laws are mode I: they take the equilibrium's ``Scenario`` with N
bands that must all be equal, each of width W, and read only its bands,
user density and thinning (unequal bands raise ``ValueError``).  Mode II, a
system bandwidth W split into N bands of W/N, is mode I rescaled: coverage
depends on the rate per unit width, so its limit at per-band rate R is the
mode-I limit at R*N over N, and its maximum is the mode-I maximum over N.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import geometry
from .equilibrium import Scenario, solve_equilibria, solve_equilibrium
from .errors import InfeasibleError, UnstableQueueError
from .queueing import mean_delay

_GOLDEN_TOL = 1e-8
_BRACKET_POINTS = 256
# Edges of the derivative scan's spans, in band widths: the first span, then
# doublings up to R/W = 1000, past which 2^(R/W) nears float64 overflow.
_SCAN_EDGES = (1e-3, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1000.0)
# The delay optimizer's scan span, in widths of the narrowest band, and points.
_DELAY_SPAN = (1e-2, 50.0)
_DELAY_POINTS = 96


def _identical_bands(scenario: Scenario):
    """The band of ``scenario`` and N, its number of bands, which must all be
    equal: the mode-I laws model N copies of one band."""
    band, n = scenario.bands[0], len(scenario.bands)
    if scenario.bands.count(band) != n:
        raise ValueError("the capacity laws need N identical bands")
    return band, n


def capacity_limit_fixed_band(scenario: Scenario, rate):
    """Largest stable per-user throughput at target rate ``rate``: the rate
    times the probability that some band serves a user at the stability
    boundary (every user active, a per-band load of the user/BS ratio / N)."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    band, n = _identical_bands(scenario)
    p = geometry.coverage_probability(rate, band.bandwidth)
    eps_n = geometry.service_probability(
        band.vacancy, p, scenario.user_density / (band.bs_density * n),
        scenario.thinning,
    )
    if eps_n == 1.0:  # every band always serves
        return rate
    return rate * -math.expm1(n * math.log1p(-eps_n))


def capacity_limit_derivative(scenario: Scenario, rate):
    """Analytic d/dR of the mode-I capacity limit; accepts a scalar or an
    array of rates.

    Derived by chain rule through the coverage probability; the thinning
    constant is kept inside the per-band service factor so the derivative
    is consistent with the limit expression itself.
    """
    band, n = _identical_bands(scenario)
    w = band.bandwidth
    lam_n = scenario.user_density / (band.bs_density * n)
    thin = scenario.thinning
    two = np.power(2.0, rate / w)
    chi2 = two - 1.0
    chi = np.sqrt(chi2)
    p = geometry.sinr_ccdf_lim(chi2)
    eps_n = geometry.service_probability(band.vacancy, p, lam_n, thin)
    f0 = -np.expm1(n * np.log1p(-eps_n))
    dp_dchi = -(np.arctan(chi) + chi / (1.0 + chi2)) * p * p
    dchi_dr = math.log(2.0) * two / (2.0 * w * chi)
    deps_dp = band.vacancy * np.power(
        1.0 + thin * lam_n * p / geometry._A, -(geometry._A + 1.0)
    )
    df0_dr = n * np.power(1.0 - eps_n, n - 1) * deps_dp * dp_dchi * dchi_dr
    out = f0 + rate * df0_dr
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class RateOptimum:
    rate: float
    capacity: float


def optimal_rate_fixed_band(scenario: Scenario) -> RateOptimum:
    """Rate maximizing the mode-I capacity limit: the derivative's root at
    its first + -> - sign change, scanned span by span (``_SCAN_EDGES``)."""
    w = _identical_bands(scenario)[0].bandwidth
    for lo, hi in zip(_SCAN_EDGES, _SCAN_EDGES[1:]):
        grid = np.geomspace(lo * w, hi * w, _BRACKET_POINTS)
        dv = capacity_limit_derivative(scenario, grid)
        turns = np.flatnonzero((dv[:-1] > 0) & (dv[1:] < 0))
        if turns.size:
            i = turns[0]
            rate = brentq(
                lambda r: capacity_limit_derivative(scenario, r),
                grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15,
            )
            return RateOptimum(rate, capacity_limit_fixed_band(scenario, rate))
    raise InfeasibleError(f"no capacity optimum below rate {hi:g} x band width")


def optimize_fixed_system(scenario: Scenario):
    """Jointly optimize band count and rate at the fixed system bandwidth, the
    width of the scenario's band, which the N found splits; returns (best N,
    best per-band rate, capacity).  The scenario's own band count is ignored.

    C(N), the mode-II maximum, must rise and then fall in N: N doubles while
    C(N+1) > C(N), then bisection finds the first N where it does not.  An
    ``InfeasibleError`` of ``optimal_rate_fixed_band`` propagates.
    """
    band = _identical_bands(scenario)[0]

    @cache
    def best(n):
        opt = optimal_rate_fixed_band(replace(scenario, bands=(band,) * n))
        return opt.rate / n, opt.capacity / n

    def grows(n):
        return best(n + 1)[1] > best(n)[1]

    lo, hi = 0, 1  # C grows at lo (if lo >= 1) and not at hi
    while grows(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if grows(mid) else (lo, mid)
    return (hi, *best(hi))


def scaling_approximation(user_bs_ratio):
    """Log-linear approximation of the jointly optimized mode-II capacity."""
    if user_bs_ratio <= 0:
        raise ValueError(f"density ratio must be > 0, got {user_bs_ratio}")
    return 0.6359 - 0.052 * math.log2(user_bs_ratio)


@dataclass(frozen=True)
class DelayOptimum:
    rate: float
    delay: float


def _delay_at_rate(scenario: Scenario, rate, solution=None):
    """Mean delay at ``rate`` (inf if infeasible), from ``solution`` if given."""
    if isinstance(solution, InfeasibleError):
        return math.inf
    try:
        if solution is None:
            solution = solve_equilibrium(scenario.with_rate(rate))
        return mean_delay(scenario.traffic, scenario.outage, solution.epsilon, rate)
    except (InfeasibleError, UnstableQueueError):
        return math.inf


def _scan_delays(scenario: Scenario, rates):
    """Mean delay at each of ``rates`` (inf where infeasible), one batched solve."""
    solutions = solve_equilibria(scenario, rates)
    return np.array([_delay_at_rate(scenario, r, s)
                     for r, s in zip(rates.tolist(), solutions)])


def min_delay_over_rate(scenario: Scenario) -> DelayOptimum:
    """Minimize the mean delay over the target rate.

    The delay is U-shaped in the rate; a log-spaced scan (one batched
    solve) brackets the minimum and golden-section search polishes it.
    While the scan's minimum is its last point, the scan goes on upward in
    the same steps, a span per batched solve; past R/W = 1024 of the widest
    band nothing covers and the delay is infinite, so that ends.
    """
    w_min = min(b.bandwidth for b in scenario.bands)
    grid = np.geomspace(_DELAY_SPAN[0] * w_min, _DELAY_SPAN[1] * w_min, _DELAY_POINTS)
    delays = _scan_delays(scenario, grid)
    if not np.any(np.isfinite(delays)):
        raise InfeasibleError("no feasible rate in the search span")
    steps = grid[1:] / grid[0]
    k = int(np.nanargmin(delays))
    while k == len(grid) - 1:
        upper = grid[-1] * steps
        grid = np.concatenate((grid, upper))
        delays = np.concatenate((delays, _scan_delays(scenario, upper)))
        k = int(np.nanargmin(delays))
    res = minimize_scalar(
        lambda r: _delay_at_rate(scenario, r),
        bounds=(grid[max(k - 1, 0)], grid[k + 1]),
        method="bounded",
        options={"xatol": _GOLDEN_TOL * grid[k]},
    )
    if not math.isfinite(res.fun):
        raise InfeasibleError("delay minimization landed on an infeasible rate")
    return DelayOptimum(rate=float(res.x), delay=float(res.fun))
