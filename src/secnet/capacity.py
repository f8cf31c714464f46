"""Capacity limits of homogeneous multi-band deployments, and the
capacity-delay tradeoff front of any band set, for all of a sweep's demands.

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
from scipy.optimize import brentq
from scipy.optimize.elementwise import find_minimum

from . import geometry
# unused solve_equilibrium: perfbench's tracer test checks cli binds this one
from .equilibrium import Scenario, solve_equilibria, solve_equilibrium  # noqa: F401
from .errors import ConvergenceError, InfeasibleError
from .queueing import mean_delay

_LOG_RATE_TOL = 1e-8  # the delay polish's tolerance in log R: 1e-8 relative in R
_BRACKET_POINTS = 256
# Edges of the derivative scan's spans, in band widths: the first span, then
# doublings up to R/W = 1000, past which 2^(R/W) nears float64 overflow.
_SCAN_EDGES = (1e-3, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1000.0)
# The delay optimizer's scan span, in widths of the narrowest band, its points,
# and the traffics whose scans one batched solve takes, which bounds memory.
_DELAY_SPAN = (1e-2, 50.0)
_DELAY_POINTS = 96
_SCAN_BATCH = 16


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


def _mean_delays(scenario: Scenario, rates, traffics):
    """Mean delay at each row's rate and traffic, inf where no equilibrium
    exists (one that does has eps > C/R, a stable queue)."""
    size = _SCAN_BATCH * _DELAY_POINTS
    if len(rates) > size:  # a batch at a time, whose solutions go before the next
        return np.concatenate([
            _mean_delays(scenario, rates[i:i + size], traffics[i:i + size])
            for i in range(0, len(rates), size)])
    solutions = solve_equilibria(scenario, rates, [t.capacity for t in traffics])
    return np.array([math.inf if isinstance(s, InfeasibleError)
                     else mean_delay(t, scenario.outage, s.epsilon, r)
                     for r, t, s in zip(rates.tolist(), traffics, solutions)])


def min_delay_over_rate(scenario: Scenario, traffics):
    """Minimize the mean delay over the target rate for each of the list
    ``traffics``, in place of the scenario's own: per traffic a
    ``DelayOptimum``, or the ``InfeasibleError`` of a traffic no rate serves.

    The delay is U-shaped in the rate.  A log-spaced scan of traffics x rates
    brackets each minimum, going on upward in the same steps while a minimum
    is its scan's last point (past R/W = 1024 of the widest band nothing
    covers).  One ``find_minimum`` then polishes all brackets in log R, on
    -1/delay, which is finite where a bracket's end is infeasible; a row at
    its iteration cap raises ``ConvergenceError``.
    """
    n = len(traffics)
    w_min = min(b.bandwidth for b in scenario.bands)
    span = np.geomspace(_DELAY_SPAN[0] * w_min, _DELAY_SPAN[1] * w_min, _DELAY_POINTS)
    steps = span[1:] / span[0]
    grid, delays = np.empty(0), np.empty((n, 0))
    k, up = np.zeros(n, dtype=int), np.arange(n)
    while up.size:  # the first span for every traffic, then one up per step
        more = np.full((n, len(span)), math.inf)
        more[up] = _mean_delays(scenario, np.tile(span, len(up)), [
            traffics[i] for i in up for _ in span]).reshape(len(up), -1)
        grid = np.concatenate((grid, span))
        delays = np.concatenate((delays, more), axis=1)
        k[up] = np.argmin(delays[up], axis=1)
        up = np.flatnonzero(np.isfinite(delays).any(axis=1) & (k == len(grid) - 1))
        span = grid[-1] * steps
    rows = np.flatnonzero(np.isfinite(delays).any(axis=1))
    k = np.maximum(k[rows], 1)  # a minimum on the first point has no valid bracket
    res = find_minimum(
        lambda x, i: -1.0 / _mean_delays(scenario, np.exp(x), [traffics[j] for j in i]),
        tuple(np.log(grid[k + j]) for j in (-1, 0, 1)), args=(rows,),
        tolerances={"xatol": _LOG_RATE_TOL, "xrtol": 0.0},
    )
    if np.any(res.status == -2):
        raise ConvergenceError("delay minimization reached its iteration cap")
    results = [InfeasibleError("no feasible rate in the search span") for _ in traffics]
    for i, status, rate, f in zip(rows.tolist(), res.status.tolist(),
                                  np.exp(res.x).tolist(), res.f_x.tolist()):
        ok = status == 0 and f < 0.0
        results[i] = DelayOptimum(rate, -1.0 / f) if ok else InfeasibleError(
            "delay minimization landed on an infeasible rate")
    return results
