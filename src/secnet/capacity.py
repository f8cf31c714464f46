"""Capacity limits of homogeneous multi-band deployments, and the
capacity-delay tradeoff front of any band set, for all of a sweep's demands.

The limit laws are mode I: they take the equilibrium's ``Scenario`` with N
bands that must all be equal, each of width W, and read only its bands,
user density and thinning (unequal bands raise ``ValueError``).  Mode II, a
system bandwidth W split into N bands of W/N, is mode I rescaled: coverage
depends on the rate per unit width, so its limit at per-band rate R is the
mode-I limit at R*N over N, and its maximum is the mode-I maximum over N.

The optimal rate of a batch of rows (one band, a user/BS ratio and N per
row) is one array scan of the limit's derivative over [1e-3, 1000] W and
one lockstep regula falsi with the Illinois rule (``_polish``) on every
bracket, which gives each row the bits it gets alone.  The delay optimizer
solves the equilibrium and the mean delay of all its rows, one session
interarrival mean each, as arrays (``equilibrium.solve_epsilons``,
``queueing.mean_delays``).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize.elementwise import find_minimum

from . import geometry
# unused solve_equilibrium: perfbench's tracer test checks cli binds this one
from .equilibrium import SOLVED, Scenario, solve_epsilons, solve_equilibrium  # noqa: F401
from .errors import ConvergenceError, InfeasibleError
from .queueing import mean_delays

_LOG_RATE_TOL = 1e-8  # the delay polish's tolerance in log R: 1e-8 relative in R
# The optimal rate's scan span, in band widths, and its points: past R/W = 1000
# 2^(R/W) nears float64 overflow.
_SCAN_SPAN = (1e-3, 1000.0)
_BRACKET_POINTS = 256
# the polish's tolerance, scipy brentq's on the same bracket, and its step cap
_XTOL, _RTOL, _MAX_STEPS = 1e-14, 1e-15, 100
# The delay optimizer's scan span, in widths of the narrowest band, its points,
# and the rows whose scans one batched solve takes, which bounds memory.
_DELAY_SPAN = (1e-2, 50.0)
_DELAY_POINTS = 96
_SCAN_BATCH = 16


def _law(band, thinning, load, n):
    """The band's width and vacancy, the per-band load, N and the thinning
    of each row: five arrays, one entry a row."""
    return np.array(np.broadcast_arrays(
        band.bandwidth, band.vacancy, load, n, thinning), dtype=float).reshape(5, -1)


def _scenario_law(scenario: Scenario, n=None):
    """``_law`` of N copies of the band of a scenario whose bands must all be
    equal (the mode-I laws model N copies of one band), at a per-band load of
    user_density / (bs_density N): one row at the scenario's own N, or a row
    for each N of the array ``n``."""
    band = scenario.bands[0]
    if scenario.bands.count(band) != len(scenario.bands):
        raise ValueError("the capacity laws need N identical bands")
    n = len(scenario.bands) if n is None else n
    return _law(band, scenario.thinning, scenario.user_density / (band.bs_density * n), n)


def _limit_and_slope(rate, width, vacancy, load, n, thinning):
    """The mode-I capacity limit R (1 - (1 - eps_n)^N), with eps_n the
    probability that a band serves a user at the stability boundary, and its
    analytic d/dR, elementwise over arrays that broadcast together.  numpy's
    log1p and expm1 give a row the same bits whatever the batch; where every
    band always serves (eps_n = 1) the limit is R itself.

    The derivative follows the chain rule through the coverage probability;
    the thinning stays inside the per-band service factor, so it is the
    derivative of the limit as computed.  Where 2^(R/W) rounds to 1 (R/W
    below about 1e-16) or overflows (past 1024), the limit is still right and
    the derivative is NaN, so numpy's warnings are off: the limit laws call
    this at any rate, the optimizer only inside the scan span.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        two = np.power(2.0, rate / width)
        chi2 = two - 1.0
        chi = np.sqrt(chi2)
        p = geometry.sinr_ccdf_lim(chi2)
        eps_n = geometry.service_probability(vacancy, p, load, thinning)
        f0 = -np.expm1(n * np.log1p(-eps_n))
        dp_dchi = -(np.arctan(chi) + chi / (1.0 + chi2)) * p * p
        dchi_dr = math.log(2.0) * two / (2.0 * width * chi)
        deps_dp = vacancy * np.power(
            1.0 + thinning * load * p / geometry._A, -(geometry._A + 1.0)
        )
        # (1 - eps_n)^(N - 1) as numpy takes it for one scenario, whose N - 1 is
        # a scalar: it squares for an exponent of 2, where pow may round apart
        vacant = 1.0 - eps_n
        power = np.where(n == 3.0, vacant * vacant, np.power(vacant, n - 1))
        df0_dr = n * power * deps_dp * dp_dchi * dchi_dr
        return rate * f0, f0 + rate * df0_dr


def capacity_limit_fixed_band(scenario: Scenario, rate):
    """Largest stable per-user throughput at target rate ``rate``: the rate
    times the probability that some band serves a user at the stability
    boundary (every user active, a per-band load of the user/BS ratio / N)."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return float(_limit_and_slope(np.array([rate], dtype=float),
                                  *_scenario_law(scenario))[0][0])


def capacity_limit_derivative(scenario: Scenario, rate):
    """Analytic d/dR of the mode-I capacity limit; accepts a scalar or an
    array of rates."""
    out = _limit_and_slope(rate, *_scenario_law(scenario))[1]
    return float(out[0]) if np.ndim(rate) == 0 else out


@dataclass(frozen=True)
class RateOptimum:
    rate: float
    capacity: float


def _polish(slope, a, b, fa, fb):
    """The roots of ``slope(rows, x)`` on the brackets [a, b] of a batch, whose
    ends' values fa and fb differ in sign, all rows in lockstep: regula falsi
    with the Illinois rule (M. Dowell and P. Jarratt, BIT 11, 1971, 168-174).

    Each step moves one end of every live row's bracket to its secant point;
    where the sign did not change, the end that stays has its value halved,
    so the steps do not stall on one side.  A row stops on a value of 0 or a
    bracket shorter than ``_XTOL + _RTOL * |x|``, and one still open after
    ``_MAX_STEPS`` steps raises ``ConvergenceError``.  ``rows`` indexes the
    batch rows whose trial points ``x`` are.
    """
    root = np.empty_like(a)
    live = np.arange(len(a))
    for _ in range(_MAX_STEPS):
        x = b - fb * (b - a) / (fb - fa)
        fx = slope(live, x)
        same = np.signbit(fx) == np.signbit(fb)
        a, fa = np.where(same, a, b), np.where(same, fa / 2, fb)
        b, fb = x, fx
        done = (fx == 0) | (np.abs(b - a) < _XTOL + _RTOL * np.abs(x))
        root[live[done]] = x[done]
        live, a, b, fa, fb = (v[~done] for v in (live, a, b, fa, fb))
        if not live.size:
            return root
    raise ConvergenceError(f"capacity optimum not found in {_MAX_STEPS} steps")


def _optimal_rates(law):
    """The optimal rate of each row of ``_law``'s arrays ``law``: the limit
    derivative's root at its first + -> - sign change on ``_BRACKET_POINTS``
    log-spaced rates over ``_SCAN_SPAN``, one array for every row, then one
    lockstep ``_polish`` of every bracket."""
    grid = np.geomspace(_SCAN_SPAN[0] * law[0], _SCAN_SPAN[1] * law[0],
                        _BRACKET_POINTS, axis=1)
    dv = _limit_and_slope(grid, *law[:, :, None])[1]
    turns = (dv[:, :-1] > 0) & (dv[:, 1:] < 0)
    if not turns.any(axis=1).all():
        raise InfeasibleError(
            f"no capacity optimum below rate {_SCAN_SPAN[1]:g} x band width")
    rows, i = np.arange(len(grid)), turns.argmax(axis=1)
    return _polish(lambda live, x: _limit_and_slope(x, *law[:, live])[1],
                   grid[rows, i], grid[rows, i + 1], dv[rows, i], dv[rows, i + 1])


def optimal_rates_fixed_band(band, thinning, ratios, counts):
    """The optimal rate and the capacity limit there of ``counts[i]`` copies
    of ``band`` at the user/BS ratio ``ratios[i]`` (a per-band load of
    ratios / counts), for every row in one batch: two arrays, each row the
    bits it gets alone.  Raises ``InfeasibleError`` if a row has no optimum."""
    law = _law(band, thinning, np.divide(ratios, counts), counts)
    rates = _optimal_rates(law)
    return rates, _limit_and_slope(rates, *law)[0]


def optimal_rate_fixed_band(scenario: Scenario) -> RateOptimum:
    """Rate maximizing the mode-I capacity limit, and the limit there: a batch
    of one row."""
    rate = float(_optimal_rates(_scenario_law(scenario))[0])
    return RateOptimum(rate, capacity_limit_fixed_band(scenario, rate))


def optimize_fixed_system(scenario: Scenario):
    """Jointly optimize band count and rate at the fixed system bandwidth, the
    width of the scenario's band, which the N found splits; returns (best N,
    best per-band rate, capacity).  The scenario's own band count is ignored.

    C(N), the mode-II maximum, must rise and then fall in N: N doubles while
    C(N+1) > C(N), then bisection finds the first N where it does not.  Each
    step is one two-row batch of the optimal rate, at N and N + 1, so memory
    does not grow with N.  An ``InfeasibleError`` of a row propagates.
    """
    lo, hi = 0, math.inf  # C grows at lo (if lo >= 1) and not at hi
    while hi - lo > 1:  # doubling until C stops growing, then bisection
        n = max(2 * lo, 1) if hi == math.inf else (lo + hi) // 2
        counts = np.array([n, n + 1])
        law = _scenario_law(scenario, counts)
        rates = _optimal_rates(law)
        limits = _limit_and_slope(rates, *law)[0] / counts
        if limits[1] > limits[0]:
            lo = n
        else:
            hi, best = n, (rates[0] / n, limits[0])
    return hi, float(best[0]), float(best[1])


def scaling_approximation(user_bs_ratio):
    """Log-linear approximation of the jointly optimized mode-II capacity."""
    if user_bs_ratio <= 0:
        raise ValueError(f"density ratio must be > 0, got {user_bs_ratio}")
    return 0.6359 - 0.052 * math.log2(user_bs_ratio)


def operating_points(scenario: Scenario, rates, interarrival):
    """The equilibrium eps and the mean delay at each row's rate and session
    interarrival mean (the arrays ``rates`` and ``interarrival``), with the
    scenario's file law, as two arrays: NaN and inf where no equilibrium
    exists (one that does has eps > C/R, a stable queue).  Each batch of rows
    is one array solve and one array mean."""
    size = _SCAN_BATCH * _DELAY_POINTS
    if len(rates) > size:  # a batch at a time, whose arrays go before the next
        parts = [operating_points(scenario, rates[i:i + size], interarrival[i:i + size])
                 for i in range(0, len(rates), size)]
        return tuple(np.concatenate(column) for column in zip(*parts))
    file_size = scenario.traffic.file_size
    sol = solve_epsilons(scenario, rates, file_size.mean / interarrival)
    ok = sol.status == SOLVED
    delay = np.full(len(rates), math.inf)
    delay[ok] = mean_delays(sol.epsilon[ok], rates[ok], interarrival[ok], file_size.mean,
                            file_size.shape, scenario.outage)
    return sol.epsilon, delay


def min_delay_over_rate(scenario: Scenario, interarrival):
    """Minimize the mean delay over the target rate for each session
    interarrival mean of the array ``interarrival``, in place of the
    scenario's own: two arrays, the optimal rates and their delays, NaN in a
    row no rate serves.

    The delay is U-shaped in the rate.  A log-spaced scan of rows x rates
    brackets each minimum, going on upward in the same steps while a minimum
    is its scan's last point (past R/W = 1024 of the widest band nothing
    covers).  One ``find_minimum`` then polishes all brackets in log R, on
    -1/delay, which is finite where a bracket's end is infeasible; a row at
    its iteration cap raises ``ConvergenceError``.
    """
    n = len(interarrival)
    w_min = min(b.bandwidth for b in scenario.bands)
    span = np.geomspace(_DELAY_SPAN[0] * w_min, _DELAY_SPAN[1] * w_min, _DELAY_POINTS)
    steps = span[1:] / span[0]
    grid, delays = np.empty(0), np.empty((n, 0))
    k, up = np.zeros(n, dtype=int), np.arange(n)
    while up.size:  # the first span for every row, then one up per step
        more = np.full((n, len(span)), math.inf)
        more[up] = operating_points(scenario, np.tile(span, len(up)), np.repeat(
            interarrival[up], len(span)))[1].reshape(len(up), -1)
        grid = np.concatenate((grid, span))
        delays = np.concatenate((delays, more), axis=1)
        k[up] = np.argmin(delays[up], axis=1)
        up = np.flatnonzero(np.isfinite(delays).any(axis=1) & (k == len(grid) - 1))
        span = grid[-1] * steps
    rows = np.flatnonzero(np.isfinite(delays).any(axis=1))
    k = np.maximum(k[rows], 1)  # a minimum on the first point has no valid bracket
    res = find_minimum(
        lambda x, i: -1.0 / operating_points(scenario, np.exp(x), interarrival[i])[1],
        tuple(np.log(grid[k + j]) for j in (-1, 0, 1)), args=(rows,),
        tolerances={"xatol": _LOG_RATE_TOL, "xrtol": 0.0},
    )
    if np.any(res.status == -2):
        raise ConvergenceError("delay minimization reached its iteration cap")
    # a polish that lands on an infeasible rate serves no row either
    ok = (res.status == 0) & (res.f_x < 0.0)
    rates, delay = np.full(n, math.nan), np.full(n, math.nan)
    rates[rows[ok]], delay[rows[ok]] = np.exp(res.x[ok]), -1.0 / res.f_x[ok]
    return rates, delay
