"""Capacity limits of homogeneous multi-band deployments, and the
capacity-delay tradeoff front of any band set, for all of a sweep's demands.

The limit laws are mode I: they take the equilibrium's ``Scenario`` with N
bands that must all be equal, each of width W, and read only its bands,
user density and thinning (unequal bands raise ``ValueError``).  Mode II, a
system bandwidth W split into N bands of W/N, is mode I rescaled: coverage
depends on the rate per unit width, so its limit at per-band rate R is the
mode-I limit at R*N over N, and its maximum is the mode-I maximum over N.

The optimal rate of a list of scenarios is one batch: one array scan of the
limit's derivative per span for every row still without a sign change, and
one lockstep regula falsi with the Illinois rule (``_polish``) on every
bracket, which gives each row the bits it gets alone.  The delay optimizer
solves the equilibrium and the mean delay of all its rows as arrays
(``equilibrium.solve_epsilons``, ``queueing.mean_delays``).
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from scipy.optimize.elementwise import find_minimum

from . import geometry
# unused solve_equilibrium: perfbench's tracer test checks cli binds this one
from .equilibrium import SOLVED, Scenario, solve_epsilons, solve_equilibrium  # noqa: F401
from .errors import ConvergenceError, InfeasibleError
from .queueing import mean_delays

_LOG_RATE_TOL = 1e-8  # the delay polish's tolerance in log R: 1e-8 relative in R
_BRACKET_POINTS = 256
# the polish's tolerance, scipy brentq's on the same bracket, and its step cap
_XTOL, _RTOL, _MAX_STEPS = 1e-14, 1e-15, 100
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


def _laws(scenarios):
    """Per scenario its band's width and vacancy, the per-band load (the
    user/BS ratio / N), N and the thinning: five arrays, one row each."""
    rows = []
    for scenario in scenarios:
        band, n = _identical_bands(scenario)
        rows.append((band.bandwidth, band.vacancy,
                     scenario.user_density / (band.bs_density * n), n,
                     scenario.thinning))
    return np.array(rows, dtype=float).reshape(-1, 5).T


def _service_and_slope(rate, width, vacancy, load, n, thinning):
    """eps_n, the probability that a band serves a user at the stability
    boundary, and the analytic d/dR of the mode-I capacity limit, elementwise
    over arrays that broadcast together.

    The derivative follows the chain rule through the coverage probability;
    the thinning stays inside the per-band service factor, so it is the
    derivative of the limit as computed.  Where 2^(R/W) rounds to 1 (R/W
    below about 1e-16) or overflows (past 1024), eps_n is still right and the
    derivative is NaN, so numpy's warnings are off: the limit laws call this
    at any rate, the optimizer only inside the scan spans.
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
        return eps_n, f0 + rate * df0_dr


def _limits(rate, eps_n, n):
    """The mode-I limit R (1 - (1 - eps_n)^N) of each row of the arrays, in
    ``math``'s log1p and expm1, whose last bits numpy's array loops do not
    always keep; R itself where every band always serves (eps_n = 1)."""
    return [r if e == 1.0 else r * -math.expm1(k * math.log1p(-e))
            for r, e, k in zip(rate.tolist(), eps_n.tolist(), n.tolist())]


def capacity_limit_fixed_band(scenario: Scenario, rate):
    """Largest stable per-user throughput at target rate ``rate``: the rate
    times the probability that some band serves a user at the stability
    boundary (every user active, a per-band load of the user/BS ratio / N)."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    law = _laws([scenario])
    rate = np.array([rate], dtype=float)
    return _limits(rate, _service_and_slope(rate, *law)[0], law[3])[0]


def capacity_limit_derivative(scenario: Scenario, rate):
    """Analytic d/dR of the mode-I capacity limit; accepts a scalar or an
    array of rates."""
    out = _service_and_slope(rate, *_laws([scenario]))[1]
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
    """The optimal rate of each row of ``_laws``' arrays ``law``: the limit
    derivative's root at its first + -> - sign change, scanned span by span
    (``_SCAN_EDGES``) on ``_BRACKET_POINTS`` log-spaced rates, in one array
    per span of the rows still without a turn; then one lockstep ``_polish``
    of every bracket."""
    width = law[0]
    todo = np.arange(len(width))
    a, b, fa, fb = (np.empty(len(width)) for _ in range(4))
    for lo, hi in zip(_SCAN_EDGES, _SCAN_EDGES[1:]):
        grid = np.geomspace(lo * width[todo], hi * width[todo], _BRACKET_POINTS, axis=1)
        dv = _service_and_slope(grid, *law[:, todo, None])[1]
        turns = (dv[:, :-1] > 0) & (dv[:, 1:] < 0)
        found = turns.any(axis=1)
        i, rows = turns[found].argmax(axis=1), todo[found]
        a[rows], b[rows] = grid[found, i], grid[found, i + 1]
        fa[rows], fb[rows] = dv[found, i], dv[found, i + 1]
        todo = todo[~found]
        if not todo.size:
            break
    else:
        raise InfeasibleError(f"no capacity optimum below rate {hi:g} x band width")
    return _polish(lambda rows, x: _service_and_slope(x, *law[:, rows])[1], a, b, fa, fb)


def optimal_rates_fixed_band(scenarios):
    """``optimal_rate_fixed_band`` of each scenario of the list ``scenarios``,
    in one batch: a ``RateOptimum`` per scenario, the same bits as each alone.
    Raises ``InfeasibleError`` if a scenario has no optimum."""
    law = _laws(scenarios)
    rate = _optimal_rates(law)
    capacity = _limits(rate, _service_and_slope(rate, *law)[0], law[3])
    return list(map(RateOptimum, rate.tolist(), capacity))


def optimal_rate_fixed_band(scenario: Scenario) -> RateOptimum:
    """Rate maximizing the mode-I capacity limit, and the limit there: the
    batch of one of ``optimal_rates_fixed_band``."""
    rate = float(_optimal_rates(_laws([scenario]))[0])
    return RateOptimum(rate, capacity_limit_fixed_band(scenario, rate))


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


def operating_points(scenario: Scenario, rates, traffics):
    """The equilibrium eps and the mean delay at each row's rate and traffic
    (one per row of the list ``traffics``), as two arrays: NaN and inf where
    no equilibrium exists (one that does has eps > C/R, a stable queue).
    Each batch of rows is one array solve and one array mean."""
    size = _SCAN_BATCH * _DELAY_POINTS
    if len(rates) > size:  # a batch at a time, whose arrays go before the next
        parts = [operating_points(scenario, rates[i:i + size], traffics[i:i + size])
                 for i in range(0, len(rates), size)]
        return tuple(np.concatenate(column) for column in zip(*parts))
    interarrival, file_mean, file_shape = np.array(
        [(t.session_interarrival_mean, t.file_size.mean, t.file_size.shape)
         for t in traffics], dtype=float).reshape(-1, 3).T
    sol = solve_epsilons(scenario, rates, file_mean / interarrival)
    ok = sol.status == SOLVED
    delay = np.full(len(rates), math.inf)
    delay[ok] = mean_delays(sol.epsilon[ok], rates[ok], interarrival[ok], file_mean[ok],
                            file_shape[ok], scenario.outage)
    return sol.epsilon, delay


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
        more[up] = operating_points(scenario, np.tile(span, len(up)), [
            traffics[i] for i in up for _ in span])[1].reshape(len(up), -1)
        grid = np.concatenate((grid, span))
        delays = np.concatenate((delays, more), axis=1)
        k[up] = np.argmin(delays[up], axis=1)
        up = np.flatnonzero(np.isfinite(delays).any(axis=1) & (k == len(grid) - 1))
        span = grid[-1] * steps
    rows = np.flatnonzero(np.isfinite(delays).any(axis=1))
    k = np.maximum(k[rows], 1)  # a minimum on the first point has no valid bracket
    res = find_minimum(
        lambda x, i: -1.0 / operating_points(
            scenario, np.exp(x), [traffics[j] for j in i])[1],
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
