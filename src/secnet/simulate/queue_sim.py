"""Discrete-event simulation of the two-class preemptive-resume queue.

Outage events have absolute priority over session traffic and are served
FCFS among themselves, so their workload process is independent of the
sessions.  The engine exploits that: it first builds the outage busy
periods of a stream that leads with an empty outage at time 0, so that
every later instant follows a busy start, reads them as a piecewise-linear
"available service time" clock, and then runs the session FCFS recursion
in that clock (``_session_sweep``).  This is event-for-event equivalent to
a naive event-driven loop (the tests pin exact agreement with such a
reference loop) but runs as vectorized scans over blocks of ``_BLOCK``
outages, then sessions, each going on from the state the block before left
(the FCFS running sum and maximum, the open busy period, the previous
completion) and searching only the busy periods its keys span.  Outage
chunks are folded in place into their busy periods and dropped, so a run
holds its sessions, the busy periods, its outputs and one block.

Ties are deterministic by construction: an outage arriving exactly at a
session completion instant does not delay it (the session has already
received its full service), while a session arrival at the same instant
queues behind the outage.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import _check_finite_positive
from ..queueing import SizeDistribution
from .report import SimReport

_SERVICE_ACCOUNTING_TOL = 1e-9
_BLOCK = 1 << 14  # outages or sessions per block of the sweeps


@dataclass(frozen=True)
class QueueSimConfig:
    session_interarrival_mean: float
    outage_interarrival_mean: float
    file_size: SizeDistribution
    outage_duration: SizeDistribution
    rate: float
    horizon_sessions: int = 100_000
    seed: int = 0

    # batch means: warm-up share dropped, and batches (= busy-fraction windows)
    warmup_fraction: ClassVar[float] = 0.1
    n_batches: ClassVar[int] = 20

    def __post_init__(self):
        _check_finite_positive(
            session_interarrival_mean=self.session_interarrival_mean,
            outage_interarrival_mean=self.outage_interarrival_mean, rate=self.rate)
        if self.rho_o >= 1.0:  # the outage class alone would never empty
            raise ValueError(f"outage load rho_o = {self.rho_o:g} must be < 1")
        n = self.horizon_sessions
        if n - int(self.warmup_fraction * n) < self.n_batches:
            raise ValueError(
                f"horizon of {n} sessions keeps fewer than {self.n_batches} "
                "after warm-up, one per batch"
            )

    @property
    def rho_s(self):
        return self.file_size.mean / (self.rate * self.session_interarrival_mean)

    @property
    def rho_o(self):
        return self.outage_duration.mean / self.outage_interarrival_mean

    def echo(self):
        return {
            "session_interarrival_mean": self.session_interarrival_mean,
            "outage_interarrival_mean": self.outage_interarrival_mean,
            "file_size": (self.file_size.family, self.file_size.mean,
                          self.file_size.shape),
            "outage_duration": (self.outage_duration.family,
                                self.outage_duration.mean,
                                self.outage_duration.shape),
            "rate": self.rate,
            "horizon_sessions": self.horizon_sessions,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
        }


def _after(first, x):
    """Each element's predecessor in ``x``; ``first`` for its first one."""
    out = np.empty_like(x)
    out[0] = first
    out[1:] = x[:-1]
    return out


def _fcfs_departures(arrivals, work, carry=(0.0, -math.inf)):
    """FCFS departures: job i leaves at cum_i + max_{j<=i}(arrival_j -
    cum_{j-1}), where cum is the running sum of ``work``.  Goes on from the
    (cum, running maximum) ``carry`` of the jobs before; returns its own."""
    done, lead = carry
    cum = work.copy()
    cum[0] += done  # the running sum goes on from the carry, bit for bit
    np.cumsum(cum, out=cum)
    lag = arrivals - _after(done, cum)
    lag[0] = np.maximum(lead, lag[0])
    np.maximum.accumulate(lag, out=lag)
    return cum + lag, (cum[-1], lag[-1])


def _busy_periods(arrivals, frees):
    """(starts, ends) of the busy periods of an FCFS queue whose jobs arrive
    at ``arrivals`` and leave at the nondecreasing ``frees``."""
    before = _after(-math.inf, frees)  # a job opens a period if it finds it free
    opens = arrivals >= before
    return arrivals[opens], np.append(before[opens][1:], frees[-1])


def _outage_periods(arrivals, durations, carry):
    """Outage busy periods of a chunk, blockwise from the ``carry`` (FCFS
    carry, free time) of the outages before.  Writes the starts of the
    periods it opens over ``arrivals`` and the ends of those they close over
    ``durations``, never past the block read; returns their count, carry."""
    fcfs, free = carry
    count = 0
    for lo in range(0, len(arrivals), _BLOCK):
        block = arrivals[lo:lo + _BLOCK]
        frees, fcfs = _fcfs_departures(block, durations[lo:lo + _BLOCK], fcfs)
        before = _after(free, frees)
        opens = block >= before
        free, opened = frees[-1], np.count_nonzero(opens)
        arrivals[count:count + opened] = block[opens]
        durations[count:count + opened] = before[opens]
        count += opened
    return count, (fcfs, free)


def _place(sorted_keys, keys, side):
    """``np.searchsorted(sorted_keys, keys, side)`` for nondecreasing
    ``keys``, searching only the window their first and last keys span."""
    lo, hi = np.searchsorted(sorted_keys, keys[[0, -1]], side)
    return np.searchsorted(sorted_keys[lo:hi], keys, side) + lo


def _session_sweep(arr_s, service, starts, ends):
    """Session completions and first service starts: the FCFS recursion in
    the availability clock A(t), the secondary-service time up to t, which
    grows at unit rate outside the outage busy periods [starts, ends] and
    is flat inside them.  The first period starts at 0, so every t > 0 has
    a busy period starting at or before it."""
    blocked_before = _after(0.0, ends - starts)
    np.cumsum(blocked_before, out=blocked_before)
    avail_at_start = starts - blocked_before
    completions, first_service = np.empty_like(arr_s), np.empty_like(arr_s)
    carry, done, done_avail = (0.0, -math.inf), -math.inf, 0.0
    for lo in range(0, len(arr_s), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        arr, work = arr_s[block], service[block]
        k = _place(starts, arr, "right") - 1
        avail_at_arrival = (arr - blocked_before[k]
                            - (np.minimum(arr, ends[k]) - starts[k]))
        completion_avail, carry = _fcfs_departures(avail_at_arrival, work, carry)
        # invert A: a completion landing exactly on a busy start resolves to
        # the earlier instant, since the session is done when the outage hits
        k = _place(avail_at_start, completion_avail, "left") - 1
        completed = np.add(ends[k], completion_avail - avail_at_start[k],
                           out=completions[block])
        # service start in real time: the later of arrival and the previous
        # completion, pushed past any outage busy period covering that instant
        cand = np.maximum(arr, _after(done, completed))
        np.maximum(cand, ends[_place(starts, cand, "right") - 1],
                   out=first_service[block])
        # a service that rounds away in the clock (1e-12 at A = 4e4) completes
        # at its first service start, not at the start of the period it waited in
        np.maximum(completed, first_service[block], out=completed)
        # preemptive-resume accounting: availability consumed by each session
        # must equal its service requirement exactly
        consumed = completion_avail - np.maximum(
            avail_at_arrival, _after(done_avail, completion_avail))
        if not np.allclose(consumed, work, rtol=0.0, atol=_SERVICE_ACCOUNTING_TOL):
            raise AssertionError("service accounting violated in session sweep")
        done, done_avail = completed[-1], completion_avail[-1]
    return completions, first_service


def _busy_time(starts, ends, window_start, window_end):
    """Measure of the disjoint busy periods [starts, ends] clipped to a
    window."""
    lo = np.clip(starts, window_start, window_end)
    hi = np.clip(ends, window_start, window_end)
    return float(np.sum(hi - lo))


def _busy_fractions(starts, ends, edges):
    """Busy share of each window [edges[i], edges[i + 1]], clipping only the
    disjoint, sorted busy periods that overlap the window."""
    first = np.searchsorted(ends, edges[:-1], side="right")
    stop = np.searchsorted(starts, edges[1:], side="left")
    return [
        _busy_time(starts[a:b], ends[a:b], lo, hi) / (hi - lo)
        for a, b, lo, hi in zip(first, stop, edges[:-1], edges[1:])
    ]


def run_priority_queue(cfg: QueueSimConfig) -> SimReport:
    """Simulate the queue for ``horizon_sessions`` completed sessions."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.horizon_sessions
    arr_s = np.cumsum(rng.exponential(cfg.session_interarrival_mean, n))
    service = cfg.file_size.sample(rng, n) / cfg.rate

    report = SimReport(seed=cfg.seed, config=cfg.echo())
    unstable = cfg.rho_s + cfg.rho_o >= 1.0
    if unstable:
        report.warnings.append(
            f"unstable load: rho_s + rho_o = {cfg.rho_s + cfg.rho_o:.3f} >= 1"
        )

    # the outage stream must cover the whole simulated span; it leads with an
    # empty outage at 0, which starts the first busy period
    horizon = arr_s[-1] * 1.02 + 100.0 * cfg.outage_interarrival_mean
    starts = ends = np.zeros(1)  # ends[-1] is the end of the open period
    last, carry = 0.0, ((0.0, 0.0), 0.0)
    while True:
        while last < horizon:
            m = int((horizon - last) / cfg.outage_interarrival_mean * 1.2) + 100
            arr_o = np.cumsum(rng.exponential(cfg.outage_interarrival_mean, m)) + last
            dur_o = cfg.outage_duration.sample(rng, m)
            last = arr_o[-1]
            count, carry = _outage_periods(arr_o, dur_o, carry)
            starts = np.concatenate([starts, arr_o[:count]])
            del arr_o
            ends = np.concatenate([ends[:-1], dur_o[:count], [carry[1]]])
            del dur_o
        completions, first_service = _session_sweep(arr_s, service, starts, ends)
        # every completion must lie inside the simulated outage stream
        if completions[-1] <= last:
            break
        horizon = completions[-1] + 10.0 * cfg.outage_interarrival_mean
    del starts, ends

    if np.any(np.diff(completions) < 0):
        raise AssertionError("FCFS completions not monotone")

    delays = completions - arr_s
    spans = np.subtract(completions, first_service, out=first_service)

    k0 = int(cfg.warmup_fraction * n)
    kept = slice(k0, n)
    d = delays[kept]
    sp = spans[kept]

    for name, x in (("mean_delay", d), ("mean_span", sp)):
        report.add_mean_estimate(
            name, [b.mean() for b in np.array_split(x, cfg.n_batches)]
        )

    t_lo = arr_s[k0] if k0 > 0 else 0.0
    t_hi = completions[-1]
    # busy fraction and its CI from windowed sub-estimates
    edges = np.linspace(t_lo, t_hi, cfg.n_batches + 1)
    report.add_mean_estimate(
        "busy_fraction", _busy_fractions(*_busy_periods(arr_s, completions), edges)
    )

    report.arrays["delays"] = d
    report.arrays["spans"] = sp
    report.config["n_kept"] = int(n - k0)
    return report


def empirical_cdf(samples, grid):
    samples = np.sort(np.asarray(samples))
    return np.searchsorted(samples, grid, side="right") / len(samples)
