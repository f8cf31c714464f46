"""Discrete-event simulation of the two-class preemptive-resume queue.

Outage events have absolute priority over session traffic and are served
FCFS among themselves, so their workload process is independent of the
sessions.  The engine exploits that: it builds the outage busy periods of
a stream that leads with an empty outage at time 0, so that every later
instant follows a busy start, reads them as a piecewise-linear "available
service time" clock, and runs the session FCFS recursion in that clock
(``_session_sweep``).  This is event-for-event equivalent to a naive
event-driven loop (the tests pin exact agreement with such a reference
loop) but runs as vectorized scans over blocks of ``_BLOCK`` outages or
sessions, each going on from the state the block before left (the FCFS
running sum and maximum, the open busy period, the previous completion).
The sweep takes in each block's busy periods as it is drawn and drops them
once no session reads them: a run holds its sessions, its outputs and a
few blocks, however many outages it draws.

Ties are deterministic by construction: an outage arriving exactly at a
session completion instant does not delay it (the session has already
received its full service), while a session arrival at the same instant
queues behind the outage.
"""

import itertools
import math
from copy import deepcopy
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import _check_finite_positive, _check_integer
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
        _check_integer(horizon_sessions=self.horizon_sessions, seed=self.seed)
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


def _outage_draws(rng, cfg, m):
    """The m arrival gaps, then the m durations, of an outage chunk as one
    call each draws them from ``rng`` (numpy's draws do not depend on how a
    run of them is split), in pieces of ``_BLOCK``: the gaps from a copy of
    ``rng``, the durations from ``rng`` once it has skipped the gaps."""
    gaps, sizes = deepcopy(rng), [min(_BLOCK, m - lo) for lo in range(0, m, _BLOCK)]
    for size in sizes:
        rng.standard_exponential(size)
    for size in sizes:
        yield (gaps.exponential(cfg.outage_interarrival_mean, size),
               cfg.outage_duration.sample(rng, size))


def _outage_stream(rng, cfg, horizon, chunks):
    """The busy periods of an outage stream that leads with an empty outage
    at 0, as ``_session_sweep`` takes them, drawn from ``rng`` a block at a
    time: first the chunks listed as [outage count, last arrival] in
    ``chunks``, then chunks sized to pass ``horizon``, listed there with the
    last arrival inf until drawn."""
    last, fcfs, start, free = 0.0, (0.0, 0.0), 0.0, 0.0
    i = 0
    while i < len(chunks) or last < horizon:
        if i == len(chunks):
            m = int((horizon - last) / cfg.outage_interarrival_mean * 1.2) + 100
            chunks.append([m, math.inf])
        gaps = 0.0  # the chunk's running sum of gaps, bit for bit as one cumsum
        for arrivals, durations in _outage_draws(rng, cfg, chunks[i][0]):
            arrivals[0] += gaps
            np.cumsum(arrivals, out=arrivals)
            gaps = arrivals[-1]
            arrivals += last
            frees, fcfs = _fcfs_departures(arrivals, durations, fcfs)
            # the open period goes first, as the job it has been so far
            piece = _busy_periods(np.append(start, arrivals), np.append(free, frees))
            yield piece
            start, free = piece[0][-1], frees[-1]
        chunks[i][1] = last = arrivals[-1]
        i += 1


def _blocks(lo, hi):
    """Slices that split [lo, hi) at the multiples of ``_BLOCK``."""
    while lo < hi:
        top = min(hi, lo - lo % _BLOCK + _BLOCK)
        yield slice(lo, top)
        lo = top


def _session_sweep(arr_s, service, periods):
    """Session completions and first service starts: the FCFS recursion in
    the availability clock A(t), the secondary-service time up to t, which
    grows at unit rate outside the outage busy periods and is flat inside
    them.  ``periods`` yields pieces (starts, ends) of the busy periods, the
    first at 0, each opening with the last period of the one before, whose
    end may still grow.  A session enters the clock once it arrives before
    that last period, and returns to real time once its completion does."""
    n = len(arr_s)
    kept = np.zeros((3, 1))  # starts, ends and blocked time before, of the periods kept
    completions, first_service = np.empty_like(arr_s), np.empty_like(arr_s)
    a, carry, a_avail = 0, (0.0, -math.inf), 0.0  # the sessions in the clock
    b, b_avail, done, raw = 0, 0.0, -math.inf, -math.inf  # those back in real time
    for piece in itertools.chain(periods, [None]):
        final = piece is None  # the last period known ends where it has so far
        if not final:
            # blocked time before each period: the running sum goes on, bit for bit
            blocked = np.cumsum(np.append(kept[2, -1], piece[1] - piece[0]))[:-1]
            kept = np.concatenate([kept[:, :-1], [*piece, blocked]], axis=1)
            starts, ends, blocked = kept
            avail = starts - blocked  # A at each start
        for blk in _blocks(a, n if final else np.searchsorted(arr_s, starts[-1])):
            arr, work = arr_s[blk], service[blk]
            k = np.searchsorted(starts, arr, "right") - 1
            avail_at_arrival = arr - blocked[k] - (np.minimum(arr, ends[k]) - starts[k])
            completion_avail, carry = _fcfs_departures(avail_at_arrival, work, carry)
            # preemptive-resume accounting: availability consumed by each session
            # must equal its service requirement exactly
            consumed = completion_avail - np.maximum(
                avail_at_arrival, _after(a_avail, completion_avail))
            if not np.all(np.abs(consumed - work) <= _SERVICE_ACCOUNTING_TOL):
                raise AssertionError("service accounting violated in session sweep")
            completions[blk] = completion_avail
            a, a_avail = blk.stop, completion_avail[-1]
        stop = a if final else b + np.searchsorted(completions[b:a], avail[-1], "right")
        for blk in _blocks(b, stop):
            completion_avail = completions[blk]
            # invert A: a completion landing exactly on a busy start resolves to
            # the earlier instant, since the session is done when the outage hits
            k = np.searchsorted(avail, completion_avail) - 1
            completed = ends[k] + (completion_avail - avail[k])
            # service start in real time: the later of arrival and the previous
            # completion, pushed past any outage busy period covering that instant
            # (the first of a block reads the completion after the fix below)
            cand = np.maximum(arr_s[blk], _after(
                done if blk.start % _BLOCK == 0 else raw, completed))
            # a service start at or past the last period known waits for its end
            cut = len(cand) if final else np.searchsorted(cand, starts[-1])
            if cut:
                b, raw = blk.start + cut, completed[cut - 1]
                b_avail = completion_avail[cut - 1]
                cand, fs = cand[:cut], first_service[blk.start:b]
                np.maximum(cand, ends[np.searchsorted(starts, cand, "right") - 1], out=fs)
                # a service that rounds away in the clock (1e-12 at A = 4e4) completes
                # at its first service start, not at the start of the period it waited in
                done = np.maximum(completed[:cut], fs, out=completions[blk.start:b])[-1]
            if cut < len(completed):
                break
        if b == n:  # no session reads the outages still to come
            break
        # keep the period the next session's completion can resolve to first
        kept = kept[:, max(np.searchsorted(avail, b_avail) - 1, 0):]
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
    arr_s = rng.exponential(cfg.session_interarrival_mean, n)
    np.cumsum(arr_s, out=arr_s)
    service = cfg.file_size.sample(rng, n)
    service /= cfg.rate

    report = SimReport(seed=cfg.seed, config=cfg.echo())
    if cfg.rho_s + cfg.rho_o >= 1.0:
        report.warnings.append(
            f"unstable load: rho_s + rho_o = {cfg.rho_s + cfg.rho_o:.3f} >= 1"
        )

    # the outage stream must cover the whole simulated span
    horizon = arr_s[-1] * 1.02 + 100.0 * cfg.outage_interarrival_mean
    chunks = []
    while True:  # each pass draws the outages from the state after the sessions
        completions, first_service = _session_sweep(
            arr_s, service, _outage_stream(deepcopy(rng), cfg, horizon, chunks))
        # every completion must lie inside the simulated outage stream
        if completions[-1] <= chunks[-1][1]:
            break
        horizon = completions[-1] + 10.0 * cfg.outage_interarrival_mean
    del service

    if np.any(completions[1:] < completions[:-1]):
        raise AssertionError("FCFS completions not monotone")

    k0 = int(cfg.warmup_fraction * n)
    # busy fraction and its CI from windowed sub-estimates
    edges = np.linspace(arr_s[k0] if k0 > 0 else 0.0, completions[-1], cfg.n_batches + 1)
    busy = _busy_fractions(*_busy_periods(arr_s, completions), edges)

    d = np.subtract(completions, arr_s, out=arr_s)[k0:]
    sp = np.subtract(completions, first_service, out=first_service)[k0:]
    for name, x in (("mean_delay", d), ("mean_span", sp)):
        report.add_mean_estimate(
            name, [b.mean() for b in np.array_split(x, cfg.n_batches)]
        )
    report.add_mean_estimate("busy_fraction", busy)

    report.arrays["delays"] = d
    report.arrays["spans"] = sp
    report.config["n_kept"] = int(n - k0)
    return report


def empirical_cdf(samples, grid):
    samples = np.sort(np.asarray(samples))
    return np.searchsorted(samples, grid, side="right") / len(samples)
