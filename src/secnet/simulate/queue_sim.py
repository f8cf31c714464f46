"""Discrete-event simulation of the two-class preemptive-resume queue.

Outage events have absolute priority over session traffic and are served
FCFS among themselves, so their workload process is independent of the
sessions.  The engine exploits that: it first builds the outage busy
periods of a stream that leads with an empty outage at time 0, so that
every later instant follows a busy start, reads them as a piecewise-linear
"available service time" clock, and then runs the session FCFS recursion
in that clock (``_session_sweep``).  This is event-for-event equivalent to
a naive event-driven loop (the tests pin exact agreement with such a
reference loop) but runs as a handful of vectorized scans.

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


def _fcfs_departures(arrivals, work):
    """FCFS departures: job i leaves at cum_i + max_{j<=i}(arrival_j -
    cum_{j-1}), where cum is the running sum of ``work``."""
    cum = np.cumsum(work)
    offset = np.concatenate([[0.0], cum[:-1]])
    return cum + np.maximum.accumulate(arrivals - offset)


def _busy_periods(arrivals, frees):
    """(starts, ends) of the busy periods of an FCFS queue whose jobs arrive
    at ``arrivals`` and leave at the nondecreasing ``frees``."""
    new_period = np.empty(len(arrivals), dtype=bool)
    new_period[0] = True
    new_period[1:] = arrivals[1:] >= frees[:-1]
    starts = arrivals[new_period]
    # each period ends at the free time of the last job before the next period
    period_last = np.concatenate([np.nonzero(new_period)[0][1:] - 1,
                                  [len(arrivals) - 1]])
    return starts, frees[period_last]


def _latest_start(starts, t):
    """Index of the latest busy period starting at or before each t."""
    return np.searchsorted(starts, t, side="right") - 1


def _session_sweep(arr_s, service, starts, ends):
    """Session completions and first service starts: the FCFS recursion in
    the availability clock A(t), the secondary-service time up to t, which
    grows at unit rate outside the outage busy periods [starts, ends] and
    is flat inside them.  The first period starts at 0, so every t > 0 has
    a busy period starting at or before it."""
    blocked_before = np.concatenate([[0.0], np.cumsum(ends - starts)])
    avail_at_start = starts - blocked_before[:-1]
    k = _latest_start(starts, arr_s)
    avail_at_arrival = (arr_s - blocked_before[k]
                        - (np.minimum(arr_s, ends[k]) - starts[k]))
    completion_avail = _fcfs_departures(avail_at_arrival, service)
    # invert A: a completion landing exactly on a busy start resolves to the
    # earlier instant, since the session is done when the outage hits
    k = np.searchsorted(avail_at_start, completion_avail, side="left") - 1
    completions = ends[k] + (completion_avail - avail_at_start[k])
    # service start in real time: the later of arrival and the previous
    # completion, pushed past any outage busy period covering that instant
    cand = np.maximum(arr_s, np.concatenate([[-math.inf], completions[:-1]]))
    first_service = np.maximum(cand, ends[_latest_start(starts, cand)])
    # preemptive-resume accounting: availability consumed by each session
    # must equal its service requirement exactly
    consumed = completion_avail - np.maximum(
        avail_at_arrival, np.concatenate([[0.0], completion_avail[:-1]])
    )
    if not np.allclose(consumed, service, rtol=0.0, atol=_SERVICE_ACCOUNTING_TOL):
        raise AssertionError("service accounting violated in session sweep")
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

    # outage stream must cover the whole simulated span; extend on demand.
    # It leads with an empty outage at 0, which starts the first busy period.
    horizon = arr_s[-1] * 1.02 + 100.0 * cfg.outage_interarrival_mean
    arr_o = dur_o = np.zeros(1)
    while True:
        while arr_o[-1] < horizon:
            m = int((horizon - arr_o[-1]) / cfg.outage_interarrival_mean * 1.2) + 100
            arr_o = np.concatenate([arr_o, arr_o[-1] + np.cumsum(
                rng.exponential(cfg.outage_interarrival_mean, m))])
            dur_o = np.concatenate([dur_o, cfg.outage_duration.sample(rng, m)])
        starts, ends = _busy_periods(arr_o, _fcfs_departures(arr_o, dur_o))
        completions, first_service = _session_sweep(arr_s, service, starts, ends)
        # every completion must lie inside the simulated outage stream
        if completions[-1] <= arr_o[-1]:
            break
        horizon = completions[-1] + 10.0 * cfg.outage_interarrival_mean

    if np.any(np.diff(completions) < 0):
        raise AssertionError("FCFS completions not monotone")

    delays = completions - arr_s
    spans = completions - first_service

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
