"""Two-class M/G/1 preemptive-resume priority-queue analytics for a
typical secondary user.

The high-priority class is the stream of outage events; the low-priority
class is the secondary session traffic.  Outage durations and file sizes
may be exponential or Gamma.  ``DelayTransform`` is the one derivation of
that queue from (traffic, outage, eps, R): its stability checks, its file
and outage laws, its mean (which ``mean_delay`` returns) and the Laplace
transform of the session delay; ``delay_cdf`` inverts the transform.

Tolerance hierarchy (loosest check dominates accuracy claims):
busy-period root residual 1e-12 < transform normalization 1e-8 <
transform inversion accuracy ~1e-4.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, UnstableQueueError
from .laplace import _EULER_TERMS, euler_inversion

_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 10_000
_RAW_TOLERANCE = 1e-3


@dataclass(frozen=True)
class SizeDistribution:
    """Exponential or Gamma size/duration distribution, parameterized by
    its mean and (for Gamma) shape.  Exponential is Gamma with shape 1."""

    family: str
    mean: float
    shape: float = 1.0

    def __post_init__(self):
        if self.family not in ("exponential", "gamma"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.mean <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")
        if self.shape <= 0:
            raise ValueError(f"shape must be > 0, got {self.shape}")
        if self.family == "exponential" and self.shape != 1.0:
            raise ValueError("exponential distribution has shape 1")

    @property
    def second_moment(self):
        return self.mean**2 * (self.shape + 1.0) / self.shape

    @property
    def scale(self):
        return self.mean / self.shape

    def laplace(self, s):
        """Laplace transform of the PDF, (1 + theta*s)^(-k)."""
        if self.family == "exponential":
            return 1.0 / (1.0 + self.mean * s)
        base = 1.0 + self.scale * s
        if isinstance(base, complex):
            return base ** (-self.shape)
        if base <= 0.0:
            raise ValueError("Gamma transform evaluated left of its singularity")
        return base ** (-self.shape)

    def scaled(self, factor):
        """Distribution of the variable multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return SizeDistribution(self.family, self.mean * factor, self.shape)

    def sample(self, rng, n):
        if self.family == "exponential":
            return rng.exponential(self.mean, n)
        return rng.gamma(self.shape, self.scale, n)


@dataclass(frozen=True)
class TrafficModel:
    """Poisson session arrivals carrying i.i.d. random file sizes (bits).

    ``session_interarrival_mean`` may be ``inf`` to represent vanishing
    traffic (zero throughput capacity).
    """

    session_interarrival_mean: float
    file_size: SizeDistribution

    def __post_init__(self):
        if self.session_interarrival_mean <= 0:
            raise ValueError("session interarrival mean must be > 0")

    @property
    def capacity(self):
        """Mean per-user throughput demand C (bits/s)."""
        if math.isinf(self.session_interarrival_mean):
            return 0.0
        return self.file_size.mean / self.session_interarrival_mean


@dataclass(frozen=True)
class OutageModel:
    """Poisson outage arrivals.  Only the interarrival mean and the
    duration shape are free: the duration mean is pinned by the service
    equilibrium (mean duration = interarrival mean * outage time fraction),
    so it is supplied at evaluation time, not stored here."""

    outage_interarrival_mean: float
    duration_shape: float = 1.0

    def __post_init__(self):
        if self.outage_interarrival_mean <= 0:
            raise ValueError("outage interarrival mean must be > 0")
        if self.duration_shape <= 0:
            raise ValueError("outage duration shape must be > 0")

    def duration_distribution(self, mean):
        family = "exponential" if self.duration_shape == 1.0 else "gamma"
        return SizeDistribution(family, mean, self.duration_shape)


def mean_delay(traffic: TrafficModel, outage: OutageModel, epsilon, rate):
    """Mean sojourn time of a session at service probability ``epsilon``
    and transmission rate ``rate``: the ``DelayTransform``'s mean."""
    return DelayTransform(traffic, outage, epsilon, rate).mean


def busy_root(s, outage_duration: SizeDistribution, outage_interarrival_mean):
    """Smallest-modulus solution x of x = L_{beta_o}(s + (1 - x)/alpha_o).

    For exponential durations the quadratic is solved in closed form; for
    Gamma durations the contraction iteration from 0 is used.  The root is
    the busy-period transform of the outage workload.
    """
    alpha_o = outage_interarrival_mean
    rho_o = outage_duration.mean / alpha_o
    if outage_duration.family == "exponential":
        b = 1.0 + rho_o + outage_duration.mean * s
        disc = b * b - 4.0 * rho_o
        sq = cmath.sqrt(disc) if isinstance(disc, complex) or disc < 0 else math.sqrt(disc)
        if abs(b + sq) > abs(b - sq):
            big = (b + sq) / (2.0 * rho_o)
        else:
            big = (b - sq) / (2.0 * rho_o)
        # roots of rho*x^2 - b*x + 1 multiply to 1/rho; recover the small
        # one from the big one to dodge cancellation
        root = 1.0 / (rho_o * big)
    else:
        root = _busy_root_iterate(s, outage_duration, alpha_o)
    residual = abs(root - outage_duration.laplace(s + (1.0 - root) / alpha_o))
    if residual > _ROOT_TOL:
        raise ConvergenceError(
            f"busy-period root residual {residual:.3e} exceeds {_ROOT_TOL:.0e}"
        )
    if isinstance(root, complex) and not isinstance(s, complex):
        root = root.real
    return root


def _busy_root_iterate(s, dist, alpha_o):
    x = 0.0 + 0.0j if isinstance(s, complex) else 0.0
    for _ in range(_ROOT_MAX_ITER):
        nxt = dist.laplace(s + (1.0 - x) / alpha_o)
        if abs(nxt - x) < 0.25 * _ROOT_TOL:
            return nxt
        x = nxt
    raise ConvergenceError(
        f"busy-period iteration did not converge in {_ROOT_MAX_ITER} steps"
    )


class DelayTransform:
    """Laplace transform of the session sojourn-time PDF, and its ``mean``:
    the M/G/1 preemptive-resume mean from the second moments of the file and
    outage laws.  The outage duration mean comes from the equilibrium
    identity (outage time fraction = 1 - epsilon).

    Immutable after construction; safe to evaluate concurrently at
    arbitrary points with Re(s) >= 0 (small negative real parts are
    tolerated for finite-difference work near the origin).
    """

    def __init__(self, traffic: TrafficModel, outage: OutageModel, epsilon, rate):
        capacity = traffic.capacity
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"service probability must be in (0, 1], got {epsilon}")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if epsilon <= capacity / rate:
            raise UnstableQueueError(
                f"unstable: service probability {epsilon} <= C/R = {capacity / rate}"
            )
        self.rho_o = 1.0 - epsilon
        self.rho_s = capacity / rate
        self.alpha_s = traffic.session_interarrival_mean
        self.alpha_o = outage.outage_interarrival_mean
        self.beta_s = traffic.file_size.scaled(1.0 / rate)
        self.beta_o = None
        second = self.beta_s.second_moment / self.alpha_s
        if self.rho_o > 0.0:
            self.beta_o = outage.duration_distribution(self.alpha_o * self.rho_o)
            second = second + self.beta_o.second_moment / self.alpha_o
        # at C = 0 the mean keeps the transmission time alone and drops the
        # outage residual that the general expression keeps as C -> 0
        file_mean = traffic.file_size.mean
        if capacity == 0.0:
            self.mean = file_mean / (rate * epsilon)
        else:
            self.mean = second / (2.0 * epsilon * (epsilon - self.rho_s)) + file_mean / (
                rate * epsilon
            )

    def _stage(self, s):
        if self.beta_o is None:
            return s
        g = busy_root(s, self.beta_o, self.alpha_o)
        return s + (1.0 - g) / self.alpha_o

    def __call__(self, s):
        if abs(s) < 1e-12:
            return 1.0
        k = self._stage(s)
        lt = self.beta_s.laplace(k)  # transmission-time transform
        lw = (
            (1.0 - self.rho_o - self.rho_s)
            * self.alpha_s
            * k
            / (lt + self.alpha_s * s - 1.0)
        )
        return lt * lw

    def transmission_transform(self, s):
        """Transform of the transmission span alone (arrival-to-service
        wait excluded)."""
        if abs(s) < 1e-12:
            return 1.0
        return self.beta_s.laplace(self._stage(s))


def delay_transform(traffic, outage, epsilon, rate):
    return DelayTransform(traffic, outage, epsilon, rate)


@dataclass(frozen=True)
class DelayCdf:
    """Inverted delay CDF on a time grid, with the inversion parameters
    that produced it."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)


def delay_cdf(handle, t_grid):
    """Euler-invert ``handle``'s transform divided by s on ``t_grid``.

    Raw inversion output is required to stay within ``_RAW_TOLERANCE`` of
    [0, 1]; larger excursions indicate oscillatory failure and raise.  The
    returned values are clamped and made nondecreasing.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("t_grid must be a nonempty 1-D sequence")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be strictly increasing and positive")

    def cdf_transform(s):
        return handle(s) / s

    raw = euler_inversion(cdf_transform, t)

    bad = (raw < -_RAW_TOLERANCE) | (raw > 1.0 + _RAW_TOLERANCE)
    if np.any(bad):
        raise ConvergenceError(
            f"inversion oscillation at t={t[bad][0]:g}: value {raw[bad][0]:g}"
        )
    values = np.maximum.accumulate(np.clip(raw, 0.0, 1.0))
    meta = {"method": "euler", "terms": _EULER_TERMS, "raw_tolerance": _RAW_TOLERANCE}
    return DelayCdf(times=t, values=values, metadata=meta)
