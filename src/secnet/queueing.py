"""Two-class M/G/1 preemptive-resume priority-queue analytics for a
typical secondary user.

The high-priority class is the stream of outage events; the low-priority
class is the secondary session traffic.  Outage durations and file sizes
may be exponential or Gamma.  ``DelayTransform`` is the one derivation of
that queue from (traffic, outage, eps, R): its stability checks, its file
and outage laws, its mean (which ``mean_delay`` returns) and the Laplace
transform of the session delay; ``delay_cdf`` inverts the transform.  The
chain works elementwise on arrays of s (a scalar s gives a scalar), and the
Gamma busy-period Newton steps all elements in lockstep.

``DelayTransform.mean`` is the one home of the mean: it is the one-row
value of ``mean_delays``, the Pollaczek-Khinchine mean on arrays of (eps, R,
traffic), which the planning batches call for all their rows at once with
the same operations in the same order, so both give the same bits.

Accuracy, measured: the Gamma busy-period root is within 6e-14 (relative)
of a 30-digit mpmath root for outage loads up to 0.995, at real and complex
s, and its residual is checked against 1e-12.  Euler inversion multiplies
transform error by about 5e6, so the root sets the CDF's error: a root
5e-11 off moved the benchmark pool's Gamma-outage CDF values by up to
4.9e-6, against the 1e-4 the inversion is trusted to.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, UnstableQueueError, _check_finite_positive
from .laplace import _EULER_TERMS, euler_inversion

_ROOT_TOL = 1e-12
_NEWTON_STEP = 1e-12  # absolute: the root has |x| <= 1
_NEWTON_MAX_ITER = 100
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
        _check_finite_positive(mean=self.mean, shape=self.shape)
        if self.family == "exponential" and self.shape != 1.0:
            raise ValueError("exponential distribution has shape 1")

    @property
    def scale(self):
        return self.mean / self.shape

    def laplace(self, s):
        """Laplace transform of the PDF, (1 + theta*s)^(-k)."""
        return self.laplace_and_derivative(s)[0]

    def laplace_and_derivative(self, s):
        """(1 + theta*s)^(-k) and its derivative -k*theta*(1 + theta*s)^(-k-1),
        where k*theta is the mean, elementwise over an array s."""
        z = np.atleast_1d(s)
        base = 1.0 + self.scale * z
        if not np.iscomplexobj(base) and np.any(base <= 0.0):
            raise ValueError("transform evaluated left of its singularity")
        value = base ** (-self.shape)
        slope = -self.mean * value / base
        return (value, slope) if np.ndim(s) else (value[0], slope[0])

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
        if not self.session_interarrival_mean > 0:  # NaN fails, inf is no traffic
            raise ValueError("session_interarrival_mean must be > 0, got "
                             f"{self.session_interarrival_mean}")

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
        _check_finite_positive(outage_interarrival_mean=self.outage_interarrival_mean,
                               duration_shape=self.duration_shape)

    def duration_distribution(self, mean):
        family = "exponential" if self.duration_shape == 1.0 else "gamma"
        return SizeDistribution(family, mean, self.duration_shape)


def mean_delay(traffic: TrafficModel, outage: OutageModel, epsilon, rate):
    """Mean sojourn time of a session at service probability ``epsilon``
    and transmission rate ``rate``: the ``DelayTransform``'s mean."""
    return DelayTransform(traffic, outage, epsilon, rate).mean


def mean_delays(epsilon, rate, interarrival, file_mean, file_shape, outage: OutageModel):
    """The M/G/1 preemptive-resume mean sojourn time (Pollaczek-Khinchine,
    from the second moments of the file and outage laws), elementwise over
    arrays of eps, R, the session interarrival mean and the Gamma file law's
    mean and shape, for one outage law; the rows must be stable, eps > C/R.

    ``DelayTransform.mean`` is its value at one row.  The outage duration
    mean comes from the equilibrium identity (outage time fraction =
    1 - eps).  Each second moment is mean^2 (shape + 1) / shape, squared by
    ``float_power``, which rounds as a Python float's ``**`` does; numpy's
    array ``power`` and x * x differ from it in the last bit now and then.
    """
    alpha_o, shape_o = outage.outage_interarrival_mean, outage.duration_shape
    capacity = file_mean / interarrival  # 0 at an infinite interarrival mean
    file_time = file_mean * (1.0 / rate)  # the transmission-time mean
    outage_time = alpha_o * (1.0 - epsilon)
    second = (np.float_power(file_time, 2.0) * (file_shape + 1.0) / file_shape
              / interarrival
              + np.float_power(outage_time, 2.0) * (shape_o + 1.0) / shape_o / alpha_o)
    transmission = file_mean / (rate * epsilon)
    # at C = 0 the mean keeps the transmission time alone and drops the
    # outage residual that the general expression keeps as C -> 0
    return np.where(capacity == 0.0, transmission,
                    second / (2.0 * epsilon * (epsilon - capacity / rate)) + transmission)


def busy_root(s, outage_duration: SizeDistribution, outage_interarrival_mean):
    """Smallest-modulus solution x of x = L_{beta_o}(s + (1 - x)/alpha_o).

    For exponential durations the quadratic is solved in closed form; for
    Gamma durations Newton's method runs on F(x) = L(s + (1 - x)/alpha_o) - x
    from x = 0.  The root is the busy-period transform of the outage
    workload.
    """
    z = np.atleast_1d(s)
    alpha_o = outage_interarrival_mean
    rho_o = outage_duration.mean / alpha_o
    if outage_duration.family == "exponential":
        b = 1.0 + rho_o + outage_duration.mean * z
        sq = np.sqrt(b * b - 4.0 * rho_o + 0j)
        big = np.where(np.abs(b + sq) > np.abs(b - sq), b + sq, b - sq) / (2.0 * rho_o)
        # roots of rho*x^2 - b*x + 1 multiply to 1/rho; recover the small
        # one from the big one to dodge cancellation
        root = 1.0 / (rho_o * big)
    else:
        root = _busy_root_newton(z, outage_duration, alpha_o)
    residual = np.abs(root - outage_duration.laplace(z + (1.0 - root) / alpha_o))
    if np.any(residual > _ROOT_TOL):
        raise ConvergenceError(
            f"busy-period root residual {np.nanmax(residual):.3e} exceeds {_ROOT_TOL:.0e}"
        )
    root = root if np.iscomplexobj(z) else root.real
    return root if np.ndim(s) else root[0]


def _busy_root_newton(s, dist, alpha_o):
    """Newton from x = 0 on the elements of the 1-d array s in lockstep; an
    element stops once its step is at most ``_NEWTON_STEP``, as it would alone.

    For real s, F is convex and decreasing left of its smallest root, so the
    iterates climb to that root without overshoot.  For Re(s) >= 0 the root
    lies in the unit disk, where |F'(x) + 1| <= rho_o < 1 keeps F' away from
    zero; a step that leaves the disk is projected back onto it, which never
    moves it farther from the root (and lands on the root x = 1 at s = 0).

    Near rho_o = 1 and s = 0, F' ~ 1 - rho_o is so small that rounding in F
    alone moves x by more than ``_NEWTON_STEP`` (up to 1e-9 at 1 - 1e-5).
    Newton steps shrink until they reach that floor, so a step that does not
    shrink while |F| is already within ``_ROOT_TOL`` also stops its element.
    """
    x = np.zeros(s.shape, np.result_type(s, float))
    guard = s.real >= 0.0
    last = np.full(s.shape, np.inf)
    live = np.arange(s.size)
    for _ in range(_NEWTON_MAX_ITER):
        at = x[live]
        value, slope = dist.laplace_and_derivative(s[live] + (1.0 - at) / alpha_o)
        residual = value - at
        nxt = at + residual / (1.0 + slope / alpha_o)
        outside = guard[live] & (np.abs(nxt) > 1.0)
        nxt[outside] /= np.abs(nxt[outside])
        step = np.abs(nxt - at)
        done = (step <= _NEWTON_STEP) | (
            (step >= last[live]) & (np.abs(residual) <= _ROOT_TOL))
        x[live], last[live] = nxt, step
        live = live[~done]
        if not live.size:
            return x
    raise ConvergenceError(
        f"busy-period Newton did not converge in {_NEWTON_MAX_ITER} steps"
    )


class DelayTransform:
    """Laplace transform of the session sojourn-time PDF, and its ``mean``,
    ``mean_delays`` at this one row.  The outage duration mean comes from
    the equilibrium identity (outage time fraction = 1 - epsilon).

    Immutable after construction; safe to evaluate concurrently at
    arbitrary points with Re(s) >= 0 (small negative real parts are
    tolerated for finite-difference work near the origin).
    """

    def __init__(self, traffic: TrafficModel, outage: OutageModel, epsilon, rate):
        capacity = traffic.capacity
        if not 0.0 < epsilon <= 1.0:
            raise ValueError(f"service probability must be in (0, 1], got {epsilon}")
        _check_finite_positive(rate=rate)
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
        if self.rho_o > 0.0:
            self.beta_o = outage.duration_distribution(self.alpha_o * self.rho_o)
        file_size = traffic.file_size
        self.mean = float(mean_delays(epsilon, rate, self.alpha_s, file_size.mean,
                                      file_size.shape, outage))

    def _stage(self, s):
        if self.beta_o is None:
            return s
        g = busy_root(s, self.beta_o, self.alpha_o)
        return s + (1.0 - g) / self.alpha_o

    def __call__(self, s):
        """The transform where |s|*mean >= 1e-12, else 1 (its value to rounding).
        A scalar s runs as a 1-d array, so it gets an array element's bits."""
        z = np.atleast_1d(s)
        far = ~(np.abs(z) * self.mean < 1e-12)
        out = np.ones(z.shape, np.result_type(z, float))
        out[far] = self._sojourn(z[far])
        return out if np.ndim(s) else out[0]

    def _sojourn(self, s):
        k = self._stage(s)
        lt = self.beta_s.laplace(k)  # transmission-time transform
        if math.isinf(self.alpha_s):  # zero traffic: the alpha_s -> inf limit
            return lt * ((1.0 - self.rho_o) * k / s)
        lw = (
            (1.0 - self.rho_o - self.rho_s)
            * self.alpha_s
            * k
            / (lt + self.alpha_s * s - 1.0)
        )
        return lt * lw


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
