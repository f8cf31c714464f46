"""Numerical inversion of Laplace transforms.

Two standard fixed-abscissa methods: Euler summation (``delay_cdf``'s, one
transform call per time point on an array of 2M+1 nodes) and the fixed Talbot contour.
Both work well for the smooth, completely monotone transforms produced by
the queueing module; Talbot is kept as an independent cross-check.
"""

import math
from functools import lru_cache

import numpy as np

_EULER_TERMS = 20


def _euler_coefficients(m):
    """Nodes and weights of the Euler-summation inversion rule."""
    # Binomial-averaged partial sums collapse to a single weighted sum.
    xi = np.ones(2 * m + 1)
    xi[0] = 0.5
    xi[2 * m] = 2.0 ** (-m)
    for k in range(1, m):
        xi[2 * m - k] = xi[2 * m - k + 1] + 2.0 ** (-m) * math.comb(m, k)
    k = np.arange(2 * m + 1)
    eta = (-1.0) ** k * xi
    beta = m * math.log(10.0) / 3.0 + 1j * math.pi * k
    scale = 10.0 ** (m / 3.0)
    return beta, eta, scale


_EULER_BETA, _EULER_ETA, _EULER_SCALE = _euler_coefficients(_EULER_TERMS)


def euler_inversion(transform, t):
    """Invert ``transform`` at the strictly positive times ``t``.

    ``transform`` maps an array of complex s (Re s > 0) to an array of the
    same shape.  The half-order M is ``_EULER_TERMS``; one call per point.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("inversion times must be strictly positive")
    out = np.empty(t.shape)
    for i, ti in np.ndenumerate(t):
        out[i] = _EULER_SCALE / ti * np.dot(_EULER_ETA, transform(_EULER_BETA / ti).real)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _talbot_coefficients(m):
    theta = np.arange(1, m) * math.pi / m
    cot = 1.0 / np.tan(theta)
    delta = np.empty(m, dtype=complex)
    delta[0] = 2.0 * m / 5.0
    delta[1:] = 2.0 * np.pi / 5.0 * np.arange(1, m) * (cot + 1j)
    gamma = np.empty(m, dtype=complex)
    gamma[0] = 0.5 * np.exp(delta[0])
    gamma[1:] = (1.0 + 1j * theta * (1.0 + cot**2) - 1j * cot) * np.exp(delta[1:])
    return delta, gamma


def talbot_inversion(transform, t, terms=32):
    """Fixed-Talbot inversion at strictly positive times ``t``."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("inversion times must be strictly positive")
    delta, gamma = _talbot_coefficients(terms)
    out = np.empty(t.shape)
    for i, ti in np.ndenumerate(t):
        vals = np.array([transform(d / ti) for d in delta])
        out[i] = 0.4 / ti * np.sum((gamma * vals).real)
    return float(out) if out.ndim == 0 else out
