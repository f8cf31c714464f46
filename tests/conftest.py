import math

import numpy as np
import pytest
from scipy.special import gammaln

from secnet import BandConfig, OutageModel, Scenario, SizeDistribution, TrafficModel
from secnet import geometry
from secnet.errors import UnstableQueueError


def transmission_time_mean(beta_s_mean, rho_o):
    """Mean span of a session transmission, outage interruptions included:
    the oracle of the span law's mean, beta / (1 - rho_o)."""
    if rho_o >= 1.0:
        raise UnstableQueueError(f"outage fraction {rho_o} >= 1")
    return beta_s_mean / (1.0 - rho_o)


def second_moment(dist):
    """E[X^2] of a ``SizeDistribution``, mean^2 (shape + 1) / shape: the
    oracle of the P-K means' second moments."""
    return dist.mean**2 * (dist.shape + 1.0) / dist.shape


def transmission_transform(handle, s):
    """Transform of the transmission span alone (arrival-to-service wait
    excluded) of the ``DelayTransform`` ``handle``: the file's transform at
    the busy-period stage, and 1 where |s|*mean < 1e-12, as the sojourn
    transform is cut there.  A scalar s runs as a 1-d array."""
    z = np.atleast_1d(s)
    far = ~(np.abs(z) * handle.mean < 1e-12)
    out = np.ones(z.shape, np.result_type(z, float))
    out[far] = handle.beta_s.laplace(handle._stage(z[far]))
    return out if np.ndim(s) else out[0]


def capacity_limit_fixed_system(scenario, rate):
    """Mode-II capacity limit at per-band rate ``rate`` of a scenario of N
    identical bands, computed directly: the N bands split the band's width
    W, so a band's coverage at ``rate`` in width W/N is its coverage at
    ``rate`` * N in width W.  The oracle of the rescaling identity the
    library's mode-II results rest on."""
    band, n = scenario.bands[0], len(scenario.bands)
    p = geometry.coverage_probability(rate * n, band.bandwidth)
    eps_n = geometry.service_probability(
        band.vacancy, p, scenario.user_density / (band.bs_density * n),
        scenario.thinning,
    )
    return rate * (1.0 - (1.0 - eps_n) ** n)


def in_coverage_count_pmf(contention, k):
    """PMF of the number of in-coverage contenders in the cell of a random
    user, mixing a Poisson count over the size-biased cell law: the law
    ``geometry.access_probability`` averages 1/(K+1) over, and the model the
    spatial oracle's contender counts are checked against.

    ``contention`` is the mixture's mean-measure parameter c, thinning times
    coverage times the user/BS load of the band.  Vectorized over ``k``.
    """
    if contention < 0:
        raise ValueError(f"contention must be >= 0, got {contention}")
    k = np.asarray(k)
    if np.any(k < 0) or not np.issubdtype(k.dtype, np.integer):
        raise ValueError("k must be a nonnegative integer")
    if contention == 0.0:
        out = np.where(k == 0, 1.0, 0.0)
        return float(out) if out.ndim == 0 else out
    a, kf = geometry._A, k.astype(float)
    log_pmf = (
        (a + 1.0) * math.log(a)
        + gammaln(a + 1.0 + kf)
        - gammaln(a + 1.0)
        - gammaln(kf + 1.0)
        + kf * math.log(contention)
        - (a + 1.0 + kf) * math.log(a + contention)
    )
    out = np.exp(log_pmf)
    return float(out) if out.ndim == 0 else out


def refit_thinning_const(empirical_pmf, load, coverage):
    """Least-squares refit of the thinning constant of
    ``in_coverage_count_pmf`` against an empirical contender-count PMF, on a
    261-point grid over [0.2, 1.5]."""
    k = np.arange(len(empirical_pmf))
    best = None
    for lam in np.linspace(0.2, 1.5, 261):
        model = in_coverage_count_pmf(lam * coverage * load, k)
        sse = float(np.sum((model - empirical_pmf) ** 2))
        if best is None or sse < best[1]:
            best = (float(lam), sse)
    return best[0]


def make_scenario(
    n_bands=5,
    ratio=50.0,
    target_rate=4.0,
    file_mean=10.0,
    session_interarrival=10.0,
    outage_interarrival=10.0,
    bs_density=1.0,
    vacancy=1.0,
    bandwidth=1.0,
    thinning=geometry.DEFAULT_THINNING,
):
    bands = (BandConfig(bandwidth=bandwidth, vacancy=vacancy,
                        bs_density=bs_density),) * n_bands
    traffic = TrafficModel(
        session_interarrival, SizeDistribution("exponential", file_mean)
    )
    return Scenario(
        user_density=ratio * bs_density,
        bands=bands,
        target_rate=target_rate,
        traffic=traffic,
        outage=OutageModel(outage_interarrival),
        thinning=thinning,
    )


@pytest.fixture
def default_scenario():
    """Five homogeneous bands, user/BS ratio 50, exponential files of mean
    10, outage interarrival 10, demand C = 1 at rate R = 4 (feasible)."""
    return make_scenario()
