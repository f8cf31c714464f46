import pytest

from secnet import BandConfig, OutageModel, Scenario, SizeDistribution, TrafficModel
from secnet import geometry
from secnet.errors import UnstableQueueError


def transmission_time_mean(beta_s_mean, rho_o):
    """Mean span of a session transmission, outage interruptions included:
    the oracle of the span law's mean, beta / (1 - rho_o)."""
    if rho_o >= 1.0:
        raise UnstableQueueError(f"outage fraction {rho_o} >= 1")
    return beta_s_mean / (1.0 - rho_o)


def capacity_limit_fixed_system(setup, rate):
    """Mode-II capacity limit at per-band rate ``rate``, computed directly:
    the N bands split ``setup.band_width``, so a band's coverage at ``rate``
    in width W/N is its coverage at ``rate`` * N in width W.  The oracle of
    the rescaling identity the library's mode-II results rest on."""
    p = geometry.coverage_probability(rate * setup.n_bands, setup.band_width)
    eps_n = geometry.service_probability(
        setup.vacancy, p, setup.load_per_band, setup.thinning
    )
    return rate * (1.0 - (1.0 - eps_n) ** setup.n_bands)


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
):
    bands = tuple(
        BandConfig(bandwidth=bandwidth, vacancy=vacancy, bs_density=bs_density)
        for _ in range(n_bands)
    )
    traffic = TrafficModel(
        session_interarrival, SizeDistribution("exponential", file_mean)
    )
    return Scenario(
        user_density=ratio * bs_density,
        bands=bands,
        target_rate=target_rate,
        traffic=traffic,
        outage=OutageModel(outage_interarrival),
    )


@pytest.fixture
def default_scenario():
    """Five homogeneous bands, user/BS ratio 50, exponential files of mean
    10, outage interarrival 10, demand C = 1 at rate R = 4 (feasible)."""
    return make_scenario()
