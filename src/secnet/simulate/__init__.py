"""Monte Carlo oracles for the analytic chain."""

from .queue_sim import QueueSimConfig, empirical_cdf, run_priority_queue
from .report import Estimate, SimReport
from .spatial import (
    SpatialSimConfig,
    empirical_user_count_pmf,
    sample_voronoi_cells,
    spatial_coverage,
)

__all__ = [
    "Estimate",
    "QueueSimConfig",
    "SimReport",
    "SpatialSimConfig",
    "empirical_cdf",
    "empirical_user_count_pmf",
    "run_priority_queue",
    "sample_voronoi_cells",
    "spatial_coverage",
]
