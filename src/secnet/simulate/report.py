"""Structured Monte Carlo results."""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats


@dataclass(frozen=True)
class Estimate:
    value: float
    ci99_half_width: float
    n: int


@dataclass
class SimReport:
    """Point estimates with 99% confidence intervals, plus any auxiliary
    arrays (samples, PMFs, grids), the seed, and an echo of the config."""

    seed: int
    config: dict
    estimates: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def add_mean_estimate(self, name, samples):
        """Mean of i.i.d. replicate estimates with a t-based 99% CI."""
        x = np.asarray(samples, dtype=float)
        n = len(x)
        mean = float(np.mean(x))
        if n > 1:
            half = float(
                stats.t.ppf(0.995, n - 1) * np.std(x, ddof=1) / math.sqrt(n)
            )
        else:
            half = math.inf
        self.estimates[name] = Estimate(mean, half, n)
        return self.estimates[name]
