"""Planar Poisson-network Monte Carlo: coverage, per-cell contention
counts, and Voronoi cell-size sampling.

Edge effects are handled by excluding a guard margin near the window
boundary rather than wrapping the window, since r^-4 path loss makes the
missing far-field interference negligible for interior points.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats
from scipy.spatial import Voronoi, cKDTree

from .. import geometry
from .report import Estimate, SimReport

_PATH_LOSS_EXPONENT = 4  # fixed; the analytic chain assumes it
_CHUNK = 4096


@dataclass(frozen=True)
class SpatialSimConfig:
    """One observation window of a two-layer (BS + user) Poisson network."""

    window_side: float
    bs_density: float
    user_density: float
    guard_fraction: float = 0.2
    replications: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.window_side <= 0 or self.bs_density <= 0 or self.user_density <= 0:
            raise ValueError("window side and densities must be > 0")
        if not 0.0 < self.guard_fraction < 0.5:
            raise ValueError("guard fraction must be in (0, 0.5)")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.expected_bs_count < 500:
            raise ValueError(
                f"window too small: expected BS count {self.expected_bs_count:.0f} < 500"
            )
        # guard must clear a couple of nearest-neighbor distances
        if self.guard_margin < 2 * 0.5 / math.sqrt(self.bs_density):
            raise ValueError("guard margin below twice the mean BS spacing")

    @property
    def expected_bs_count(self):
        return self.bs_density * self.window_side**2

    @property
    def guard_margin(self):
        return self.guard_fraction * self.window_side

    def echo(self):
        return asdict(self)


def _draw_ppp(rng, density, side):
    n = rng.poisson(density * side * side)
    return rng.uniform(0.0, side, size=(n, 2))


def _draw_layers(rng, cfg):
    """BS and user point sets; degenerate (BS-free) draws are repeated."""
    resamples = 0
    while True:
        bss = _draw_ppp(rng, cfg.bs_density, cfg.window_side)
        if len(bss) > 0:
            break
        resamples += 1
    users = _draw_ppp(rng, cfg.user_density, cfg.window_side)
    return bss, users, resamples


def _interior_mask(points, cfg):
    g = cfg.guard_margin
    hi = cfg.window_side - g
    return np.all((points >= g) & (points <= hi), axis=1)


def _sinr_and_cells(rng, users, bss):
    """Per-user SIR (unit-mean exponential fading on every link, r^-4
    path loss, no noise) and the index of the serving (nearest) BS."""
    tree = cKDTree(bss)
    _, cell = tree.query(users)
    sinr = np.empty(len(users))
    for lo in range(0, len(users), _CHUNK):
        hi = min(lo + _CHUNK, len(users))
        d2 = (
            (users[lo:hi, None, 0] - bss[None, :, 0]) ** 2
            + (users[lo:hi, None, 1] - bss[None, :, 1]) ** 2
        )
        power = rng.exponential(1.0, size=d2.shape) * d2 ** (-_PATH_LOSS_EXPONENT / 2)
        rows = np.arange(lo, hi)
        signal = power[rows - lo, cell[rows]]
        interference = power.sum(axis=1) - signal
        with np.errstate(divide="ignore"):  # zero interference => SIR = inf
            sinr[lo:hi] = signal / interference
    return sinr, cell


def spatial_coverage(cfg: SpatialSimConfig, threshold) -> SimReport:
    """Estimate P(SIR > threshold) for interior users."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    fractions = []
    total_users = 0
    resample_total = 0
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss, users, resamples = _draw_layers(rng, cfg)
        resample_total += resamples
        users = users[_interior_mask(users, cfg)]
        if len(users) == 0:
            continue
        sinr, _ = _sinr_and_cells(rng, users, bss)
        fractions.append(np.mean(sinr > threshold))
        total_users += len(users)
    if resample_total:
        report.warnings.append(f"resampled {resample_total} degenerate BS draws")
    report.add_mean_estimate("coverage", fractions)
    report.config["n_users"] = total_users
    report.arrays["per_replication"] = np.asarray(fractions)
    return report


def empirical_user_count_pmf(cfg: SpatialSimConfig, threshold) -> SimReport:
    """Empirical PMF of the number of in-coverage users per Voronoi cell,
    sampled over interior cells (one count per cell).

    ``arrays["pmf"]`` is this per-cell law h(j), the typical-cell count.
    It is not the law of ``geometry.in_coverage_count_pmf``, which counts
    the contenders of a random in-coverage user: that user's cell is size
    biased, so its contender PMF is q(k) = (k+1) h(k+1) / sum_j j h(j).

    Also estimates the fair-access probability E[1/K] over users that are
    themselves in coverage (K counts the user itself, K >= 1 then).
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    max_k = 512
    per_rep_access = []
    counts_total = np.zeros(max_k + 1)
    n_samples = 0
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss, users, _ = _draw_layers(rng, cfg)
        sinr, cell = _sinr_and_cells(rng, users, bss)
        covered = sinr > threshold
        cell_cov = np.bincount(cell[covered], minlength=len(bss))
        k = np.clip(cell_cov[_interior_mask(bss, cfg)], 0, max_k)
        hist = np.bincount(k, minlength=max_k + 1)
        counts_total += hist
        n_samples += len(k)
        ref_cov = covered & _interior_mask(users, cfg)
        if np.any(ref_cov):
            per_rep_access.append(np.mean(1.0 / cell_cov[cell[ref_cov]]))
    report.arrays["pmf"] = counts_total / n_samples
    if per_rep_access:
        report.add_mean_estimate("access_probability", per_rep_access)
    report.config["n_samples"] = n_samples
    return report


def _shoelace(vertices):
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _bounded_interior_areas(bss, cfg):
    """Areas of cells whose generator lies in the interior sub-window.

    Conditioning on the generator position (not on the whole cell fitting
    inside the sub-window) keeps the sample unbiased with respect to cell
    size; cells leaking outside the full window are dropped, which is a
    vanishing fraction when the guard clears several BS spacings.
    """
    vor = Voronoi(bss)
    interior = _interior_mask(bss, cfg)
    areas = []
    for point_idx in np.nonzero(interior)[0]:
        region = vor.regions[vor.point_region[point_idx]]
        if -1 in region or not region:
            continue
        verts = vor.vertices[region]
        if np.any(verts < 0.0) or np.any(verts > cfg.window_side):
            continue
        areas.append(_shoelace(verts))
    return np.asarray(areas)


def _weighted_ks(samples, weights, cdf):
    order = np.argsort(samples)
    s = samples[order]
    w = weights[order] / weights.sum()
    cum = np.cumsum(w)
    theo = cdf(s)
    upper = np.max(np.abs(cum - theo))
    lower = np.max(np.abs(np.concatenate([[0.0], cum[:-1]]) - theo))
    return max(upper, lower)


def sample_voronoi_cells(cfg: SpatialSimConfig) -> SimReport:
    """Normalized Voronoi cell areas of the BS process, with KS distances
    against the typical-cell and user-weighted (size-biased) laws."""
    report = SimReport(seed=cfg.seed, config=cfg.echo())
    all_areas = []
    rep_means = []
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss, _, _ = _draw_layers(rng, cfg)
        areas = _bounded_interior_areas(bss, cfg) * cfg.bs_density
        if len(areas):
            all_areas.append(areas)
            rep_means.append(np.mean(areas))
    areas = np.concatenate(all_areas)
    typical_law = stats.gamma(a=3.5, scale=1.0 / 3.5)
    user_law = stats.gamma(a=4.5, scale=1.0 / 3.5)
    ks_typical = stats.kstest(areas, typical_law.cdf).statistic
    ks_user = _weighted_ks(areas, areas, user_law.cdf)
    report.arrays["normalized_areas"] = areas
    report.add_mean_estimate("mean_normalized_area", rep_means)
    report.config["n_cells"] = int(len(areas))
    report.estimates["ks_typical"] = Estimate(float(ks_typical), 0.0, len(areas))
    report.estimates["ks_user_weighted"] = Estimate(float(ks_user), 0.0, len(areas))
    return report


def refit_thinning_const(empirical_pmf, load, coverage):
    """Least-squares refit of the thinning constant against an empirical
    contender-count PMF, on a 261-point grid over [0.2, 1.5]."""
    k = np.arange(len(empirical_pmf))
    best = None
    for lam in np.linspace(0.2, 1.5, 261):
        model = geometry.in_coverage_count_pmf(
            geometry.CellLoad(load, coverage, lam), k
        )
        sse = float(np.sum((model - empirical_pmf) ** 2))
        if best is None or sse < best[1]:
            best = (float(lam), sse)
    return best[0]
