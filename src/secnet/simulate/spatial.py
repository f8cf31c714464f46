"""Planar Poisson-network Monte Carlo: coverage, per-cell contention
counts, and Voronoi cell-size sampling.

Edge effects are handled by excluding a guard margin near the window
boundary rather than wrapping the window, since r^-4 path loss makes the
missing far-field interference negligible for interior points.

The SIR kernel works through the users in blocks of ``_CHUNK`` rows, so
its scratch memory is three (``_CHUNK`` x BS) buffers whatever the user
count.  It draws every user's fading, in user order, whether or not it
computes that user's SIR, so the random stream, and all that is drawn
after the kernel, does not depend on which SIRs are computed.  The PMF
reads the covered counts of interior-BS cells and the counts of the cells
holding interior users, and a cell's count needs the SIR of every user it
serves; so it computes SIR only for the users of those cells (about 40 %
of the users).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import stats
from scipy.spatial import Voronoi, cKDTree
from scipy.spatial.distance import cdist

from .. import geometry
from .report import Estimate, SimReport

_PATH_LOSS_EXPONENT = 4  # fixed; the analytic chain assumes it
_CHUNK = 256  # user rows per SIR block, small enough for the cache


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
    """BS and user point sets.  The window holds at least 500 expected BSs,
    so a BS-free draw has probability below e^-500."""
    bss = _draw_ppp(rng, cfg.bs_density, cfg.window_side)
    return bss, _draw_ppp(rng, cfg.user_density, cfg.window_side)


def _interior_mask(points, cfg):
    g = cfg.guard_margin
    hi = cfg.window_side - g
    return np.all((points >= g) & (points <= hi), axis=1)


def _serving_cells(users, bss):
    """Index of each user's serving (nearest) BS."""
    return cKDTree(bss).query(users)[1]


def _sir(rng, users, bss, cell, needed=None):
    """Per-user SIR: unit-mean exponential fading on every link, r^-4 path
    loss, no noise, served by BS ``cell``.  Computed only for the rows of
    the boolean mask ``needed`` (all rows by default); the others are NaN.
    Every user's fading is drawn, needed or not."""
    n = len(users)
    sir = np.full(n, np.nan)
    rows = min(n, _CHUNK)
    fading, power, work = (np.empty((rows, len(bss))) for _ in range(3))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        fade = rng.standard_exponential(out=fading[: hi - lo])
        idx = np.arange(lo, hi) if needed is None else lo + np.flatnonzero(needed[lo:hi])
        k = len(idx)
        if k == 0:
            continue
        if k < hi - lo:
            # mode "clip" writes into out directly; "raise" buffers
            fade = np.take(fade, idx - lo, axis=0, out=work[:k], mode="clip")
        p = power[:k]
        cdist(users[idx], bss, "sqeuclidean", out=p)
        # not 1/(p*p): that differs in the last bit on about 27 % of links
        np.power(p, -_PATH_LOSS_EXPONENT / 2, out=p)
        np.multiply(fade, p, out=p)
        signal = p[np.arange(k), cell[idx]]
        interference = p.sum(axis=1) - signal
        with np.errstate(divide="ignore"):  # zero interference => SIR = inf
            sir[idx] = signal / interference
    return sir


def spatial_coverage(cfg: SpatialSimConfig, threshold) -> SimReport:
    """Estimate P(SIR > threshold) for interior users."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    fractions = []
    total_users = 0
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss, users = _draw_layers(rng, cfg)
        users = users[_interior_mask(users, cfg)]
        if len(users) == 0:
            continue
        sir = _sir(rng, users, bss, _serving_cells(users, bss))
        fractions.append(np.mean(sir > threshold))
        total_users += len(users)
    if not fractions:
        raise ValueError(
            f"no interior user in any of the {cfg.replications} replications: "
            "raise the user density or the replication count"
        )
    report.add_mean_estimate("coverage", fractions)
    report.config["n_users"] = total_users
    report.arrays["per_replication"] = np.asarray(fractions)
    return report


def empirical_user_count_pmf(cfg: SpatialSimConfig, threshold) -> SimReport:
    """Empirical PMF of the number of in-coverage users per Voronoi cell,
    sampled over interior cells (one count per cell).

    ``arrays["pmf"]`` is this per-cell law h(j), the typical-cell count,
    for j from 0 to the largest count seen.
    It is not the law of ``geometry.in_coverage_count_pmf``, which counts
    the contenders of a random in-coverage user: that user's cell is size
    biased, so its contender PMF is q(k) = (k+1) h(k+1) / sum_j j h(j).

    Also estimates the fair-access probability E[1/K] over in-coverage users
    (K >= 1 counts the user itself), or warns when there is none.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    per_rep_access = []
    counts = []
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss, users = _draw_layers(rng, cfg)
        cell = _serving_cells(users, bss)
        interior_bs = _interior_mask(bss, cfg)
        interior_users = _interior_mask(users, cfg)
        read = interior_bs.copy()
        read[cell[interior_users]] = True
        needed = read[cell]  # users of the cells whose counts are read
        covered = needed & (_sir(rng, users, bss, cell, needed) > threshold)
        cell_cov = np.bincount(cell[covered], minlength=len(bss))
        counts.append(cell_cov[interior_bs])
        ref_cov = covered & interior_users
        if np.any(ref_cov):
            per_rep_access.append(np.mean(1.0 / cell_cov[cell[ref_cov]]))
    counts = np.concatenate(counts)
    n_samples = len(counts)
    report.arrays["pmf"] = np.bincount(counts) / n_samples
    if per_rep_access:
        report.add_mean_estimate("access_probability", per_rep_access)
    else:
        report.warnings.append(f"no interior user is covered in any of the "
                               f"{cfg.replications} replications: raise the "
                               "user density or the replication count")
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
        bss, _ = _draw_layers(rng, cfg)
        areas = _bounded_interior_areas(bss, cfg) * cfg.bs_density
        if len(areas):
            all_areas.append(areas)
            rep_means.append(np.mean(areas))
    areas = np.concatenate(all_areas)
    a = geometry._A
    typical_law = stats.gamma(a=a, scale=1.0 / a)
    user_law = stats.gamma(a=a + 1.0, scale=1.0 / a)
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
        model = geometry.in_coverage_count_pmf(lam * coverage * load, k)
        sse = float(np.sum((model - empirical_pmf) ** 2))
        if best is None or sse < best[1]:
            best = (float(lam), sse)
    return best[0]
