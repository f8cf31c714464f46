"""Planar Poisson-network Monte Carlo: coverage, per-cell contention
counts, and Voronoi cell-size sampling.

Edge effects are handled by excluding a guard margin near the window
boundary rather than wrapping the window, since r^-4 path loss makes the
missing far-field interference negligible for interior points.

Coverage is sampled from its exact law given the positions.  With
unit-mean exponential (Rayleigh) fading on every link, r^-4 path loss and
no noise, a user served by the BS at squared distance d0 has
P(SIR > theta | positions) = prod_{i != serving} 1 / (1 + theta (d0/d_i)^2),
with d_i the squared distances to the other BSs (Andrews, Baccelli and
Ganti, 2011).  Users' links carry disjoint sets of fadings, so given the
positions their coverage events are independent.  A replication therefore
draws one uniform u per user, in user order, after the positions, and a
user is covered when u < exp(-S), with S = sum_i log1p(theta (d0/d_i)^2)
its miss load: the covered indicators have the joint law that drawing the
fading of every link would give them.  The kernel that computes S is
deterministic; it works through the users whose coverage is read in
blocks of ``_CHUNK`` rows, so it costs time in proportion to read users x
BSs and its scratch memory is one (``_CHUNK`` x BS) buffer whatever the
user count.  The PMF reads the covered counts of interior-BS cells and the
counts of the cells holding interior users, and a cell's count needs the
coverage of every user it serves; so it computes S only for the users of
those cells (about 40 % of the users).
"""

import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np
from scipy import stats
from scipy.spatial import Voronoi, cKDTree
from scipy.spatial.distance import cdist

from .. import geometry
from ..errors import _check_finite_positive, _check_integer
from .report import Estimate, SimReport

_CHUNK = 256  # user rows per kernel block, small enough for the cache


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
        _check_finite_positive(window_side=self.window_side, bs_density=self.bs_density,
                               user_density=self.user_density)
        _check_integer(replications=self.replications, seed=self.seed)
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
    """Points of a Poisson process in the window.  The window holds at least
    500 expected BSs, so a BS-free draw has probability below e^-500."""
    n = rng.poisson(density * side * side)
    return rng.uniform(0.0, side, size=(n, 2))


def _interior_mask(points, cfg):
    g = cfg.guard_margin
    hi = cfg.window_side - g
    return np.all((points >= g) & (points <= hi), axis=1)


def _serving_cells(users, bss):
    """Index of each user's serving (nearest) BS."""
    return cKDTree(bss).query(users)[1]


def _miss_load(users, bss, cell, threshold, read=None):
    """Per-user miss load S = sum over the BSs i other than the serving BS
    ``cell`` of log1p(threshold (d0/d_i)^2), d the squared distances, so
    that exp(-S) is the user's coverage probability given the positions.
    Computed only for the rows of the boolean mask ``read`` (all rows by
    default); the others are NaN.  A row's value does not depend on the
    other rows read or on ``_CHUNK``."""
    rows = np.arange(len(users)) if read is None else np.flatnonzero(read)
    load = np.full(len(users), np.nan)
    scratch = np.empty((min(len(rows), _CHUNK), len(bss)))
    root = math.sqrt(threshold)
    for lo in range(0, len(rows), _CHUNK):
        idx = rows[lo:lo + _CHUNK]
        d2 = scratch[:len(idx)]
        cdist(users[idx], bss, "sqeuclidean", out=d2)
        serving = (np.arange(len(idx)), cell[idx])
        near = d2[serving] * root
        d2[serving] = np.inf  # the serving link adds nothing, even at d0 = 0
        # r^-4 path loss squares the ratio of squared distances, and
        # (sqrt(theta) d0 / d_i)^2 <= theta: no overflow for finite theta
        np.divide(near[:, None], d2, out=d2)
        np.square(d2, out=d2)
        np.log1p(d2, out=d2)
        load[idx] = d2.sum(axis=1)
    return load


def _covered(rng, users, bss, cell, threshold, read=None):
    """Covered indicator of each user: one uniform per user, drawn in user
    order, below exp(-S).  Rows outside ``read`` are not covered."""
    u = rng.random(len(users))
    return u < np.exp(-_miss_load(users, bss, cell, threshold, read))


def _check_threshold(threshold):
    if not 0.0 <= threshold < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")


def spatial_coverage(cfg: SpatialSimConfig, threshold) -> SimReport:
    """Estimate P(SIR > threshold) for interior users."""
    _check_threshold(threshold)
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    fractions = []
    total_users = 0
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss = _draw_ppp(rng, cfg.bs_density, cfg.window_side)
        users = _draw_ppp(rng, cfg.user_density, cfg.window_side)
        users = users[_interior_mask(users, cfg)]
        if len(users) == 0:
            continue
        covered = _covered(rng, users, bss, _serving_cells(users, bss), threshold)
        fractions.append(np.mean(covered))
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
    It is not the law of the test oracle ``in_coverage_count_pmf`` (in
    ``tests/conftest.py``), which counts the contenders of a random
    in-coverage user: that user's cell is size biased, so its contender PMF
    is q(k) = (k+1) h(k+1) / sum_j j h(j).

    Also estimates the fair-access probability E[1/K] over in-coverage users
    (K >= 1 counts the user itself), or warns when there is none.
    """
    _check_threshold(threshold)
    report = SimReport(seed=cfg.seed, config={**cfg.echo(), "threshold": threshold})
    per_rep_access = []
    counts = []
    for rep in range(cfg.replications):
        rng = np.random.default_rng([cfg.seed, rep])
        bss = _draw_ppp(rng, cfg.bs_density, cfg.window_side)
        users = _draw_ppp(rng, cfg.user_density, cfg.window_side)
        cell = _serving_cells(users, bss)
        interior_bs = _interior_mask(bss, cfg)
        interior_users = _interior_mask(users, cfg)
        read = interior_bs.copy()
        read[cell[interior_users]] = True
        needed = read[cell]  # users of the cells whose counts are read
        covered = _covered(rng, users, bss, cell, threshold, needed)
        cell_cov = np.bincount(cell[covered], minlength=len(bss))
        counts.append(cell_cov[interior_bs])
        ref_cov = covered & interior_users
        if np.any(ref_cov):
            per_rep_access.append(np.mean(1.0 / cell_cov[cell[ref_cov]]))
    counts = np.concatenate(counts)
    n_samples = len(counts)
    if n_samples == 0:
        raise ValueError(
            f"no interior BS in any of the {cfg.replications} replications, so no "
            "cell count to sample: lower the guard fraction, widen the window "
            "or raise the replication count"
        )
    report.arrays["pmf"] = np.bincount(counts) / n_samples
    if per_rep_access:
        report.add_mean_estimate("access_probability", per_rep_access)
    else:
        report.warnings.append(f"no interior user is covered in any of the "
                               f"{cfg.replications} replications: raise the "
                               "user density or the replication count")
    report.config["n_samples"] = n_samples
    return report


def _bounded_interior_areas(bss, cfg):
    """Areas of cells whose generator lies in the interior sub-window, in
    generator order.

    Conditioning on the generator position (not on the whole cell fitting
    inside the sub-window) keeps the sample unbiased with respect to cell
    size; cells leaking outside the full window are dropped, which is a
    vanishing fraction when the guard clears several BS spacings.
    All cells are summed at once: shoelace cross terms of each vertex with
    the next one of its cell, added up per cell by ``np.add.reduceat``.
    """
    vor = Voronoi(bss)
    regions = [vor.regions[r] for r in vor.point_region[_interior_mask(bss, cfg)]]
    sizes = np.fromiter(map(len, regions), np.intp, len(regions))
    flat = np.fromiter(chain.from_iterable(regions), np.intp, sizes.sum())
    owner = np.repeat(np.arange(len(regions)), sizes)
    verts = vor.vertices[flat]  # a -1 (vertex at infinity) reads a dummy row
    leaks = (flat == -1) | np.any((verts < 0.0) | (verts > cfg.window_side), axis=1)
    keep = (sizes > 0) & (np.bincount(owner, leaks, len(regions)) == 0)
    verts, sizes = verts[keep[owner]], sizes[keep]
    starts = np.cumsum(sizes) - sizes
    following = np.arange(1, len(verts) + 1)
    following[starts + sizes - 1] = starts  # a cell's last vertex wraps to its first
    x, y = verts[:, 0], verts[:, 1]
    cross = x * y[following] - y * x[following]
    return 0.5 * np.abs(np.add.reduceat(cross, starts))


def _weighted_ks(samples, cdf):
    """KS distance from ``cdf`` of ``samples`` each weighted by its own value."""
    order = np.argsort(samples)
    s = samples[order]
    w = s / samples.sum()
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
        bss = _draw_ppp(rng, cfg.bs_density, cfg.window_side)
        areas = _bounded_interior_areas(bss, cfg) * cfg.bs_density
        if len(areas):
            all_areas.append(areas)
            rep_means.append(np.mean(areas))
    if not all_areas:
        raise ValueError(
            f"no bounded interior Voronoi cell in any of the {cfg.replications} "
            "replications: lower the guard fraction, widen the window or raise "
            "the replication count"
        )
    areas = np.concatenate(all_areas)
    a = geometry._A
    typical_law = stats.gamma(a=a, scale=1.0 / a)
    user_law = stats.gamma(a=a + 1.0, scale=1.0 / a)
    ks_typical = stats.kstest(areas, typical_law.cdf).statistic
    ks_user = _weighted_ks(areas, user_law.cdf)
    report.arrays["normalized_areas"] = areas
    report.add_mean_estimate("mean_normalized_area", rep_means)
    report.config["n_cells"] = int(len(areas))
    report.estimates["ks_typical"] = Estimate(float(ks_typical), 0.0, len(areas))
    report.estimates["ks_user_weighted"] = Estimate(float(ks_user), 0.0, len(areas))
    return report

