import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats
from scipy.spatial import Voronoi, cKDTree

from secnet import geometry
from secnet.queueing import SizeDistribution
from secnet.simulate import (
    QueueSimConfig,
    SpatialSimConfig,
    empirical_cdf,
    empirical_user_count_pmf,
    run_priority_queue,
    sample_voronoi_cells,
    spatial_coverage,
)
from secnet.simulate.queue_sim import (
    _busy_fractions,
    _busy_periods,
    _busy_time,
    _fcfs_departures,
    _session_sweep,
)
from secnet.simulate import queue_sim, spatial
from secnet.simulate.spatial import (
    _bounded_interior_areas,
    _covered,
    _miss_load,
    _serving_cells,
)

from conftest import in_coverage_count_pmf, refit_thinning_const


def _reference_delays(arr_s, service, arr_o, dur_o):
    """Plain event-by-event reference implementation (small inputs only).

    Sweeps merged arrival events in time order, always serving pending
    outage work before session work, resuming sessions where they left
    off.  Returns (completions, first_service_starts).
    """
    events = [(t, 0, i) for i, t in enumerate(arr_s)]
    events += [(t, -1, i) for i, t in enumerate(arr_o)]
    events.sort()  # outage before session at equal timestamps
    now = 0.0
    outage_left = []   # FIFO of remaining outage durations
    sessions = []      # FIFO of [index, remaining]
    completions = np.full(len(arr_s), np.nan)
    starts = np.full(len(arr_s), np.nan)

    def advance(until):
        nonlocal now
        while now < until:
            budget = until - now
            if outage_left:
                work = min(budget, outage_left[0])
                outage_left[0] -= work
                now += work
                if outage_left[0] <= 1e-15:
                    outage_left.pop(0)
            elif sessions:
                idx, remaining = sessions[0]
                if np.isnan(starts[idx]):
                    starts[idx] = now
                work = min(budget, remaining)
                sessions[0][1] -= work
                now += work
                if sessions[0][1] <= 1e-15:
                    completions[idx] = now
                    sessions.pop(0)
            else:
                now = until

    for t, kind, i in events:
        advance(t)
        if kind == -1:
            outage_left.append(dur_o[i])
        else:
            sessions.append([i, service[i]])
    while sessions or outage_left:
        advance(now + 1.0)
    return completions, starts


def _dense_sinr_and_cells(rng, users, bss):
    """Dense reference SIR kernel: one (4096 x BS) block of distance, fading
    and power per 4096 users, SIR for every user.  The explicit-fading
    oracle of ``spatial._miss_load``'s conditional law and of
    ``spatial._serving_cells``."""
    chunk = 4096
    tree = cKDTree(bss)
    _, cell = tree.query(users)
    sinr = np.empty(len(users))
    for lo in range(0, len(users), chunk):
        hi = min(lo + chunk, len(users))
        d2 = (
            (users[lo:hi, None, 0] - bss[None, :, 0]) ** 2
            + (users[lo:hi, None, 1] - bss[None, :, 1]) ** 2
        )
        power = rng.exponential(1.0, size=d2.shape) * d2 ** (-4 / 2)
        rows = np.arange(lo, hi)
        signal = power[rows - lo, cell[rows]]
        interference = power.sum(axis=1) - signal
        with np.errstate(divide="ignore"):  # zero interference => SIR = inf
            sinr[lo:hi] = signal / interference
    return sinr, cell


def _reference_interior_areas(bss, cfg):
    """Per-cell shoelace loop: the oracle of
    ``spatial._bounded_interior_areas``."""
    vor = Voronoi(bss)
    interior = spatial._interior_mask(bss, cfg)
    areas = []
    for point_idx in np.nonzero(interior)[0]:
        region = vor.regions[vor.point_region[point_idx]]
        if -1 in region or not region:
            continue
        verts = vor.vertices[region]
        if np.any(verts < 0.0) or np.any(verts > cfg.window_side):
            continue
        x, y = verts[:, 0], verts[:, 1]
        areas.append(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    return np.asarray(areas)


def small_spatial(reps=8, ratio=1.0, seed=0):
    return SpatialSimConfig(
        window_side=30.0, bs_density=1.0, user_density=ratio,
        guard_fraction=0.2, replications=reps, seed=seed,
    )


class TestSpatialConfig:
    def test_window_size_guard(self):
        with pytest.raises(ValueError):
            SpatialSimConfig(10.0, 1.0, 1.0)  # expected BS count 100 < 500
        with pytest.raises(ValueError):
            SpatialSimConfig(500.0, 1.0, 1.0, guard_fraction=0.6)

    def test_echo_round_trip(self):
        cfg = small_spatial()
        echo = cfg.echo()
        assert echo["seed"] == 0
        assert echo["window_side"] == 30.0


class TestSpatialCoverage:
    def test_zero_threshold_certain(self):
        rep = spatial_coverage(small_spatial(reps=2), 0.0)
        assert rep.estimates["coverage"].value == 1.0

    def test_matches_closed_form_within_ci(self):
        rep = spatial_coverage(small_spatial(reps=16), 1.0)
        est = rep.estimates["coverage"]
        assert abs(est.value - geometry.sinr_ccdf_lim(1.0)) <= est.ci99_half_width
        assert est.ci99_half_width < 0.03

    def test_deterministic(self):
        a = spatial_coverage(small_spatial(), 1.0)
        b = spatial_coverage(small_spatial(), 1.0)
        assert a.estimates["coverage"] == b.estimates["coverage"]
        assert np.array_equal(a.arrays["per_replication"],
                              b.arrays["per_replication"])

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            spatial_coverage(small_spatial(reps=1), -1.0)

    def test_no_interior_user_rejected(self):
        cfg = SpatialSimConfig(40.0, 1.0, 1e-6, replications=2)
        with pytest.raises(ValueError, match="no interior user in any of the 2"):
            spatial_coverage(cfg, 1.0)


class TestUserCountPmf:
    def test_pmf_is_a_distribution(self):
        rep = empirical_user_count_pmf(small_spatial(reps=4, ratio=3.0), 1.0)
        pmf = rep.arrays["pmf"]
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= 0.0)
        assert 0.0 < rep.estimates["access_probability"].value <= 1.0

    def test_vanishing_users_degenerate(self):
        rep = empirical_user_count_pmf(small_spatial(reps=2, ratio=1e-3), 1.0)
        assert rep.arrays["pmf"][0] > 0.99

    def test_no_interior_cell_rejected(self):
        # the interior sub-window is 0.6 wide and holds no BS
        cfg = SpatialSimConfig(30.0, 0.6, 1.0, guard_fraction=0.49,
                               replications=1, seed=0)
        with pytest.raises(ValueError, match="no interior BS in any of the 1"):
            empirical_user_count_pmf(cfg, 1.0)

    def test_no_covered_user_is_named(self):
        # the PMF of empty cells stands, and the access estimate it cannot
        # make is named in the warnings instead of dropped without a word
        cfg = SpatialSimConfig(40.0, 1.0, 1e-6, replications=2)
        rep = empirical_user_count_pmf(cfg, 1.0)
        assert rep.estimates == {}
        assert len(rep.warnings) == 1
        assert rep.warnings[0].startswith(
            "no interior user is covered in any of the 2 replications")

    def test_per_cell_mean_is_thinned_user_count(self):
        # averaged over cells, the covered count per cell is exactly the
        # covered-user density over the BS density, with no extra factor
        cfg = small_spatial(reps=24, ratio=3.0)
        rep = empirical_user_count_pmf(cfg, 1.0)
        pmf = rep.arrays["pmf"]
        mean = float(pmf @ np.arange(len(pmf)))
        expected = 3.0 * geometry.sinr_ccdf_lim(1.0)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_pmf_keeps_counts_above_512(self):
        # at ratio 500 about 8 % of interior cells hold more than 512 covered
        # users; each count keeps its own bin, so the PMF runs to the largest
        # count seen and no bin collects a lumped tail (the most likely count
        # holds about 0.3 % of cells under the per-cell law; more than 5 %
        # takes ten or more of the 183 cells here)
        cfg = SpatialSimConfig(math.sqrt(500 / 1e-6), 1e-6, 500e-6, 0.2, 1, 0)
        pmf = empirical_user_count_pmf(cfg, 1.0).arrays["pmf"]
        assert len(pmf) > 513
        assert pmf[-1] > 0.0
        assert pmf.max() <= 0.05

    def test_refit_recovers_model_constant(self):
        # feed the refitter a PMF generated by the model itself
        pmf = in_coverage_count_pmf(2.0 / 3.0 * 0.5 * 5.0, np.arange(200))
        refit = refit_thinning_const(pmf, 5.0, 0.5)
        assert refit == pytest.approx(2.0 / 3.0, abs=0.01)


CHUNK = spatial._CHUNK


def _reference_miss_load(users, bss, cell, threshold):
    """Dense per-user loop, every BS link of one user at a time and a
    correctly rounded sum: the oracle of ``spatial._miss_load``."""
    load = np.empty(len(users))
    for j, user in enumerate(users):
        d2 = ((bss - user) ** 2).sum(axis=1)
        others = np.delete(d2, cell[j])
        load[j] = math.fsum(np.log1p(threshold * (d2[cell[j]] / others) ** 2))
    return load


class TestSirKernel:
    """``spatial._miss_load``, the kernel of the SIR coverage law: exp(-S)
    is a user's coverage probability given the positions."""

    N_BS = 300

    @staticmethod
    def layout(n, n_bs, seed, side=30.0):
        draw = np.random.default_rng(seed)
        bss = draw.uniform(0.0, side, size=(n_bs, 2))
        users = draw.uniform(0.0, side, size=(n, 2))
        return users, bss, _serving_cells(users, bss)

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("mask", ["all", "none", "random"])
    def test_matches_dense_oracle(self, n, mask):
        users, bss, cell = self.layout(n, self.N_BS, n)
        read = {"all": np.ones(n, bool), "none": np.zeros(n, bool),
                "random": np.random.default_rng(n + 1).random(n) < 0.4}[mask]
        load = _miss_load(users, bss, cell, 1.0, read)
        ref = _reference_miss_load(users[read], bss, cell[read], 1.0)
        np.testing.assert_allclose(load[read], ref, rtol=1e-12, atol=0.0)
        assert np.all(np.isnan(load[~read]))
        # a row's bits do not depend on which other rows are read
        assert np.array_equal(load[read], _miss_load(users, bss, cell, 1.0)[read])

    def test_huge_threshold_matches_oracle(self):
        users, bss, cell = self.layout(50, self.N_BS, 5)
        load = _miss_load(users, bss, cell, 1e300)
        np.testing.assert_allclose(
            load, _reference_miss_load(users, bss, cell, 1e300), rtol=1e-12, atol=0.0)

    def test_covered_frequency_is_exp_minus_load(self):
        # the explicit-fading oracle and the sampler, redrawn on fixed
        # positions: each user's covered frequency under either lies in the
        # binomial 99.9 % band of the conditional law exp(-S)
        users, bss, _ = self.layout(20, self.N_BS, 11)
        users = 10.0 + users / 3.0  # clear of the window edge
        cell = _serving_cells(users, bss)
        p = np.exp(-_miss_load(users, bss, cell, 1.0))
        assert p.min() < 0.2 and p.max() > 0.8  # the band is tested across (0, 1)
        draws = 4000
        rng = np.random.default_rng(12)
        fading_hits, sampled_hits = np.zeros(len(users)), np.zeros(len(users))
        for _ in range(draws):
            sinr, ref_cell = _dense_sinr_and_cells(rng, users, bss)
            fading_hits += sinr > 1.0
            sampled_hits += _covered(rng, users, bss, cell, 1.0)
        assert np.array_equal(cell, ref_cell)
        lo, hi = stats.binom.interval(0.999, draws, p)
        for hits in (fading_hits, sampled_hits):
            assert np.all((lo <= hits) & (hits <= hi))

    def test_covered_depends_only_on_own_uniform(self):
        # one uniform per user whatever is read: a masked draw is the full
        # draw restricted to the mask, and the stream ends at the same state
        users, bss, cell = self.layout(600, self.N_BS, 4)
        read = np.random.default_rng(9).random(600) < 0.4
        full_rng, part_rng = np.random.default_rng(2), np.random.default_rng(2)
        full = _covered(full_rng, users, bss, cell, 1.0)
        part = _covered(part_rng, users, bss, cell, 1.0, read)
        assert np.array_equal(part, full & read)
        assert full_rng.bit_generator.state == part_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunk_invariance(self, monkeypatch, chunk):
        cov_cfg, pmf_cfg = small_spatial(reps=2), small_spatial(reps=2, ratio=2.0)
        base = [spatial_coverage(cov_cfg, 1.0), empirical_user_count_pmf(pmf_cfg, 1.0)]
        monkeypatch.setattr(spatial, "_CHUNK", chunk)
        other = [spatial_coverage(cov_cfg, 1.0), empirical_user_count_pmf(pmf_cfg, 1.0)]
        for a, b in zip(base, other):
            assert a.estimates == b.estimates
            assert a.config == b.config
            assert a.arrays.keys() == b.arrays.keys()
            for key in a.arrays:
                assert np.array_equal(a.arrays[key], b.arrays[key])

    def test_scratch_memory_is_blocked(self):
        # numpy reports its buffers to tracemalloc; the dense kernel needed
        # 66 MB here, several (4096 x 500) temporaries at once, and the
        # kernel needs less than two (CHUNK x 500) blocks
        n, n_bs = 20_000, 500
        users, bss, cell = self.layout(n, n_bs, 3, side=45.0)
        tracemalloc.start()
        try:
            _miss_load(users, bss, cell, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * spatial._CHUNK * n_bs * 8 + 64 * n

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1e300])
    def test_user_on_a_bs_is_covered_without_warning(self, threshold):
        users, bss, _ = self.layout(40, self.N_BS, 8)
        users = np.vstack([users, bss[:3]])  # three users exactly on a BS
        cell = _serving_cells(users, bss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load = _miss_load(users, bss, cell, threshold)
            covered = _covered(np.random.default_rng(1), users, bss, cell, threshold)
        assert np.all(np.isfinite(load))
        assert np.all(load[-3:] == 0.0) and np.all(covered[-3:])
        if threshold == 0.0:  # every user covered with certainty
            assert np.all(load == 0.0) and np.all(covered)


class TestVoronoiCells:
    def test_cell_law_fits(self):
        rep = sample_voronoi_cells(small_spatial(reps=24))
        est = rep.estimates["mean_normalized_area"]
        assert abs(est.value - 1.0) <= est.ci99_half_width
        assert rep.estimates["ks_typical"].value < 0.05
        assert rep.estimates["ks_user_weighted"].value < 0.05
        assert rep.config["n_cells"] > 2000

    def test_no_bounded_interior_cell_rejected(self):
        cfg = SpatialSimConfig(30.0, 0.6, 1.0, guard_fraction=0.49,
                               replications=1, seed=0)
        with pytest.raises(ValueError,
                           match="no bounded interior Voronoi cell in any of the 1"):
            sample_voronoi_cells(cfg)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("guard", [0.0, 0.5, 3.0])
    def test_areas_match_per_cell_oracle(self, seed, guard):
        # guard 0 keeps the hull's unbounded cells and the cells leaking out
        # of the window among the interior ones, for the one pass to drop
        draw = np.random.default_rng(seed)
        side = draw.uniform(5.0, 40.0)
        bss = draw.uniform(0.0, side, size=(draw.integers(20, 600), 2))
        cfg = SimpleNamespace(window_side=side, guard_margin=guard)
        ref = _reference_interior_areas(bss, cfg)
        areas = _bounded_interior_areas(bss, cfg)
        assert len(ref) > 0
        assert areas.shape == ref.shape
        assert np.allclose(areas, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_bs, guard", [(3, 0.0), (200, 5.0)])
    def test_areas_empty(self, n_bs, guard):
        # three points have only unbounded cells; a guard of half the window
        # leaves no interior generator
        bss = np.random.default_rng(1).uniform(0.0, 10.0, size=(n_bs, 2))
        cfg = SimpleNamespace(window_side=10.0, guard_margin=guard)
        assert len(_reference_interior_areas(bss, cfg)) == 0
        areas = _bounded_interior_areas(bss, cfg)
        assert areas.shape == (0,)


def queue_config(rho_s=0.2, rho_o=0.3, alpha_o=0.5, n=100_000, seed=0,
                 file_shape=1.0, outage_shape=1.0):
    family = "exponential" if file_shape == 1.0 else "gamma"
    ofamily = "exponential" if outage_shape == 1.0 else "gamma"
    return QueueSimConfig(
        session_interarrival_mean=1.0 / rho_s,
        outage_interarrival_mean=alpha_o,
        file_size=SizeDistribution(family, 1.0, file_shape),
        outage_duration=SizeDistribution(ofamily, rho_o * alpha_o, outage_shape),
        rate=1.0,
        horizon_sessions=n,
        seed=seed,
    )


def sweep(arr_s, service, arr_o, dur_o):
    """Session completions and first service starts of the vectorized sweep
    on an outage stream that leads with the empty outage at 0, ended by an
    empty outage at the largest float, before which every session returns
    (inf would make the sweep subtract inf from inf)."""
    arr_o = np.append(arr_o, np.finfo(float).max)
    dur_o = np.append(dur_o, 0.0)
    frees, _ = _fcfs_departures(arr_o, dur_o)
    return _session_sweep(arr_s, service, [_busy_periods(arr_o, frees)])


def queue_case(cfg):
    """Session and outage streams of a run, drawn as ``run_priority_queue``
    draws them, the session completions and first service starts of the
    vectorized sweep, and the number of sweeps: the outage stream starts
    with about 1.1 times the sessions' arrival span, and while a completion
    lies past its last outage it is drawn twice as long, in one running
    sum, and the sweep of the whole stream is computed afresh."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.horizon_sessions
    arr_s = np.cumsum(rng.exponential(cfg.session_interarrival_mean, n))
    service = cfg.file_size.sample(rng, n) / cfg.rate
    gaps, durations = rng.spawn(2)
    arr_o = dur_o = np.zeros(1)
    m = int(1.1 * arr_s[-1] / cfg.outage_interarrival_mean)
    sweeps = 0
    while True:
        more = gaps.exponential(cfg.outage_interarrival_mean, m)
        more[0] += arr_o[-1]
        arr_o = np.concatenate([arr_o, np.cumsum(more)])
        dur_o = np.concatenate([dur_o, cfg.outage_duration.sample(durations, m)])
        completions, first_starts = sweep(arr_s, service, arr_o, dur_o)
        sweeps += 1
        if completions[-1] <= arr_o[-1]:
            return arr_s, service, arr_o, dur_o, completions, first_starts, sweeps
        m = len(arr_o)


def small_queue_case():
    """``queue_case`` of a 2000-session run, which one sweep covers,
    without its sweep count."""
    return queue_case(queue_config(n=2000))[:6]


def assert_draws_as_run_priority_queue(cfg, arr_s, completions, first_starts):
    rep = run_priority_queue(cfg)
    k0 = cfg.horizon_sessions - rep.config["n_kept"]
    assert np.array_equal((completions - arr_s)[k0:], rep.arrays["delays"])
    assert np.array_equal((completions - first_starts)[k0:], rep.arrays["spans"])


# rho_s + rho_o = 1.2: the last session completes at 1.23 times the last
# arrival time, so the run draws outages well past the sessions' arrival span
EXTENDED = queue_config(rho_s=0.9, rho_o=0.3, n=5000, seed=0)
# unstable runs whose last completion lies at 1.23, 2.9 and 20 times the last
# arrival time, which ``queue_case`` covers in 2, 3 and 6 sweeps
UNSTABLE = {
    "rho_s-0.9-rho_o-0.3": EXTENDED,
    "rho_s-0.3-rho_o-0.9": queue_config(rho_s=0.3, rho_o=0.9, n=5000, seed=0),
    "rho_s-0.2-rho_o-0.99": queue_config(rho_s=0.2, rho_o=0.99, n=5000, seed=0),
}


# (arrivals, services, outage arrivals, outage durations) on dyadic times,
# so that every sum is exact; each outage stream leads with the empty outage
BOUNDARY_STREAMS = {
    "arrival-before-first-outage": ([0.5, 0.75], [0.25, 1.0], [0.0, 1.0], [0.0, 0.5]),
    "arrival-inside-busy-period": ([1.5], [0.5], [0.0, 1.0], [0.0, 2.0]),
    "arrival-at-busy-start": ([1.0], [0.5], [0.0, 1.0], [0.0, 1.0]),
    "completion-at-busy-start": ([0.5, 0.75], [0.5, 0.25], [0.0, 1.0], [0.0, 1.0]),
    # the service rounds away next to the availability 5e4 at arrival, so the
    # clock's inverse alone would complete the session at the busy start 5e4
    "service-below-clock-ulp": ([5e4 + 1], [2.0 ** -40], [0.0, 5e4], [0.0, 2.0]),
    # a session after one whose service rounds away: arriving inside the
    # period the first waited in, arriving after it, and after two such
    "after-clamp-arrival-inside": ([5e4 + 1, 5e4 + 1.5], [2.0 ** -40, 0.5],
                                   [0.0, 5e4], [0.0, 2.0]),
    "after-clamp-arrival-after": ([5e4 + 1, 5e4 + 3], [2.0 ** -40, 0.5],
                                  [0.0, 5e4], [0.0, 2.0]),
    "after-two-clamps": ([5e4 + 1, 5e4 + 1.5, 5e4 + 1.75], [2.0 ** -40] * 2 + [0.5],
                         [0.0, 5e4], [0.0, 2.0]),
    # an outage arriving as the busy period ends goes on with it
    "outage-at-busy-end": ([5e4 + 1], [0.5], [0.0, 5e4, 5e4 + 2], [0.0, 2.0, 1.0]),
    "clamp-before-outage-at-busy-end": ([5e4 + 1], [2.0 ** -40],
                                        [0.0, 5e4, 5e4 + 2], [0.0, 2.0, 1.0]),
}


def interval_union_length(starts, ends, lo, hi):
    """Measure of the union of [starts_i, ends_i] inside [lo, hi], by
    merging the intervals one at a time."""
    merged = []
    for a, b in sorted(zip(starts, ends)):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return float(np.sum([min(max(b, lo), hi) - min(max(a, lo), hi)
                         for a, b in merged]))


class TestQueueSim:
    def test_matches_event_loop_reference_exactly(self):
        arr_s, service, arr_o, dur_o, completions, first_starts = (
            small_queue_case()
        )
        ref_completions, ref_starts = _reference_delays(arr_s, service, arr_o, dur_o)
        assert np.allclose(completions, ref_completions, rtol=0, atol=1e-8)
        assert np.allclose(first_starts, ref_starts, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("streams", BOUNDARY_STREAMS.values(),
                             ids=BOUNDARY_STREAMS.keys())
    def test_matches_reference_at_busy_period_boundaries(self, streams):
        streams = [np.array(x) for x in streams]
        completions, first_starts = sweep(*streams)
        ref_completions, ref_starts = _reference_delays(*streams)
        assert np.array_equal(completions, ref_completions)
        assert np.array_equal(first_starts, ref_starts)

    def test_small_case_draws_as_run_priority_queue(self):
        arr_s, _, _, _, completions, first_starts = small_queue_case()
        assert_draws_as_run_priority_queue(
            queue_config(n=2000), arr_s, completions, first_starts)

    @pytest.mark.parametrize("cfg", UNSTABLE.values(), ids=UNSTABLE.keys())
    def test_extended_outage_stream_matches_whole_stream_recompute(self, cfg):
        # the run goes on from the carried outage state (last arrival, work
        # sum, running maximum, open busy period); sweeping the whole longer
        # stream afresh must give the same bits
        arr_s, _, _, _, completions, first_starts, sweeps = queue_case(cfg)
        assert sweeps > 1
        assert_draws_as_run_priority_queue(cfg, arr_s, completions, first_starts)

    @pytest.mark.parametrize("cfg", UNSTABLE.values(), ids=UNSTABLE.keys())
    def test_one_sweep_per_run(self, monkeypatch, cfg):
        # the sweep draws outages until the last session returns, with no
        # second sweep on a longer stream
        calls = []

        def counted(*args):
            calls.append(None)
            return _session_sweep(*args)

        monkeypatch.setattr(queue_sim, "_session_sweep", counted)
        run_priority_queue(cfg)
        assert len(calls) == 1

    def test_stream_ending_before_the_last_return_raises(self):
        # no terminal period: the last outage's period may still grow, so
        # the session arriving after it never returns to real time
        arr_o, dur_o = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        frees, _ = _fcfs_departures(arr_o, dur_o)
        with pytest.raises(ValueError, match="1 of 2 sessions unreturned"):
            _session_sweep(np.array([0.5, 3.0]), np.array([0.25, 1.0]),
                           [_busy_periods(arr_o, frees)])

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_block_invariance(self, monkeypatch, block):
        cfgs = [queue_config(n=2000), EXTENDED,
                queue_config(n=2000, outage_shape=0.5),
                queue_config(n=2000, outage_shape=3.0)]
        base = [run_priority_queue(cfg) for cfg in cfgs]
        monkeypatch.setattr(queue_sim, "_BLOCK", block)
        for a, b in zip(base, map(run_priority_queue, cfgs)):
            assert a.estimates == b.estimates
            assert a.config == b.config
            assert a.warnings == b.warnings
            for key in ("delays", "spans"):
                assert np.array_equal(a.arrays[key], b.arrays[key])
        if block == 1:  # one session a block still sweeps as the event loop
            for streams in BOUNDARY_STREAMS.values():
                streams = [np.array(x) for x in streams]
                for got, ref in zip(sweep(*streams), _reference_delays(*streams)):
                    assert np.array_equal(got, ref)
            arr_s, service, arr_o, dur_o, *got = small_queue_case()
            ref = _reference_delays(arr_s, service, arr_o, dur_o)
            for x, y in zip(got, ref):
                assert np.allclose(x, y, rtol=0, atol=1e-8)

    def test_working_set_is_blocked(self):
        # the run holds its inputs (arrival and service times), its outputs
        # (completions, spans, delays) and a few blocks of outages, busy
        # periods and sessions.  First case: m, about 1.6e6 outages,
        # outnumber the n = 2e5 sessions 8 to 1; whole-stream temporaries of
        # the outage FCFS recursion and busy periods took about 6 m floats.
        # Second case, 12 to 1, bounded with no term in m: a run holding its
        # whole outage stream or all its busy periods took 5 n + 400 blocks
        # of floats
        frequent = QueueSimConfig(
            session_interarrival_mean=0.2, outage_interarrival_mean=0.02,
            file_size=SizeDistribution("exponential", 0.06),
            outage_duration=SizeDistribution("exponential", 0.006),
            rate=1.0, horizon_sessions=200_000, seed=2)
        for cfg, floats_per_outage in [
            (queue_config(rho_s=0.3, rho_o=0.3, alpha_o=0.5, n=200_000, seed=2), 4),
            (frequent, 0),
        ]:
            n = cfg.horizon_sessions
            m = 1.25 * n * cfg.session_interarrival_mean / cfg.outage_interarrival_mean
            tracemalloc.start()
            try:
                run_priority_queue(cfg)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * (5 * n + floats_per_outage * m + 16 * queue_sim._BLOCK)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the 1e-9 service accounting check is absolute, and from an "
        "availability clock of 2**22 on one ulp of it is 1.9e-9"))
    def test_long_run_passes_the_accounting_check(self):
        # 1e6 sessions at rho_s 0.25 and rho_o 0.3: the clock passes 4.2e6
        # about 60 % of the way through the sessions
        cfg = QueueSimConfig(
            session_interarrival_mean=10.0, outage_interarrival_mean=10.0,
            file_size=SizeDistribution("exponential", 2.5),
            outage_duration=SizeDistribution("exponential", 3.0),
            rate=1.0, horizon_sessions=1_000_000, seed=0)
        run_priority_queue(cfg)

    def test_busy_time_is_interval_union_measure(self):
        arr_s, _, _, _, completions, _ = small_queue_case()
        edges = np.linspace(arr_s[200], completions[-1], 21)
        windows = list(zip(edges[:-1], edges[1:]))
        windows.append((0.0, completions[-1] + 1.0))
        busy = _busy_periods(arr_s, completions)
        for lo, hi in windows:
            assert _busy_time(*busy, lo, hi) == interval_union_length(
                arr_s, completions, lo, hi
            )

    def test_windowed_busy_fractions_clip_only_overlapping_periods(self):
        arr_s, _, _, _, completions, _ = small_queue_case()
        busy = _busy_periods(arr_s, completions)
        edges = np.linspace(arr_s[200], completions[-1], 21)
        # windows on busy-period boundaries, and one past the last period
        edges = np.concatenate([edges, busy[0][[-3]], busy[1][[-2]],
                                [completions[-1] + 1.0]])
        edges.sort()
        expected = [_busy_time(*busy, lo, hi) / (hi - lo)
                    for lo, hi in zip(edges[:-1], edges[1:])]
        assert np.allclose(_busy_fractions(*busy, edges), expected,
                           rtol=1e-14, atol=0.0)

    def test_no_outage_mm1_sojourn(self):
        cfg = QueueSimConfig(
            session_interarrival_mean=2.5,  # rho_s = 0.4
            outage_interarrival_mean=1e9,
            file_size=SizeDistribution("exponential", 1.0),
            outage_duration=SizeDistribution("exponential", 1e-12),
            rate=1.0,
            horizon_sessions=400_000,
            seed=3,
        )
        rep = run_priority_queue(cfg)
        expected = 1.0 / (1.0 - 0.4)
        assert rep.estimates["mean_delay"].value == pytest.approx(expected, rel=0.01)

    def test_busy_fraction_frequent_outage_regime(self):
        # the busy-fraction identity rho_s/(1 - rho_o) holds in the
        # frequent-outage limit (outage interarrival << session interarrival)
        cfg = queue_config(rho_s=0.3, rho_o=0.3, alpha_o=0.02, n=300_000, seed=1)
        rep = run_priority_queue(cfg)
        assert rep.estimates["busy_fraction"].value == pytest.approx(
            0.3 / 0.7, rel=0.01
        )

    def test_mean_span_matches_interruption_formula(self):
        cfg = queue_config(rho_s=0.2, rho_o=0.3, alpha_o=0.05, n=200_000, seed=5)
        rep = run_priority_queue(cfg)
        assert rep.estimates["mean_span"].value == pytest.approx(
            1.0 / 0.7, rel=0.02
        )

    def test_sanity_invariants(self):
        cfg = queue_config(n=20_000)
        rep = run_priority_queue(cfg)
        delays = rep.arrays["delays"]
        spans = rep.arrays["spans"]
        assert np.all(delays > 0)
        assert np.all(spans <= delays + 1e-12)
        assert rep.config["n_kept"] == 18_000
        for est in rep.estimates.values():
            assert math.isfinite(est.ci99_half_width)

    def test_deterministic(self):
        a = run_priority_queue(queue_config(n=20_000))
        b = run_priority_queue(queue_config(n=20_000))
        assert np.array_equal(a.arrays["delays"], b.arrays["delays"])
        assert a.estimates["mean_delay"] == b.estimates["mean_delay"]

    def test_unstable_load_flagged(self):
        cfg = queue_config(rho_s=0.8, rho_o=0.3, n=5_000)
        rep = run_priority_queue(cfg)
        assert any("unstable" in w for w in rep.warnings)

    def test_gamma_distributions_run(self):
        cfg = queue_config(n=20_000, file_shape=2.0, outage_shape=3.0)
        rep = run_priority_queue(cfg)
        assert rep.estimates["mean_delay"].value > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            queue_config(n=0)
        with pytest.raises(ValueError):
            QueueSimConfig(
                session_interarrival_mean=1.0,
                outage_interarrival_mean=1.0,
                file_size=SizeDistribution("exponential", 1.0),
                outage_duration=SizeDistribution("exponential", 0.1),
                rate=-1.0,
            )

    @pytest.mark.parametrize("rho_o", [1.0, 1.5])
    def test_outage_load_must_be_below_one(self, rho_o):
        # the outage class alone would never empty, so no run could end
        with pytest.raises(ValueError, match="rho_o"):
            queue_config(rho_o=rho_o, alpha_o=1.0, n=1_000)
        assert queue_config(rho_o=0.999, alpha_o=1.0, n=1_000).rho_o < 1.0

    def test_horizon_must_fill_every_batch(self):
        # 21 sessions keep 19 after the 10 % warm-up, one short of 20 batches
        with pytest.raises(ValueError):
            queue_config(n=21)
        rep = run_priority_queue(queue_config(n=22))
        assert rep.config["n_kept"] == QueueSimConfig.n_batches
        for name in ("mean_delay", "mean_span", "busy_fraction"):
            assert math.isfinite(rep.estimates[name].value)


class TestEmpiricalHelpers:
    def test_empirical_cdf(self):
        samples = np.array([1.0, 2.0, 3.0])
        grid = np.array([0.5, 1.0, 2.5, 5.0])
        assert np.allclose(empirical_cdf(samples, grid),
                           [0.0, 1 / 3, 2 / 3, 1.0])



@pytest.mark.parametrize("sim, field, value", [
    ("queue", "rate", math.nan),
    ("queue", "rate", math.inf),
    ("queue", "session_interarrival_mean", math.inf),
    ("queue", "session_interarrival_mean", math.nan),
    ("queue", "outage_interarrival_mean", math.inf),
    ("queue", "outage_interarrival_mean", math.nan),
    ("coverage", "window_side", math.nan),
    ("coverage", "bs_density", math.nan),
    ("coverage", "bs_density", math.inf),
    ("coverage", "user_density", math.nan),
    ("coverage", "user_density", math.inf),
    ("coverage", "threshold", math.nan),
    ("coverage", "threshold", math.inf),
    ("pmf", "threshold", math.nan),
])
def test_non_finite_input_names_the_field(sim, field, value):
    # a NaN or inf simulator input is a ValueError naming its field, not an
    # internal assertion, an overflow, a warning or a silent estimate
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        if sim == "queue":
            run_priority_queue(replace(queue_config(n=2_000), **{field: value}))
        elif field == "threshold":
            run = spatial_coverage if sim == "coverage" else empirical_user_count_pmf
            run(small_spatial(reps=1), value)
        else:
            spatial_coverage(replace(small_spatial(reps=1), **{field: value}), 1.0)


@pytest.mark.parametrize("sim, field, value", [
    ("queue", "horizon_sessions", 2000.0),
    ("queue", "horizon_sessions", True),
    ("queue", "seed", 1.5),
    ("queue", "seed", -1),
    ("queue", "seed", np.int64(-1)),
    ("coverage", "replications", 2.0),
    ("coverage", "seed", -1),
])
def test_non_integer_input_names_the_field(sim, field, value):
    # a count or seed that is no integer >= 0 is a ValueError naming its
    # field, not an error from numpy or range, or a bool taken as 1
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0"):
        if sim == "queue":
            run_priority_queue(replace(queue_config(n=2_000), **{field: value}))
        else:
            spatial_coverage(replace(small_spatial(reps=1), **{field: value}), 1.0)
    if sim == "queue":  # numpy's integers are integers
        cfg = replace(queue_config(n=2_000), **{field: np.int64(2_000)})
        assert cfg.echo()[field] == 2_000
