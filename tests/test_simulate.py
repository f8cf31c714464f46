import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from secnet import geometry
from secnet.queueing import SizeDistribution
from secnet.simulate import (
    QueueSimConfig,
    SpatialSimConfig,
    empirical_cdf,
    empirical_user_count_pmf,
    refit_thinning_const,
    run_priority_queue,
    sample_voronoi_cells,
    spatial_coverage,
)
from secnet.simulate.queue_sim import (
    _AvailabilityClock,
    _busy_periods,
    _busy_time,
    _merged_busy_periods,
    _session_sweep,
)
from secnet.simulate import spatial
from secnet.simulate.spatial import _draw_layers, _serving_cells, _sir


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
    and power per 4096 users, SIR for every user.  The oracle of
    ``spatial._sir`` and ``spatial._serving_cells``."""
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
        assert est.contains(geometry.sinr_ccdf_lim(1.0))
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
        pmf = geometry.in_coverage_count_pmf(2.0 / 3.0 * 0.5 * 5.0, np.arange(200))
        refit = refit_thinning_const(pmf, 5.0, 0.5)
        assert refit == pytest.approx(2.0 / 3.0, abs=0.01)


CHUNK = spatial._CHUNK


class TestSirKernel:
    N_BS = 300

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
    @pytest.mark.parametrize("mask", ["all", "none", "random"])
    def test_matches_dense_oracle(self, n, mask):
        draw = np.random.default_rng(n)
        bss = draw.uniform(0.0, 30.0, size=(self.N_BS, 2))
        users = draw.uniform(0.0, 30.0, size=(n, 2))
        needed = {"all": np.ones(n, bool), "none": np.zeros(n, bool),
                  "random": draw.random(n) < 0.4}[mask]
        ref_rng = np.random.default_rng(7)
        ref_sir, ref_cell = _dense_sinr_and_cells(ref_rng, users, bss)
        rng = np.random.default_rng(7)
        cell = _serving_cells(users, bss)
        sir = _sir(rng, users, bss, cell, needed)
        assert np.array_equal(cell, ref_cell)
        assert np.array_equal(sir[needed], ref_sir[needed])
        assert np.all(np.isnan(sir[~needed]))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if mask == "all":
            rng = np.random.default_rng(7)
            assert np.array_equal(_sir(rng, users, bss, cell), ref_sir)

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
        # 66 MB here, several (4096 x 500) temporaries at once
        n, n_bs = 20_000, 500
        draw = np.random.default_rng(3)
        bss = draw.uniform(0.0, 45.0, size=(n_bs, 2))
        users = draw.uniform(0.0, 45.0, size=(n, 2))
        cell = _serving_cells(users, bss)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            _sir(rng, users, bss, cell)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * spatial._CHUNK * n_bs * 8 + 64 * n


class TestVoronoiCells:
    def test_cell_law_fits(self):
        rep = sample_voronoi_cells(small_spatial(reps=24))
        assert rep.estimates["mean_normalized_area"].contains(1.0)
        assert rep.estimates["ks_typical"].value < 0.05
        assert rep.estimates["ks_user_weighted"].value < 0.05
        assert rep.config["n_cells"] > 2000


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


def small_queue_case():
    """Session and outage streams of a 2000-session run, drawn as
    ``run_priority_queue`` draws them, and the session completions and
    first service starts of the vectorized sweep."""
    cfg = queue_config(n=2000)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.horizon_sessions
    arr_s = np.cumsum(rng.exponential(cfg.session_interarrival_mean, n))
    service = cfg.file_size.sample(rng, n) / cfg.rate
    horizon = arr_s[-1] * 1.02 + 100.0 * cfg.outage_interarrival_mean
    m = int(horizon / cfg.outage_interarrival_mean * 1.2) + 100
    arr_o = np.cumsum(rng.exponential(cfg.outage_interarrival_mean, m))
    dur_o = cfg.outage_duration.sample(rng, m)
    starts, ends = _merged_busy_periods(arr_o, dur_o)
    completions, first_starts = _session_sweep(
        arr_s, service, _AvailabilityClock(starts, ends)
    )
    return arr_s, service, arr_o, dur_o, completions, first_starts


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
