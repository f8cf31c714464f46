import math

import numpy as np
import pytest
from scipy import stats

from secnet import geometry
from secnet.queueing import SizeDistribution
from secnet.simulate import (
    QueueSimConfig,
    SpatialSimConfig,
    empirical_cdf,
    empirical_user_count_pmf,
    ks_distance,
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
from secnet.simulate.spatial import _draw_layers


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

    def test_per_cell_mean_is_thinned_user_count(self):
        # averaged over cells, the covered count per cell is exactly the
        # covered-user density over the BS density, with no extra factor
        cfg = small_spatial(reps=24, ratio=3.0)
        rep = empirical_user_count_pmf(cfg, 1.0)
        pmf = rep.arrays["pmf"]
        mean = float(pmf @ np.arange(len(pmf)))
        expected = 3.0 * geometry.sinr_ccdf_lim(1.0)
        assert mean == pytest.approx(expected, rel=0.05)

    def test_refit_recovers_model_constant(self):
        # feed the refitter a PMF generated by the model itself
        load = geometry.CellLoad(5.0, 0.5, thinning=2.0 / 3.0)
        pmf = geometry.in_coverage_count_pmf(load, np.arange(200))
        refit = refit_thinning_const(pmf, 5.0, 0.5)
        assert refit == pytest.approx(2.0 / 3.0, abs=0.01)


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


class TestEmpiricalHelpers:
    def test_empirical_cdf(self):
        samples = np.array([1.0, 2.0, 3.0])
        grid = np.array([0.5, 1.0, 2.5, 5.0])
        assert np.allclose(empirical_cdf(samples, grid),
                           [0.0, 1 / 3, 2 / 3, 1.0])

    def test_ks_distance_null(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(1.0, 50_000)
        d = ks_distance(x, stats.expon(scale=1.0).cdf)
        assert d < 0.01
