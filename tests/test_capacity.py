import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from secnet import BandConfig
from secnet import capacity as cap
from secnet.capacity import (
    capacity_limit_derivative,
    capacity_limit_fixed_band,
    min_delay_over_rate,
    optimal_rate_fixed_band,
    optimal_rates_fixed_band,
    optimize_fixed_system,
    scaling_approximation,
)
from secnet.errors import ConvergenceError, InfeasibleError

from conftest import capacity_limit_fixed_system, make_scenario


class TestCapacityLimit:
    def test_frozen_default_optimum(self):
        opt = optimal_rate_fixed_band(make_scenario())
        assert opt.rate == pytest.approx(5.119391629, rel=1e-8)
        assert opt.capacity == pytest.approx(1.609018478, rel=1e-8)

    def test_optimum_above_first_scan_span(self):
        # at ratio 1e5 the optimum lies above the first scan's end, 20 W
        opt = optimal_rate_fixed_band(make_scenario(n_bands=1, ratio=1e5))
        assert opt.rate == pytest.approx(26.3169455, rel=1e-8)
        assert opt.capacity == pytest.approx(3.74193926e-4, rel=1e-8)

    def test_optimum_past_float_range_is_infeasible(self):
        # the scan would have to pass R/W = 1000, where 2^(R/W) nears overflow
        with pytest.raises(InfeasibleError):
            optimal_rate_fixed_band(make_scenario(n_bands=1, ratio=1e200))

    def test_tiny_service_probability_keeps_capacity(self):
        # at ratio 1e30 a band serves with probability about 1e-30, far
        # below the 1e-16 where 1 - (1 - eps_n)^N rounds to 0
        scenario = make_scenario(n_bands=1, ratio=1e30)
        for r in (1.0, 20.0, 200.0):
            assert capacity_limit_fixed_band(scenario, r) > 0.0
        opt = optimal_rate_fixed_band(scenario)
        assert math.isfinite(opt.rate) and opt.capacity > 0.0

    def test_always_serving_band_gives_full_rate(self):
        # at vanishing load and rate every band serves with probability 1
        scenario = make_scenario(n_bands=2, ratio=1e-20)
        assert capacity_limit_fixed_band(scenario, 1e-17) == 1e-17

    def test_subnormal_load_is_the_zero_load_limit(self):
        # the contention is subnormal at these loads, and the access
        # probability must still be its zero-load limit 1
        at_zero_load = optimal_rate_fixed_band(make_scenario(n_bands=1, ratio=1e-300))
        for ratio in (1e-310, 1e-320, 5e-324):
            assert optimal_rate_fixed_band(
                make_scenario(n_bands=1, ratio=ratio)) == at_zero_load

    def test_limit_bounded_by_rate(self):
        scenario = make_scenario()
        for r in [0.5, 2.0, 8.0]:
            c = capacity_limit_fixed_band(scenario, r)
            assert 0.0 < c < r

    def test_derivative_matches_finite_difference(self):
        scenario = make_scenario()
        for r in [0.5, 2.0, 5.0, 9.0]:
            h = 1e-6 * r
            fd = (
                capacity_limit_fixed_band(scenario, r + h)
                - capacity_limit_fixed_band(scenario, r - h)
            ) / (2.0 * h)
            assert capacity_limit_derivative(scenario, r) == pytest.approx(
                fd, rel=1e-5
            )

    def test_derivative_array_equals_scalar_calls(self):
        for scenario in (make_scenario(), make_scenario(n_bands=1, ratio=1e5),
                         make_scenario(3, 10.0, vacancy=0.5, bandwidth=2.0),
                         make_scenario(n_bands=1, ratio=1e30)):
            grid = np.geomspace(1e-3, 1000.0, 1024) * scenario.bands[0].bandwidth
            batch = capacity_limit_derivative(scenario, grid)
            assert np.array_equal(
                batch, [capacity_limit_derivative(scenario, float(r)) for r in grid]
            )

    @staticmethod
    def scipy_optimum(scenario):
        """The optimal rate as one scipy ``brentq`` on the first + -> - turn of
        the derivative over the scan span: the batch's oracle to within the
        polish's tolerance, which both methods meet."""
        w = scenario.bands[0].bandwidth
        lo, hi = cap._SCAN_SPAN
        grid = np.geomspace(lo * w, hi * w, cap._BRACKET_POINTS)
        dv = capacity_limit_derivative(scenario, grid)
        i = np.flatnonzero((dv[:-1] > 0) & (dv[1:] < 0))[0]
        return brentq(lambda r: capacity_limit_derivative(scenario, r),
                      grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=-2.0, max_value=2.0),
           st.lists(st.tuples(st.floats(min_value=-300.0, max_value=5.0),
                              st.integers(min_value=1, max_value=40)),
                    min_size=1, max_size=8))
    def test_batch_is_its_batch_of_one_and_near_scipy_brentq(self, vacancy, log_width,
                                                             rows):
        # one band, rows of (ratio, N): bit for bit against each row alone as
        # a scenario of N copies of the band, and within twice the polish's
        # tolerance of scipy on the same bracket, since each ends within one
        # of the root; ratios up to 1e5 put optima past R/W = 20
        ratios = [10.0 ** log_ratio for log_ratio, _ in rows]
        counts = [n for _, n in rows]
        scenarios = [make_scenario(n_bands=n, ratio=ratio, vacancy=vacancy,
                                   bandwidth=10.0 ** log_width)
                     for ratio, n in zip(ratios, counts)]
        band, thinning = scenarios[0].bands[0], scenarios[0].thinning
        rates, limits = optimal_rates_fixed_band(band, thinning, ratios, counts)
        for scenario, rate, limit in zip(scenarios, rates, limits):
            opt = optimal_rate_fixed_band(scenario)
            assert (rate, limit) == (opt.rate, opt.capacity)
            root = self.scipy_optimum(scenario)
            assert abs(rate - root) <= 2 * (cap._XTOL + cap._RTOL * root)

    def test_infeasible_row_fails_the_batch(self):
        scenario = make_scenario()
        with pytest.raises(InfeasibleError) as exc:
            optimal_rates_fixed_band(scenario.bands[0], scenario.thinning,
                                     [50.0, 1e200], [5, 1])
        assert str(exc.value) == "no capacity optimum below rate 1000 x band width"

    def test_optimum_is_grid_maximum(self):
        scenario = make_scenario(n_bands=3, ratio=10.0)
        opt = optimal_rate_fixed_band(scenario)
        grid = np.linspace(0.2, 15.0, 4000)
        vals = [capacity_limit_fixed_band(scenario, r) for r in grid]
        assert opt.capacity >= max(vals) - 1e-6
        # random scenarios against the mode-I limit, as N x the direct mode-II
        # limit at R/N, on a log grid over the scan span
        for scenario in random_identical_band_scenarios(10, seed=7):
            n, w = len(scenario.bands), scenario.bands[0].bandwidth
            grid = np.geomspace(cap._SCAN_SPAN[0] * w, cap._SCAN_SPAN[1] * w, 2000)
            vals = n * capacity_limit_fixed_system(scenario, grid / n)
            assert optimal_rate_fixed_band(scenario).capacity >= (1 - 1e-12) * vals.max()

    def test_polish_finds_closed_form_roots(self, monkeypatch):
        # rows x^3 - c on [0, 200], and a row x - 1 on [0, 2] whose first
        # secant point is its root, where it stops on a value of exactly 0
        c = np.append(np.geomspace(1e-6, 1e6, 13), 1.0)
        linear = np.arange(len(c)) == len(c) - 1

        def polish(rows):
            lin, k = linear[rows], c[rows]
            b = np.where(lin, 2.0, 200.0)
            return cap._polish(lambda i, x: np.where(lin[i], x, x ** 3) - k[i],
                               np.zeros(len(rows)), b, -k, np.where(lin, b, b ** 3) - k)

        rows = np.arange(len(c))
        roots = polish(rows)
        exact = np.where(linear, 1.0, np.cbrt(c))
        assert np.all(np.abs(roots - exact) <= cap._XTOL + cap._RTOL * exact)
        assert roots[-1] == 1.0
        assert np.array_equal(roots, [polish(rows[i:i + 1])[0] for i in rows])
        monkeypatch.setattr(cap, "_MAX_STEPS", 1)
        assert polish(rows[-1:])[0] == 1.0
        with pytest.raises(ConvergenceError):
            polish(rows)

    def test_mode_guards(self):
        with pytest.raises(ValueError):
            capacity_limit_fixed_band(make_scenario(), 0.0)

    def test_unequal_bands_raise(self):
        scenario = make_scenario(n_bands=2)
        band = scenario.bands[0]
        scenario = replace(scenario, bands=(band, replace(band, vacancy=0.5)))
        for law in (lambda s: capacity_limit_fixed_band(s, 4.0),
                    lambda s: capacity_limit_derivative(s, 4.0),
                    optimal_rate_fixed_band, optimize_fixed_system):
            with pytest.raises(ValueError, match="identical bands"):
                law(scenario)


def mp_limit(scenario):
    """The mode-I limit C(R) of an identical-band scenario in mpmath, as a
    function of the rate: R (1 - (1 - eps_n)^N), with eps_n the band's
    vacancy x coverage x access at contention thinning x coverage x load."""
    band, n = scenario.bands[0], len(scenario.bands)
    w, vacancy = mpmath.mpf(band.bandwidth), mpmath.mpf(band.vacancy)
    load = mpmath.mpf(scenario.user_density) / (mpmath.mpf(band.bs_density) * n)
    thinning, a = mpmath.mpf(scenario.thinning), mpmath.mpf(3.5)

    def limit(r):
        chi = mpmath.sqrt(2 ** (r / w) - 1)
        p = 1 / (1 + chi * mpmath.atan(chi))
        c = thinning * p * load
        eps_n = vacancy * p * (1 - (1 + c / a) ** -a) / c
        return r * (1 - (1 - eps_n) ** n)
    return limit


def random_identical_band_scenarios(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield make_scenario(
            n_bands=int(rng.integers(1, 21)), ratio=10.0 ** rng.uniform(0.0, 5.0),
            vacancy=rng.uniform(0.05, 1.0), bandwidth=10.0 ** rng.uniform(-1.0, 1.0),
            thinning=rng.uniform(0.3, 2.0),
        )


class TestHighPrecisionOracle:
    """The mode-I limit, its analytic derivative and the optimal rate against
    a 30-digit evaluation of the same law (derivative by ``mpmath.diff``),
    over random identical-band scenarios at 5 rates each."""

    def test_limit_and_derivative(self):
        rng = np.random.default_rng(11)
        with mpmath.workdps(30):
            for scenario in random_identical_band_scenarios(40, seed=3):
                limit = mp_limit(scenario)
                w = scenario.bands[0].bandwidth
                for r in w * 10.0 ** rng.uniform(-1.5, 1.5, 5):
                    c, dc = limit(mpmath.mpf(r)), mpmath.diff(limit, mpmath.mpf(r))
                    assert abs(capacity_limit_fixed_band(scenario, r) - c) <= 1e-13 * c
                    # relative to C/R too: the derivative is 0 at the optimum
                    assert abs(capacity_limit_derivative(scenario, r) - dc) \
                        <= 1e-13 * max(abs(dc), c / r)

    def test_optimal_rate(self):
        with mpmath.workdps(30):
            for scenario in random_identical_band_scenarios(40, seed=5):
                limit = mp_limit(scenario)
                opt = optimal_rate_fixed_band(scenario)
                root = mpmath.findroot(lambda r: mpmath.diff(limit, r),
                                       (opt.rate * (1 - 1e-6), opt.rate * (1 + 1e-6)))
                assert abs(opt.rate - root) <= 1e-12 * root
                assert abs(opt.capacity - limit(root)) <= 1e-13 * limit(root)


class TestModeIdentities:
    def test_two_modes_related_by_rate_rescaling(self):
        # the direct mode-II limit is the mode-I limit at rate R * N over N
        for n in (1, 3, 8):
            scenario = make_scenario(n_bands=n)
            for r in (0.2, 0.7, 1.5):
                c2 = capacity_limit_fixed_system(scenario, r)
                c1 = capacity_limit_fixed_band(scenario, r * n)
                assert c2 == pytest.approx(c1 / n, rel=1e-12)


def mode_two_max(n, ratio, **band):
    return optimal_rate_fixed_band(make_scenario(n, ratio, **band)).capacity / n


class TestJointOptimization:
    def test_interior_band_count(self):
        n_star, r_star, c_star = optimize_fixed_system(make_scenario(ratio=50.0))
        assert 1 < n_star < 60
        assert c_star > 0
        # joint optimum beats a few arbitrary fixed band counts
        for n in (1, 2, 60):
            assert c_star >= mode_two_max(n, 50.0) - 1e-12

    @pytest.mark.parametrize("ratio, expected", [
        (2.0, (1, 3.1697741536407067, 0.5905318332010405)),
        (5.0, (2, 1.7933870273805796, 0.5202050429566041)),
        (10.0, (3, 1.3277064530518126, 0.46050514052836006)),
        (50.0, (6, 0.8455957506370956, 0.32654362315935365)),
        (100.0, (9, 0.6244035306239483, 0.2748363778261167)),
        (500.0, (20, 0.352088767351199, 0.17453721056102814)),
        (1e3, (28, 0.2754565304366256, 0.1407329189271568)),
    ])
    def test_matches_full_scan(self, ratio, expected):
        # the optimum of a scan over every N up to 80, bit for bit
        assert optimize_fixed_system(make_scenario(ratio=ratio)) == expected

    def test_optimum_past_eighty_bands(self):
        # a scan capped at 80 bands returned its edge here, 0.5 % low
        n_star, _, c_star = optimize_fixed_system(make_scenario(ratio=1e4))
        assert n_star == 89
        assert c_star == pytest.approx(0.06431769636523889, rel=1e-12)
        assert c_star > max(mode_two_max(n, 1e4) for n in (80, 88, 90))

    FACTORS = [2.0 ** k for k in range(-20, 27)]

    @pytest.mark.parametrize("ratio", [2.0, 1e3])
    def test_density_scale_is_exact(self, ratio):
        # a power-of-two factor on both densities leaves every load's bits
        reference = optimize_fixed_system(make_scenario(ratio=ratio))
        for f in self.FACTORS:
            scaled = make_scenario(ratio=ratio, bs_density=f)
            assert optimize_fixed_system(scaled) == reference, f

    @pytest.mark.parametrize("ratio", [2.0, 1e3])
    def test_bandwidth_scale(self, ratio):
        # rates and capacity scale with the band; the scan's log-spaced grid
        # does not scale bit for bit, so the rate moves within the polish's
        # tolerance on the mode-I rate N r, and the capacity by a few ulp
        n_star, rate, capacity = optimize_fixed_system(make_scenario(ratio=ratio))
        ulp = np.finfo(float).eps
        for f in self.FACTORS:
            n, rate_f, capacity_f = optimize_fixed_system(
                make_scenario(ratio=ratio, bandwidth=f))
            assert n == n_star, f
            assert abs(rate_f - f * rate) <= cap._XTOL + cap._RTOL * n * rate_f, f
            assert abs(capacity_f - f * capacity) <= 4 * ulp * f * capacity, f

    def test_infeasible_optimum_propagates(self):
        with pytest.raises(InfeasibleError):
            optimize_fixed_system(make_scenario(ratio=1e200))

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.3, max_value=2.0))
    def test_mode_two_maximum_is_unimodal_in_n(self, log_ratio, vacancy,
                                                band_width, thinning):
        # the search bisects on the sign of C(N+1) - C(N), which must go
        # from + to - once; checked past twice the N it returns
        ratio = 10.0 ** log_ratio
        band = dict(vacancy=vacancy, bandwidth=band_width, thinning=thinning)
        n_star, _, _ = optimize_fixed_system(make_scenario(ratio=ratio, **band))
        # one batch of C(N), the bits of make_scenario's: its BS density is 1
        counts = np.arange(1, 2 * n_star + 4)
        limits = optimal_rates_fixed_band(BandConfig(band_width, vacancy, 1.0), thinning,
                                          np.full(len(counts), ratio), counts)[1]
        grows = np.diff(limits / counts) > 0
        assert list(grows) == [True] * (n_star - 1) + [False] * (n_star + 3)

    def test_scaling_approximation_values(self):
        assert scaling_approximation(2.0) == pytest.approx(0.6359 - 0.052)
        assert scaling_approximation(4.0) == pytest.approx(0.6359 - 0.104)
        with pytest.raises(ValueError):
            scaling_approximation(0.0)


def interarrivals(scenario, count=1):
    """The scenario's session interarrival mean, ``count`` times: the rows
    of the delay optimizer at its own traffic."""
    return np.full(count, scenario.traffic.session_interarrival_mean)


class TestMinDelay:
    def test_default_scenario_minimum(self, default_scenario):
        [rate], [delay] = min_delay_over_rate(default_scenario,
                                              interarrivals(default_scenario))
        assert rate == pytest.approx(3.38397, rel=1e-4)
        assert delay == pytest.approx(36.38487, rel=1e-4)

    def test_minimum_beats_neighbors(self, default_scenario):
        [rate], [delay] = min_delay_over_rate(default_scenario,
                                              interarrivals(default_scenario))
        rates = np.array([rate * 0.9, rate * 1.1])
        for d in cap.operating_points(default_scenario, rates,
                                      interarrivals(default_scenario, 2))[1]:
            assert d >= delay

    def test_infeasible_scenario_returns_nan(self):
        scn = make_scenario(n_bands=1, ratio=500.0, session_interarrival=10.0)
        rates, delays = min_delay_over_rate(scn, interarrivals(scn))
        assert np.isnan(rates[0]) and np.isnan(delays[0])

    @settings(deadline=None, max_examples=15)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=3), st.sampled_from([5.0, 50.0]))
    def test_batch_equals_single_calls(self, demands, n_bands, ratio):
        # every row bit for bit, with a C = 1e-9 proxy row and a C = 50 row
        # that no rate serves
        scn = make_scenario(n_bands=n_bands, ratio=ratio)
        interarrival = np.array([10.0 / c for c in (*demands, 1e-9, 50.0) if c > 0.0])
        rates, delays = min_delay_over_rate(scn, interarrival)
        assert np.isnan(rates[-1]) and np.isnan(delays[-1])
        assert np.isfinite(rates[-2]) and np.isfinite(delays[-2])
        for i in range(len(interarrival)):
            single = min_delay_over_rate(scn, interarrival[i:i + 1])
            assert np.array_equal([rates[i:i + 1], delays[i:i + 1]], single,
                                  equal_nan=True)

    def test_minimum_at_the_capacity_limit_edge(self, default_scenario):
        # 0.2 % below the capacity limit the delay is finite on one scan
        # point only: the bracket's ends are infeasible, and the polish still
        # finds the minimum
        c = optimal_rate_fixed_band(default_scenario).capacity * (1.0 - 2e-3)
        interarrival = np.array([10.0 / c])
        grid = np.geomspace(1e-2, 50.0, 96)
        scan = cap.operating_points(default_scenario, grid,
                                    np.repeat(interarrival, len(grid)))[1]
        assert np.count_nonzero(np.isfinite(scan)) == 1
        [rate], [delay] = min_delay_over_rate(default_scenario, interarrival)
        assert np.isfinite(delay)
        rates = rate * np.array([1.0 - 1e-6, 1.0 + 1e-6])
        delays = cap.operating_points(default_scenario, rates,
                                      np.repeat(interarrival, 2))[1]
        assert np.all(delays >= delay)

    def test_minimum_past_the_narrow_band_span(self):
        # the scan starts from the narrowest band's width, here a width-0.1
        # band of vacancy 1e-6 that carries nothing: the minimum lies past
        # that span, where the width-10 band alone puts it
        scn = make_scenario(ratio=0.5, file_mean=100.0, session_interarrival=1000.0)
        narrow = BandConfig(bandwidth=0.1, vacancy=1e-6, bs_density=1.0)
        wide = BandConfig(bandwidth=10.0, vacancy=1.0, bs_density=1.0)
        [rate], [delay] = min_delay_over_rate(replace(scn, bands=(narrow, wide)),
                                              interarrivals(scn))
        [alone], _ = min_delay_over_rate(replace(scn, bands=(wide,)), interarrivals(scn))
        assert rate == pytest.approx(8.90204, rel=1e-5)
        assert delay == pytest.approx(24.2844, rel=1e-5)
        assert rate == pytest.approx(alone, rel=1e-5)
