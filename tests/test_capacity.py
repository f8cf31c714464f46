import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secnet import capacity as cap
from secnet import geometry
from secnet.capacity import (
    HomogeneousSetup,
    capacity_limit_derivative,
    capacity_limit_fixed_band,
    min_delay_over_rate,
    optimal_rate_fixed_band,
    optimize_fixed_system,
    scaling_approximation,
)
from secnet.errors import InfeasibleError

from conftest import capacity_limit_fixed_system, make_scenario


def setup_mode_one(n=5, ratio=50.0):
    return HomogeneousSetup(n_bands=n, user_density=ratio, bs_density=1.0)


class TestCapacityLimit:
    def test_frozen_default_optimum(self):
        opt = optimal_rate_fixed_band(setup_mode_one())
        assert opt.rate == pytest.approx(5.119391629, rel=1e-8)
        assert opt.capacity == pytest.approx(1.609018478, rel=1e-8)

    def test_optimum_above_first_scan_span(self):
        # at ratio 1e5 the optimum lies above the first scan's end, 20 W
        opt = optimal_rate_fixed_band(HomogeneousSetup(1, 1e5, 1.0))
        assert opt.rate == pytest.approx(26.3169455, rel=1e-8)
        assert opt.capacity == pytest.approx(3.74193926e-4, rel=1e-8)

    def test_optimum_past_float_range_is_infeasible(self):
        # the scan would have to pass R/W = 1000, where 2^(R/W) nears overflow
        with pytest.raises(InfeasibleError):
            optimal_rate_fixed_band(HomogeneousSetup(1, 1e200, 1.0))

    def test_tiny_service_probability_keeps_capacity(self):
        # at ratio 1e30 a band serves with probability about 1e-30, far
        # below the 1e-16 where 1 - (1 - eps_n)^N rounds to 0
        setup = HomogeneousSetup(1, 1e30, 1.0)
        for r in (1.0, 20.0, 200.0):
            assert capacity_limit_fixed_band(setup, r) > 0.0
        opt = optimal_rate_fixed_band(setup)
        assert math.isfinite(opt.rate) and opt.capacity > 0.0

    def test_always_serving_band_gives_full_rate(self):
        # at vanishing load and rate every band serves with probability 1
        setup = HomogeneousSetup(2, 1e-20, 1.0)
        assert capacity_limit_fixed_band(setup, 1e-17) == 1e-17

    def test_limit_bounded_by_rate(self):
        setup = setup_mode_one()
        for r in [0.5, 2.0, 8.0]:
            c = capacity_limit_fixed_band(setup, r)
            assert 0.0 < c < r

    def test_derivative_matches_finite_difference(self):
        setup = setup_mode_one()
        for r in [0.5, 2.0, 5.0, 9.0]:
            h = 1e-6 * r
            fd = (
                capacity_limit_fixed_band(setup, r + h)
                - capacity_limit_fixed_band(setup, r - h)
            ) / (2.0 * h)
            assert capacity_limit_derivative(setup, r) == pytest.approx(
                fd, rel=1e-5
            )

    def test_derivative_array_equals_scalar_calls(self):
        for setup in (setup_mode_one(), HomogeneousSetup(1, 1e5, 1.0),
                      HomogeneousSetup(3, 10.0, 1.0, vacancy=0.5, band_width=2.0),
                      HomogeneousSetup(1, 1e30, 1.0)):
            grid = np.geomspace(1e-3, 1000.0, 1024) * setup.band_width
            batch = capacity_limit_derivative(setup, grid)
            assert np.array_equal(
                batch, [capacity_limit_derivative(setup, float(r)) for r in grid]
            )

    def test_optimum_is_grid_maximum(self):
        setup = setup_mode_one(n=3, ratio=10.0)
        opt = optimal_rate_fixed_band(setup)
        grid = np.linspace(0.2, 15.0, 4000)
        vals = [capacity_limit_fixed_band(setup, r) for r in grid]
        assert opt.capacity >= max(vals) - 1e-6

    def test_mode_guards(self):
        setup = setup_mode_one()
        with pytest.raises(ValueError):
            capacity_limit_fixed_band(setup, 0.0)


class TestModeIdentities:
    def test_two_modes_related_by_rate_rescaling(self):
        # the direct mode-II limit is the mode-I limit at rate R * N over N
        for n in (1, 3, 8):
            setup1 = setup_mode_one(n=n)
            for r in (0.2, 0.7, 1.5):
                c2 = capacity_limit_fixed_system(setup1, r)
                c1 = capacity_limit_fixed_band(setup1, r * n)
                assert c2 == pytest.approx(c1 / n, rel=1e-12)


def mode_two_max(n, ratio, vacancy=1.0, band_width=1.0,
                 thinning=geometry.DEFAULT_THINNING):
    setup = HomogeneousSetup(n, ratio, 1.0, vacancy, band_width, thinning)
    return optimal_rate_fixed_band(setup).capacity / n


class TestJointOptimization:
    def test_interior_band_count(self):
        n_star, r_star, c_star = optimize_fixed_system(50.0)
        assert 1 < n_star < 60
        assert c_star > 0
        # joint optimum beats a few arbitrary fixed band counts
        for n in (1, 2, 60):
            assert c_star >= mode_two_max(n, 50.0) - 1e-12

    @pytest.mark.parametrize("ratio, expected", [
        (2.0, (1, 3.1697741536407062, 0.5905318332010406)),
        (5.0, (2, 1.7933870273805799, 0.5202050429566042)),
        (10.0, (3, 1.3277064530518132, 0.46050514052836017)),
        (50.0, (6, 0.845595750637095, 0.3265436231593537)),
        (100.0, (9, 0.6244035306239484, 0.27483637782611664)),
        (500.0, (20, 0.35208876735119865, 0.1745372105610282)),
        (1e3, (28, 0.2754565304366255, 0.14073291892715675)),
    ])
    def test_matches_full_scan(self, ratio, expected):
        # the optimum of a scan over every N up to 80, bit for bit
        assert optimize_fixed_system(ratio) == expected

    def test_optimum_past_eighty_bands(self):
        # a scan capped at 80 bands returned its edge here, 0.5 % low
        n_star, _, c_star = optimize_fixed_system(1e4)
        assert n_star == 89
        assert c_star == pytest.approx(0.06431769636523889, rel=1e-12)
        assert c_star > max(mode_two_max(n, 1e4) for n in (80, 88, 90))

    def test_infeasible_optimum_propagates(self):
        with pytest.raises(InfeasibleError):
            optimize_fixed_system(1e200)

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
        n_star, _, _ = optimize_fixed_system(ratio, vacancy, band_width, thinning)
        c = [mode_two_max(n, ratio, vacancy, band_width, thinning)
             for n in range(1, 2 * n_star + 4)]
        grows = np.diff(c) > 0
        assert list(grows) == [True] * (n_star - 1) + [False] * (n_star + 3)

    def test_scaling_approximation_values(self):
        assert scaling_approximation(2.0) == pytest.approx(0.6359 - 0.052)
        assert scaling_approximation(4.0) == pytest.approx(0.6359 - 0.104)
        with pytest.raises(ValueError):
            scaling_approximation(0.0)


class TestMinDelay:
    def test_default_scenario_minimum(self, default_scenario):
        opt = min_delay_over_rate(default_scenario)
        assert opt.rate == pytest.approx(3.38397, rel=1e-4)
        assert opt.delay == pytest.approx(36.38487, rel=1e-4)

    def test_minimum_beats_neighbors(self, default_scenario):
        opt = min_delay_over_rate(default_scenario)
        for r in (opt.rate * 0.9, opt.rate * 1.1):
            assert cap._delay_at_rate(default_scenario, r) >= opt.delay

    def test_infeasible_scenario_raises(self):
        scn = make_scenario(n_bands=1, ratio=500.0, session_interarrival=10.0)
        with pytest.raises(InfeasibleError):
            min_delay_over_rate(scn)


class TestSetupValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            HomogeneousSetup(n_bands=0, user_density=1.0, bs_density=1.0)
        with pytest.raises(ValueError):
            HomogeneousSetup(n_bands=1, user_density=1.0, bs_density=1.0,
                             vacancy=1.5)
        with pytest.raises(ValueError):
            HomogeneousSetup(n_bands=1, user_density=1.0, bs_density=1.0,
                             thinning=0.0)

    def test_load_per_band(self):
        setup = HomogeneousSetup(n_bands=4, user_density=80.0, bs_density=2.0)
        assert setup.load_per_band == pytest.approx(10.0)
