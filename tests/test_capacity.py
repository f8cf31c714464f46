import math

import numpy as np
import pytest

from secnet import capacity as cap
from secnet.capacity import (
    HomogeneousSetup,
    capacity_limit_derivative,
    capacity_limit_fixed_band,
    capacity_limit_fixed_system,
    max_capacity_fixed_system,
    min_delay_over_rate,
    optimal_rate_fixed_band,
    optimize_fixed_system,
    scaling_approximation,
)
from secnet.errors import InfeasibleError

from conftest import make_scenario


def setup_mode_one(n=5, ratio=50.0):
    return HomogeneousSetup(n_bands=n, user_density=ratio, bs_density=1.0)


class TestCapacityLimit:
    def test_frozen_default_optimum(self):
        opt = optimal_rate_fixed_band(setup_mode_one())
        assert opt.rate == pytest.approx(5.119391629, rel=1e-8)
        assert opt.capacity == pytest.approx(1.609018478, rel=1e-8)
        assert opt.method == "derivative-root"

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
        with pytest.raises(ValueError):
            capacity_limit_fixed_system(setup, 0.0)


class TestModeIdentities:
    def test_two_modes_related_by_rate_rescaling(self):
        for n in (1, 3, 8):
            setup1 = setup_mode_one(n=n)
            for r in (0.2, 0.7, 1.5):
                c2 = capacity_limit_fixed_system(setup1, r)
                c1 = capacity_limit_fixed_band(setup1, r * n)
                assert c2 == pytest.approx(c1 / n, rel=1e-12)

    def test_n_times_fixed_system_max_equals_fixed_band_max(self):
        for n in range(1, 21):
            setup = setup_mode_one(n=n)
            c1 = optimal_rate_fixed_band(setup).capacity
            c2 = max_capacity_fixed_system(setup)
            assert n * c2 == pytest.approx(c1, rel=1e-8)


class TestJointOptimization:
    def test_interior_band_count(self):
        n_star, r_star, c_star = optimize_fixed_system(50.0, n_max=60)
        assert 1 < n_star < 60
        assert c_star > 0
        # joint optimum beats a few arbitrary fixed band counts
        for n in (1, 2, 60):
            setup = HomogeneousSetup(n_bands=n, user_density=50.0, bs_density=1.0)
            assert c_star >= max_capacity_fixed_system(setup) - 1e-12

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
            min_delay_over_rate(scn, rate_span=(0.5, 2.0), scan_points=8)


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
