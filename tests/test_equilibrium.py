import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secnet import BandConfig, InfeasibleError, Scenario, solve_equilibrium
from secnet.equilibrium import _epsilon_map

from conftest import make_scenario


@dataclass(frozen=True)
class SingleBandComparison:
    solver_value: float
    closed_form: float | None
    applicable: bool
    note: str


def single_band_explicit(scenario: Scenario) -> SingleBandComparison:
    """Evaluate the printed single-band closed form next to the solver.

    The closed form is of doubtful provenance (see the comparison note in
    ``TestSingleBandExplicit``); the solver value is authoritative and is
    always returned.
    """
    if len(scenario.bands) != 1:
        raise ValueError("single_band_explicit needs a one-band scenario")
    band = scenario.bands[0]
    solution = solve_equilibrium(scenario)
    p = float(scenario.coverage_probabilities()[0])
    lam = scenario.thinning
    ratio = scenario.user_density / band.bs_density
    c_over_r = scenario.rho_s
    inner = 1.0 - lam * ratio * c_over_r / band.vacancy
    if inner <= 0.0:
        return SingleBandComparison(
            solver_value=solution.epsilon,
            closed_form=None,
            applicable=False,
            note=f"closed form inapplicable: inner base {inner:g} <= 0",
        )
    bracket = 1.0 - inner ** (-2.0 / 7.0)
    if bracket == 0.0:
        return SingleBandComparison(
            solver_value=solution.epsilon,
            closed_form=None,
            applicable=False,
            note="closed form inapplicable: bracket term is zero",
        )
    value = (p / 3.5) * lam * ratio * c_over_r / bracket
    return SingleBandComparison(
        solver_value=solution.epsilon,
        closed_form=float(value),
        applicable=True,
        note=f"closed form {value:g} vs solver {solution.epsilon:g}",
    )


class TestSolveEquilibrium:
    def test_default_scenario_fixed_point(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        assert sol.epsilon == pytest.approx(0.462113283, abs=1e-8)
        assert sol.residual < 1e-10
        assert sol.rho_o == pytest.approx(1.0 - sol.epsilon)
        assert sol.rho_s == pytest.approx(0.25)
        assert sol.p_active == pytest.approx(sol.rho_s / sol.epsilon)
        assert not sol.multiple_roots

    def test_root_verified_by_independent_scan(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        # brute-force the scalar fixed point on a fine grid
        cov = default_scenario.coverage_probabilities()
        grid = np.linspace(0.26, 1.0, 20_000)
        h = np.array(
            [g - _epsilon_map(default_scenario, cov, g)[0] for g in grid]
        )
        crossings = grid[:-1][np.sign(h[:-1]) != np.sign(h[1:])]
        assert len(crossings) == 1
        assert abs(crossings[0] - sol.epsilon) < 1e-3

    def test_active_density_conservation(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        total_active = sum(
            b.load * band.bs_density
            for b, band in zip(sol.bands, default_scenario.bands)
        )
        assert total_active == pytest.approx(
            default_scenario.user_density * sol.p_active, rel=1e-9
        )

    def test_band_quantities_consistent(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        miss = 1.0
        for b, band in zip(sol.bands, default_scenario.bands):
            assert b.service == pytest.approx(
                band.vacancy * b.coverage * b.access, rel=1e-12
            )
            miss *= 1.0 - b.service
        assert sol.epsilon == pytest.approx(1.0 - miss, abs=1e-9)

    def test_band_service_probability_matches_solution(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        cov = default_scenario.coverage_probabilities()
        v = _epsilon_map(default_scenario, cov, sol.epsilon)[1][0]
        assert v == pytest.approx(sol.bands[0].service, rel=1e-12)

    def test_heterogeneous_bands(self):
        base = make_scenario(n_bands=2, target_rate=2.0, session_interarrival=100.0)
        wide = BandConfig(bandwidth=2.0, vacancy=0.8, bs_density=1.0)
        narrow = BandConfig(bandwidth=1.0, vacancy=1.0, bs_density=2.0)
        scn = Scenario(
            base.user_density, (wide, narrow), base.target_rate, base.traffic,
            base.outage, base.thinning,
        )
        sol = solve_equilibrium(scn)
        assert sol.residual < 1e-10
        # the wider band covers better at the same target rate
        assert sol.bands[0].coverage > sol.bands[1].coverage

    def test_infeasible_load(self):
        # default geometry cannot carry C = 1 at R = 2 (limit is below 1)
        scn = make_scenario(target_rate=2.0)
        with pytest.raises(InfeasibleError):
            solve_equilibrium(scn)

    def test_rate_below_demand_rejected(self):
        scn = make_scenario(target_rate=0.5)  # C/R = 2
        with pytest.raises(InfeasibleError):
            solve_equilibrium(scn)

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=3.5, max_value=8.0),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=1.0, max_value=30.0))
    def test_residual_property(self, rate, n_bands, ratio):
        scn = make_scenario(n_bands=n_bands, ratio=ratio, target_rate=rate)
        try:
            sol = solve_equilibrium(scn)
        except InfeasibleError:
            return
        assert sol.residual < 1e-10
        assert scn.rho_s < sol.epsilon <= 1.0
        assert all(0.0 < b.access <= 1.0 for b in sol.bands)


class TestSingleBandExplicit:
    def test_closed_form_sign_anomaly(self):
        # The printed closed form evaluates to the negative of the solver's
        # fixed point at this operating point; it is recorded for
        # comparison only and never used in the analytic chain.
        scn = make_scenario(
            n_bands=1, ratio=5.0, target_rate=3.0, session_interarrival=100.0
        )
        cmp = single_band_explicit(scn)
        assert cmp.applicable
        assert cmp.solver_value == pytest.approx(0.220866, abs=1e-4)
        assert cmp.closed_form == pytest.approx(-cmp.solver_value, rel=1e-3)

    def test_requires_single_band(self, default_scenario):
        with pytest.raises(ValueError):
            single_band_explicit(default_scenario)

    def test_closed_form_domain_implies_infeasibility(self):
        # whenever the closed form's inner base is nonpositive
        # (thinning * ratio * C/R >= 1), the per-band service probability
        # bound eps_n <= 1/(thinning * load) forces eps < C/R, so the
        # solver must report infeasibility before the comparison is reached
        scn = make_scenario(
            n_bands=1, ratio=200.0, target_rate=2.0, session_interarrival=500.0
        )
        assert 2.0 / 3.0 * 200.0 * scn.rho_s >= 1.0
        with pytest.raises(InfeasibleError):
            single_band_explicit(scn)
