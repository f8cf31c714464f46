import math
import re
import warnings
from dataclasses import dataclass, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secnet import (BandConfig, InfeasibleError, Scenario, SizeDistribution,
                    TrafficModel, solve_equilibrium)
from secnet import equilibrium
from secnet.capacity import capacity_limit_fixed_band
from secnet.equilibrium import OVERLOADED, SOLVED, STALLED, UNCOVERED, solve_epsilons

from conftest import make_scenario


def rho_s(scenario):
    """C/R, the share of time the demand needs the rate."""
    return scenario.traffic.capacity / scenario.target_rate


def oracle_coverage(rate, bandwidth):
    """SIR tail at threshold 2^(R/W) - 1, path loss 4, in plain ``math``."""
    r = math.sqrt(2.0 ** (rate / bandwidth) - 1.0)
    return 1.0 / (1.0 + r * math.atan(r))


def oracle_epsilon_map(scenario, eps):
    """Independent oracle of the fixed-point map, band by band in ``math``:
    returns 1 - prod_n(1 - eps_n(eps)), the eps_n and the band loads."""
    rate, thinning = scenario.target_rate, scenario.thinning
    coverages = [oracle_coverage(rate, b.bandwidth) for b in scenario.bands]
    weights = [b.vacancy * c for b, c in zip(scenario.bands, coverages)]
    total = sum(weights)
    eps_n, loads, log_miss = [], [], 0.0
    for band, c, weight in zip(scenario.bands, coverages, weights):
        load = (scenario.user_density / band.bs_density) \
            * (rho_s(scenario) / eps) * (weight / total)
        x = thinning * c * load
        access = 1.0 if x == 0.0 else -math.expm1(-3.5 * math.log1p(x / 3.5)) / x
        eps_n.append(band.vacancy * c * access)
        loads.append(load)
        log_miss += math.log1p(-eps_n[-1])
    return 1.0 - math.exp(log_miss), eps_n, loads


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
    p = oracle_coverage(scenario.target_rate, band.bandwidth)
    lam = scenario.thinning
    ratio = scenario.user_density / band.bs_density
    c_over_r = rho_s(scenario)
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

    def test_root_verified_by_independent_scan(self, default_scenario):
        sol = solve_equilibrium(default_scenario)
        # brute-force the scalar fixed point on a fine grid
        grid = np.linspace(0.26, 1.0, 20_000)
        h = np.array([g - oracle_epsilon_map(default_scenario, g)[0] for g in grid])
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
        v = oracle_epsilon_map(default_scenario, sol.epsilon)[1][0]
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
        assert rho_s(scn) < sol.epsilon <= 1.0
        assert all(0.0 < b.access <= 1.0 for b in sol.bands)

    def test_uncovering_band_has_access_one(self):
        # past R/W = 1024 a band covers nobody, so nobody contends in it: its
        # access is the zero-contention limit 1, with no 0/0 on the way
        base = make_scenario(ratio=5.0, target_rate=123.0, file_mean=1.0)
        bands = (BandConfig(0.1, 1.0, 1.0), BandConfig(10.0, 1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_equilibrium(replace(base, bands=bands))
        assert sol.bands[0] == equilibrium.BandEquilibrium(0.0, 0.0, 1.0, 0.0)
        assert sol.bands[1].access < 1.0

    def test_nan_thinning_is_infeasible(self, default_scenario):
        # the NaN residual must not pass the residual guard
        with pytest.raises(InfeasibleError, match="residual nan"):
            solve_equilibrium(replace(default_scenario, thinning=math.nan))


def heterogeneous_scenario(bands, ratio, capacity):
    base = make_scenario(session_interarrival=10.0 / capacity)
    return Scenario(ratio, tuple(BandConfig(*b) for b in bands), 1.0,
                    base.traffic, base.outage, base.thinning)


SCAN = np.geomspace(1e-2, 50.0, 96)  # min_delay_over_rate's scan at W = 1


PICARD, BISECTION = {"infeasible", "picard"}, {"infeasible", "picard", "bisection"}
# how the message of each row status's InfeasibleError opens
KINDS = {UNCOVERED: "no band", OVERLOADED: "no service",
         STALLED: "equilibrium solver stalled"}


def assert_rows_are_single_solves(rows, rates, scenarios):
    """Each row of the ``solve_epsilons`` arrays ``rows`` is ``solve_equilibrium``
    of its scenario at its rate, bit for bit: eps, residual, steps and path,
    or NaN and the status whose kind its error names.  Returns the paths
    taken, with "infeasible" for an error."""
    outcomes = set()
    for i, (rate, scn) in enumerate(zip(rates, scenarios)):
        try:
            single = solve_equilibrium(replace(scn, target_rate=float(rate)))
        except InfeasibleError as exc:
            assert str(exc).startswith(KINDS.get(rows.status[i], "<solved>"))
            assert math.isnan(rows.epsilon[i])
            outcomes.add("infeasible")
            continue
        assert rows.status[i] == SOLVED
        assert (rows.epsilon[i], rows.residual[i], rows.iterations[i]) == (
            single.epsilon, single.residual, single.iterations)
        assert rows.bisected[i] == (single.method == "bisection")
        outcomes.add(single.method)
    return outcomes


class TestBatchedSolve:
    @pytest.mark.parametrize("scenario, paths", [
        (make_scenario(), PICARD),
        (make_scenario(n_bands=2, ratio=50.0, session_interarrival=100.0), BISECTION),
        (make_scenario(n_bands=5, ratio=200.0, session_interarrival=30.0), BISECTION),
        (heterogeneous_scenario([(2.0, 0.8, 1.0), (1.0, 1.0, 2.0), (0.5, 0.3, 0.5)],
                                40.0, 0.2), PICARD),
    ])
    def test_batch_equals_single_solves(self, scenario, paths):
        # every row bit for bit, and the kind of error where a rate has none;
        # with a demand per row, a row is the solve with that row's traffic
        inter = scenario.traffic.session_interarrival_mean
        traffics = [replace(scenario.traffic,
                            session_interarrival_mean=inter / f if f else math.inf)
                    for f in np.resize([1.0, 0.5, 2.0, 0.0], len(SCAN))]
        cases = [(None, [scenario] * len(SCAN)),
                 ([t.capacity for t in traffics],
                  [replace(scenario, traffic=t) for t in traffics])]
        for demands, scenarios in cases:
            rows = solve_epsilons(scenario, SCAN, demands)
            assert paths <= assert_rows_are_single_solves(rows, SCAN, scenarios)

    @pytest.mark.parametrize("scenario", [
        make_scenario(),
        make_scenario(n_bands=2, ratio=50.0, session_interarrival=100.0),
        heterogeneous_scenario([(2.0, 0.8, 1.0), (1.0, 1.0, 2.0), (0.5, 0.3, 0.5)],
                               40.0, 0.2),
    ])
    def test_arrays_are_the_solutions(self, scenario):
        # eps, residual, steps and path per row bit for bit, NaN where the row
        # has an error, whose status names its kind; uncovered rows included
        rates = np.append(SCAN * min(b.bandwidth for b in scenario.bands), 3000.0)
        demands = np.resize([1.0, 0.0, 0.3, 5.0], len(rates))
        rows = solve_epsilons(scenario, rates, demands)
        # a row's own traffic has demand C = d exactly: files of mean d, one
        # per unit time, or no sessions at d = 0
        traffics = [TrafficModel(1.0, SizeDistribution("exponential", d)) if d
                    else TrafficModel(math.inf, scenario.traffic.file_size)
                    for d in demands.tolist()]
        assert_rows_are_single_solves(
            rows, rates, [replace(scenario, traffic=t) for t in traffics])
        assert {SOLVED, UNCOVERED, OVERLOADED} <= set(rows.status.tolist())

    def test_uncovered_rate_is_named_before_solving(self, default_scenario):
        # past R/W = 1024 no band covers any user: that row fails at once and
        # without numpy warnings, and leaves the other rows as they were
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = solve_epsilons(default_scenario, [4.0, 2000.0])
            with pytest.raises(InfeasibleError) as far:
                solve_equilibrium(replace(default_scenario, target_rate=2000.0))
        assert_rows_are_single_solves(rows, [4.0], [default_scenario])  # row 0
        assert rows.status[1] == UNCOVERED and math.isnan(rows.epsilon[1])
        assert str(far.value) == "no band covers a user at target rate 2000"

    def test_rejects_bad_rates(self, default_scenario):
        for rates in ([1.0, 0.0], [[1.0]], [-2.0]):
            with pytest.raises(ValueError):
                solve_epsilons(default_scenario, rates)
        for demands in ([1.0, 2.0, 3.0], [1.0, -1.0], [[1.0], [1.0]]):
            with pytest.raises(ValueError):
                solve_epsilons(default_scenario, [1.0, 2.0], demands)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 5.0]),
                              st.floats(min_value=0.05, max_value=1.0),
                              st.floats(min_value=0.2, max_value=5.0)),
                    min_size=1, max_size=20),
           st.floats(min_value=1.0, max_value=300.0),
           st.floats(min_value=0.01, max_value=0.5))
    def test_matches_independent_oracle(self, bands, ratio, capacity):
        scenario = heterogeneous_scenario(bands, ratio, capacity)
        rates = SCAN * min(b[0] for b in bands)
        rows = solve_epsilons(scenario, rates)
        for rate, status, eps, residual in zip(rates.tolist(), rows.status,
                                               rows.epsilon.tolist(),
                                               rows.residual.tolist()):
            if status != SOLVED:
                continue
            at_rate = replace(scenario, target_rate=rate)
            mapped, eps_n, loads = oracle_epsilon_map(at_rate, eps)
            # the oracle map's 1 - exp(...) is exact only to an ulp of 1
            assert abs(abs(eps - mapped) - residual) <= 1e-13 * eps + 2.0**-52
            sol = solve_equilibrium(at_rate)
            for band, b, e, load in zip(scenario.bands, sol.bands, eps_n, loads):
                cov = oracle_coverage(rate, band.bandwidth)
                assert b.coverage == pytest.approx(cov, rel=1e-13, abs=0)
                assert b.service == pytest.approx(e, rel=1e-13, abs=0)
                assert b.load == pytest.approx(load, rel=1e-13, abs=0)


def mp_equilibrium(scenario):
    """The root eps* of eps = map(eps) and the slope h'(eps*) of the residual
    h(eps) = eps - map(eps), at 30 digits: coverage, share and access restated
    in mpmath on the scenario's float inputs, and g(p) = rho_s solved for the
    activity p = rho_s / eps with ``mpmath.findroot``; at C = 0 the map is
    constant and eps* = 1 - prod_n(1 - vacancy_n coverage_n)."""
    with mpmath.workdps(30):
        rate = mpmath.mpf(scenario.target_rate)
        bands = scenario.bands
        coverage = [1 / (1 + r * mpmath.atan(r)) for r in
                    (mpmath.sqrt(2 ** (rate / b.bandwidth) - 1) for b in bands)]
        vc = [b.vacancy * c for b, c in zip(bands, coverage)]
        # contention at full activity: thinning x coverage x users per BS x share
        full = [scenario.thinning * c * scenario.user_density / b.bs_density
                * w / mpmath.fsum(vc) for b, c, w in zip(bands, coverage, vc)]

        def mapped(p):  # 1 - prod_n(1 - eps_n) at activity p
            access = [(1 - (1 + a * p / 3.5) ** -3.5) / (a * p) for a in full]
            return 1 - mpmath.fprod(1 - w * x for w, x in zip(vc, access))

        rho = mpmath.mpf(scenario.traffic.capacity) / rate
        if rho == 0:
            return 1 - mpmath.fprod(1 - w for w in vc), mpmath.mpf(1)
        p = mpmath.findroot(lambda p: p * mapped(p) - rho, (rho, 1), solver="anderson")
        root = rho / p
        return root, mpmath.diff(lambda e: e - mapped(rho / e), root)


class TestUniqueRoot:
    """The residual h(eps) = eps - map(eps) rises through one root, which
    exists exactly when the demand is at most the capacity limit (the proof
    is in the ``secnet.equilibrium`` module docstring)."""

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 5.0]),
                              st.floats(min_value=0.05, max_value=1.0),
                              st.floats(min_value=0.2, max_value=5.0)),
                    min_size=1, max_size=20),
           st.floats(min_value=1.0, max_value=300.0),
           st.floats(min_value=0.01, max_value=0.5),
           st.floats(min_value=0.3, max_value=2.0))
    def test_residual_never_falls_on_the_prescan(self, bands, ratio, capacity,
                                                 thinning):
        # on the solver's pre-scan of (C/R + 1e-9, 1], once h is positive it
        # stays positive, so the last point where it is not brackets the root
        scenario = replace(heterogeneous_scenario(bands, ratio, capacity),
                           thinning=thinning)
        for rate in SCAN * min(b[0] for b in bands):
            at_rate = replace(scenario, target_rate=float(rate))
            lo = rho_s(at_rate) + 1e-9
            if lo >= 1.0:
                continue
            grid = np.linspace(lo, 1.0, equilibrium._PRESCAN_POINTS)
            positive = np.array(
                [g - oracle_epsilon_map(at_rate, g)[0] > 0.0 for g in grid])
            assert np.all(positive[:-1] <= positive[1:])

    @pytest.mark.parametrize("point", [0, 10])
    def test_root_on_a_prescan_point(self, monkeypatch, default_scenario, point):
        # a map whose residual 10 (eps - root) is zero at a pre-scan point, and
        # too steep for damped Picard (each step multiplies the error by -4),
        # so the root is found by the bracket that starts at that point
        lo = np.array([rho_s(default_scenario) + 1e-9])
        root = np.linspace(lo, 1.0, equilibrium._PRESCAN_POINTS, axis=1)[0, point]

        def steep_map(vc, ck, eps):
            return eps - 10.0 * (eps - root), 0.5 * vc

        monkeypatch.setattr(equilibrium, "_epsilon_map", steep_map)
        sol = solve_equilibrium(default_scenario)
        assert sol.method == "bisection"
        assert sol.residual <= 1e-10
        assert sol.epsilon == pytest.approx(root, abs=1e-11)

    @pytest.mark.parametrize("n_bands, ratio, rate", [
        (1, 5.0, 2.0), (5, 50.0, 0.5), (5, 50.0, 4.0), (5, 50.0, 9.0),
        (20, 300.0, 2.0),
    ])
    def test_feasible_exactly_up_to_the_capacity_limit(self, n_bands, ratio, rate):
        # N identical bands at demand C = L (1 -+ delta), L the capacity limit;
        # delta clears the search interval's 1e-9 offset: delta * C/R >= 1e-8
        limit = capacity_limit_fixed_band(make_scenario(n_bands, ratio), rate)
        delta = max(1e-6, 1e-8 * rate / limit)

        def at_demand(c):  # files of mean 10 every 10 / c
            return make_scenario(n_bands=n_bands, ratio=ratio, target_rate=rate,
                                 session_interarrival=10.0 / c)

        assert solve_equilibrium(at_demand(limit * (1 - delta))).residual <= 1e-10
        with pytest.raises(InfeasibleError) as info:
            solve_equilibrium(at_demand(limit * (1 + delta)))
        named = float(re.search(r"R\*g\(1\) = (\S+)", str(info.value)).group(1))
        assert named == pytest.approx(limit, rel=1e-5)  # printed to 6 digits


class TestThirtyDigitRoot:
    @pytest.mark.parametrize("scenario, method", [
        (make_scenario(), "picard"),
        (make_scenario(n_bands=2, ratio=50.0, session_interarrival=100.0,
                       target_rate=float(SCAN[50])), "bisection"),
        (make_scenario(n_bands=5, ratio=200.0, session_interarrival=30.0,
                       target_rate=float(SCAN[59])), "bisection"),
        (make_scenario(session_interarrival=math.inf), "picard"),
    ], ids=["default", "bisection-2-bands", "bisection-5-bands", "no-demand"])
    def test_error_within_reported_residual(self, scenario, method):
        # |eps - eps*| <= |h(eps)| / |h'(eps*)|: the reported residual is
        # honest, up to the rounding of the float map
        sol = solve_equilibrium(scenario)
        assert sol.method == method
        root, slope = mp_equilibrium(scenario)
        bound = (sol.residual + 1e-15) / abs(slope)
        assert abs(mpmath.mpf(sol.epsilon) - root) <= bound

    @pytest.mark.parametrize("rate", [60.0, 90.0])
    def test_zero_demand_root_in_closed_form(self, rate):
        # at C = 0 the map does not depend on eps and its value is the root,
        # also below the 1e-9 offset of the C > 0 search (1.8e-14 at R = 90)
        scenario = make_scenario(n_bands=1, target_rate=rate,
                                 session_interarrival=math.inf)
        sol = solve_equilibrium(scenario)
        root = mp_equilibrium(scenario)[0]
        assert sol.method == "picard"
        assert abs(mpmath.mpf(sol.epsilon) - root) <= 1e-12 * root


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
        assert 2.0 / 3.0 * 200.0 * rho_s(scn) >= 1.0
        with pytest.raises(InfeasibleError):
            single_band_explicit(scn)
