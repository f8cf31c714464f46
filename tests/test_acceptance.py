"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every criterion is asserted at its stated tolerance, data and seed, so a
criterion that fails stays red and its printed line says by how much.  Two
fail today, each for a reason its docstring gives:

- criterion 1: the optimized fixed-system capacity is convex in
  log2(ratio), so no straight line meets +/- 0.01 at the five ratios (a
  minimax line misses by 0.0107).  Whether the form, the coefficients or
  the target is at fault is open until the thinning default is fixed.
- criterion 3: ``geometry.DEFAULT_THINNING = 2/3`` is wrong.  Against the
  contender law of an in-coverage user the refitted constant is about 1,
  and at 2/3 the model overstates the oracle's access probability by 33 %
  and 50 % at ratios 5 and 50.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize_scalar

from secnet import capacity as cap
from secnet import geometry
from secnet.capacity import (
    capacity_limit_derivative,
    capacity_limit_fixed_band,
    min_delay_over_rate,
    optimal_rate_fixed_band,
    optimize_fixed_system,
    scaling_approximation,
)
from secnet.equilibrium import solve_equilibrium
from secnet.queueing import (
    OutageModel,
    SizeDistribution,
    TrafficModel,
    delay_cdf,
    delay_transform,
    mean_delay,
)
from secnet.simulate import (
    QueueSimConfig,
    SpatialSimConfig,
    empirical_cdf,
    empirical_user_count_pmf,
    run_priority_queue,
    spatial_coverage,
)

from conftest import (
    capacity_limit_fixed_system,
    in_coverage_count_pmf,
    make_scenario,
    transmission_time_mean,
    transmission_transform,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_capacity_scaling_fit():
    """Jointly optimized fixed-system capacity vs the log-linear fit,
    within +/- 0.01 at density ratios 2, 10, 50, 100, 500.

    Fails: the optimized capacity is convex in log2(ratio), so no straight
    line meets the tolerance.  A minimax line through these five ratios
    misses by 0.0107, and one over 41 ratios in [2, 500] by 0.0109, so no
    refit of ``scaling_approximation``'s coefficients can pass.  The curve
    also moves with the thinning default (see criterion 3): at thinning 1
    the shipped line is off by -0.016 to -0.047.  Which of the form, the
    coefficients or the target is at fault is left open until then.
    """
    ratios = [2.0, 10.0, 50.0, 100.0, 500.0]
    deviations = []
    for ratio in ratios:
        _, _, c_star = optimize_fixed_system(make_scenario(ratio=ratio))
        deviations.append(c_star - scaling_approximation(ratio))
    worst = max(abs(d) for d in deviations)
    detail = ", ".join(
        f"ratio {r:g}: {d:+.4f}" for r, d in zip(ratios, deviations)
    ) + f"; tolerance 0.01"
    report(1, "capacity scaling fit", worst <= 0.01, detail)


def test_criterion_2_bandwidth_mode_identity():
    """N times the fixed-system maximum equals the fixed-band maximum.

    The fixed-system maximum is the direct mode-II limit maximized over the
    per-band rate: a 400-point scan brackets it and bounded Brent polishes it.
    """
    worst = 0.0
    for n in range(1, 21):
        scenario = make_scenario(n_bands=n, ratio=50.0)
        c1 = optimal_rate_fixed_band(scenario).capacity
        grid = np.geomspace(1e-3, 50.0, 400) / n
        k = int(np.argmax(capacity_limit_fixed_system(scenario, grid)))
        res = minimize_scalar(
            lambda r: -capacity_limit_fixed_system(scenario, r),
            bounds=(grid[k - 1], grid[k + 1]), method="bounded",
            options={"xatol": 1e-10 * grid[k]},
        )
        worst = max(worst, abs(n * -res.fun - c1) / c1)
    report(2, "bandwidth mode identity", worst <= 1e-8,
           f"max relative gap {worst:.2e} over N=1..20, tolerance 1e-8")


def _contender_pmf(ratio, threshold, n_cells=100_000):
    """Contender law of an in-coverage user from the per-cell oracle.

    ``empirical_user_count_pmf`` samples one count per interior cell, h(j).
    A random in-coverage user sits in a cell of j covered users with
    probability proportional to j h(j), and has j - 1 contenders besides
    itself, so its contender PMF is q(k) = (k+1) h(k+1) / sum_j j h(j).
    """
    reps = max(int(math.ceil(n_cells / (0.36 * 500))), 1)
    cfg = SpatialSimConfig(
        window_side=math.sqrt(500 / 1e-6), bs_density=1e-6,
        user_density=ratio * 1e-6, guard_fraction=0.2,
        replications=reps, seed=0,
    )
    rep = empirical_user_count_pmf(cfg, threshold)
    per_cell = rep.arrays["pmf"]
    j = np.arange(len(per_cell))
    contenders = j[1:] * per_cell[1:] / np.dot(j, per_cell)
    return contenders, rep


def test_criterion_3_contender_pmf_approximation():
    """Contender PMF of an in-coverage user (from the per-cell Monte Carlo
    counts) vs the thinned mixture model, total variation <= 0.05 at BS
    density 1e-6, ratios 5 and 50.

    ``in_coverage_count_pmf`` is the law of the contenders K that
    ``access_probability`` averages 1/(K+1) over, so the model is compared
    with that law, not with the per-cell count.  Fails: the default
    thinning 2/3 is wrong.  Against this law the refitted constant is
    1.005 and 1.010, and at thinning 1 the TV is 0.0064 and 0.0177.  The
    printed line sets the oracle's access estimate beside the model's, the
    quantity the fault carries into the service probability.
    """
    threshold = 1.0
    p = geometry.sinr_ccdf_lim(threshold)
    results = {}
    for ratio in (5.0, 50.0):
        contenders, rep = _contender_pmf(ratio, threshold)
        contention = geometry.DEFAULT_THINNING * p * ratio
        model = in_coverage_count_pmf(contention, np.arange(len(contenders)))
        tv = 0.5 * float(np.abs(model - contenders).sum())
        results[ratio] = (
            tv, rep.config["n_samples"], rep.estimates["access_probability"],
            geometry.access_probability(contention),
        )
    ok = all(tv <= 0.05 for tv, _, _, _ in results.values())
    detail = "; ".join(
        f"ratio {r:g}: TV {tv:.4f} over {n} cells, access "
        f"{acc.value:.4f} +/- {acc.ci99_half_width:.4f} (oracle, 99% CI) "
        f"vs {model_acc:.4f} (model)"
        for r, (tv, n, acc, model_acc) in results.items()
    ) + "; tolerance 0.05"
    report(3, "contender PMF approximation", ok, detail)


def test_criterion_4_exponential_span_approximation():
    """Simulated transmission-span CDF vs the exact span law, KS <= 0.02
    on criterion 5's grid, and the simulated mean span's 99% CI holding
    the interruption-inflated mean.

    The exact law is ``conftest.transmission_transform``, inverted: the
    span stage of the delay transform secnet implements.  The exponential law with the
    same mean, which the test name refers to, is used nowhere in secnet:
    it lies KS 0.0485, 0.0247 and 0.0170 from the exact law at these loads.
    Its distance is printed, so the line shows that the check tells the
    two laws apart.
    """
    alpha_o, rho_o = 0.1, 0.3
    outage = OutageModel(alpha_o)
    results = {}
    for rho_s in (0.1, 0.3, 0.5):
        traffic = TrafficModel(1.0, SizeDistribution("exponential", rho_s))
        cfg = QueueSimConfig(
            session_interarrival_mean=1.0,
            outage_interarrival_mean=alpha_o,
            file_size=traffic.file_size,
            outage_duration=outage.duration_distribution(rho_o * alpha_o),
            rate=1.0,
            horizon_sessions=1_000_000,
            seed=0,
        )
        rep = run_priority_queue(cfg)
        span_mean = transmission_time_mean(rho_s, rho_o)
        handle = delay_transform(traffic, outage, 1.0 - rho_o, 1.0)
        grid = np.geomspace(span_mean / 100.0, span_mean * 25.0, 150)
        exact = delay_cdf(lambda s: transmission_transform(handle, s), grid).values
        ks = float(np.abs(exact - empirical_cdf(rep.arrays["spans"], grid)).max())
        expo = float(np.abs(exact - stats.expon(scale=span_mean).cdf(grid)).max())
        results[rho_s] = (ks, expo, rep.estimates["mean_span"], span_mean)
    ok = all(
        ks <= 0.02 and abs(est.value - mean) <= est.ci99_half_width
        for ks, _, est, mean in results.values()
    )
    detail = "; ".join(
        f"rho_s {r:g}: KS {ks:.4f} (exponential law {expo:.4f}), mean span "
        f"{est.value:.5f} +/- {est.ci99_half_width:.5f} vs {mean:.5f}"
        for r, (ks, expo, est, mean) in results.items()
    ) + "; tolerance 0.02"
    report(4, "transmission span law", ok, detail)


def test_criterion_5_delay_formula_validation():
    """Simulated mean delay within 3% of the analytic formula and delay
    CDF within KS 0.02 of the inverted transform, on five stable loads."""
    cases = [(0.1, 0.2), (0.2, 0.3), (0.3, 0.3), (0.2, 0.5), (0.3, 0.6)]
    worst_rel, worst_ks = 0.0, 0.0
    for rho_s, rho_o in cases:
        alpha_o = 0.5
        traffic = TrafficModel(1.0 / rho_s, SizeDistribution("exponential", 1.0))
        outage = OutageModel(alpha_o)
        eps = 1.0 - rho_o
        cfg = QueueSimConfig(
            session_interarrival_mean=1.0 / rho_s,
            outage_interarrival_mean=alpha_o,
            file_size=traffic.file_size,
            outage_duration=outage.duration_distribution(alpha_o * rho_o),
            rate=1.0,
            horizon_sessions=300_000,
            seed=11,
        )
        rep = run_priority_queue(cfg)
        analytic = mean_delay(traffic, outage, eps, 1.0)
        rel = abs(rep.estimates["mean_delay"].value - analytic) / analytic
        worst_rel = max(worst_rel, rel)
        handle = delay_transform(traffic, outage, eps, 1.0)
        grid = np.geomspace(analytic / 100.0, analytic * 25.0, 150)
        ana = delay_cdf(handle, grid).values
        emp = empirical_cdf(rep.arrays["delays"], grid)
        worst_ks = max(worst_ks, float(np.abs(ana - emp).max()))
    ok = worst_rel <= 0.03 and worst_ks <= 0.02
    report(5, "delay formula validation", ok,
           f"worst mean-delay deviation {worst_rel:.4f} (tol 0.03), "
           f"worst CDF KS {worst_ks:.4f} (tol 0.02)")


def test_criterion_6_coverage_closed_loop():
    """Spatial Monte Carlo coverage agrees with the closed form within the
    99% CI at thresholds 0.5, 1, 3 with 1e5 users."""
    cfg = SpatialSimConfig(
        window_side=40.0, bs_density=1.0, user_density=1.25,
        guard_fraction=0.2, replications=50, seed=0,
    )
    lines, ok = [], True
    for x in (0.5, 1.0, 3.0):
        rep = spatial_coverage(cfg, x)
        est = rep.estimates["coverage"]
        truth = geometry.sinr_ccdf_lim(x)
        hit = abs(est.value - truth) <= est.ci99_half_width
        ok = ok and hit
        lines.append(
            f"x={x:g}: {est.value:.5f} vs {truth:.5f} "
            f"(CI +/- {est.ci99_half_width:.5f}, n={rep.config['n_users']})"
        )
    report(6, "coverage closed loop", ok, "; ".join(lines))


def _capacity_at_fixed_delay(n_bands, target_delay, ratio=50.0):
    """Invert the optimized delay curve: demand C with min-over-rate mean
    delay equal to ``target_delay``."""

    def delay_of(c):
        scn = make_scenario(n_bands=n_bands, ratio=ratio)
        try:
            delay = min_delay_over_rate(scn, np.array([10.0 / c]))[1][0]
        except Exception:
            return math.inf
        return math.inf if math.isnan(delay) else float(delay)

    lo, hi = 1e-3, 0.5
    while delay_of(hi) < target_delay:
        hi *= 2.0
        if hi > 1e3:
            raise RuntimeError("fixed-delay capacity bracket not found")
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if delay_of(mid) < target_delay:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3 * hi:
            break
    return 0.5 * (lo + hi)


def test_criterion_7_qualitative_shapes():
    """Shape properties of the main numerical curves."""
    problems = []

    # (a) the capacity limit has a unique interior maximum in the rate
    scenario = make_scenario(n_bands=5, ratio=50.0)
    grid = np.geomspace(0.05, 20.0, 400)
    vals = np.array([capacity_limit_fixed_band(scenario, r) for r in grid])
    k = int(np.argmax(vals))
    if not 0 < k < len(grid) - 1:
        problems.append("capacity optimum not interior")
    if not (np.all(np.diff(vals[: k + 1]) > 0) and np.all(np.diff(vals[k:]) < 0)):
        problems.append("capacity curve not unimodal in rate")

    # (a') the mean delay is U-shaped in the rate at C = 1
    scn = make_scenario()
    rgrid = np.geomspace(2.8, 12.0, 60)
    delays = cap.operating_points(
        scn, rgrid, np.full(len(rgrid), scn.traffic.session_interarrival_mean))[1]
    finite = np.isfinite(delays)
    dk = int(np.argmin(np.where(finite, delays, np.inf)))
    if not 0 < dk < len(rgrid) - 1:
        problems.append("delay optimum not interior")
    d = delays[finite]
    kk = int(np.argmin(d))
    if not (np.all(np.diff(d[: kk + 1]) < 0) and np.all(np.diff(d[kk:]) > 0)):
        problems.append("delay curve not U-shaped in rate")

    # (b) capacity at fixed delay approximately linear in the band count
    ns = np.arange(1, 11)
    caps = np.array([_capacity_at_fixed_delay(n, 50.0) for n in ns])
    slope, intercept = np.polyfit(ns, caps, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((caps - fitted) ** 2))
    ss_tot = float(np.sum((caps - caps.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    if r2 < 0.98:
        problems.append(f"fixed-delay capacity fit R^2 {r2:.4f} < 0.98")

    # (c) maximum capacity increases in N with diminishing returns
    maxima = np.array([
        optimal_rate_fixed_band(make_scenario(n_bands=n, ratio=50.0)).capacity
        for n in range(1, 11)
    ])
    gains = np.diff(maxima)
    if not np.all(gains > 0):
        problems.append("aggregation gain not monotone")
    # diminishing returns: beyond the peak marginal gain, each extra band
    # helps strictly less, and the tail gain is below the first one
    peak = int(np.argmax(gains))
    if not (np.all(np.diff(gains[peak:]) < 0) and gains[-1] < gains[0]):
        problems.append("aggregation gain not diminishing")

    # (d) fixed-system bandwidth: an interior optimal band count exists,
    # one that beats both of its neighbours
    for ratio in (5.0, 50.0):
        n_star, _, c_star = optimize_fixed_system(make_scenario(ratio=ratio))
        if n_star == 1 or c_star <= max(
            optimal_rate_fixed_band(make_scenario(n, ratio)).capacity / n
            for n in (n_star - 1, n_star + 1)
        ):
            problems.append(f"no interior optimal N at ratio {ratio:g}")

    report(7, "qualitative shape properties", not problems,
           "; ".join(problems) if problems else
           f"all shape checks hold (fixed-delay fit R^2 {r2:.4f})")


def test_criterion_8_property_suite(tmp_path):
    """Numerical property checks at their stated tolerances."""
    problems = []

    traffic = TrafficModel(5.0, SizeDistribution("exponential", 1.0))
    outage = OutageModel(0.5)
    eps, rate = 0.65, 1.0
    handle = delay_transform(traffic, outage, eps, rate)

    # transform normalization
    if abs(handle(0.0) - 1.0) > 1e-8:
        problems.append("transform not normalized")

    # mean from the transform derivative vs the closed form
    step = 1e-6
    numeric = -(handle(step) - handle(-step)) / (2.0 * step)
    rel = abs(numeric - mean_delay(traffic, outage, eps, rate)) / handle.mean
    if rel > 1e-4:
        problems.append(f"transform mean off by {rel:.2e}")

    # analytic capacity-limit derivative vs finite differences
    scenario = make_scenario(n_bands=5, ratio=50.0)
    for r in (0.5, 2.0, 5.0, 9.0):
        h = 1e-6 * r
        fd = (capacity_limit_fixed_band(scenario, r + h)
              - capacity_limit_fixed_band(scenario, r - h)) / (2.0 * h)
        if abs(capacity_limit_derivative(scenario, r) - fd) > 1e-5 * max(abs(fd), 1e-3):
            problems.append(f"derivative mismatch at rate {r:g}")

    # fixed-point residual
    sol = solve_equilibrium(make_scenario())
    if sol.residual > 1e-10:
        problems.append(f"equilibrium residual {sol.residual:.2e}")

    # Gamma with shape 1 reduces to the exponential distribution
    e = SizeDistribution("exponential", 1.7)
    g = SizeDistribution("gamma", 1.7, shape=1.0)
    for s in (0.0, 0.4, 3.0, 1.0 + 1.0j):
        if abs(e.laplace(s) - g.laplace(s)) > 1e-12:
            problems.append("gamma shape-1 reduction broken")
            break

    # byte-identical CLI reruns
    from secnet import cli

    cfg = tmp_path / "scenario.ini"
    cfg.write_text(
        "[scenario]\nuser_density = 50\ntarget_rate = 4\n\n"
        "[traffic]\nsession_interarrival_mean = 10\nfile_size_mean = 10\n\n"
        "[outage]\ninterarrival_mean = 10\n\n"
        "[band.1]\nbandwidth = 1\nvacancy = 1\nbs_density = 10\n\n"
        "[sweep]\nparameter = capacity\nmin = 0\nmax = 0.2\npoints = 4\n"
        "fixed_rate = 4\n"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["tradeoff", "--config", str(cfg), "--out", str(out_a)])
    cli.main(["tradeoff", "--config", str(cfg), "--out", str(out_b)])
    if out_a.read_bytes() != out_b.read_bytes():
        problems.append("CLI reruns not byte-identical")

    report(8, "property suite", not problems,
           "; ".join(problems) if problems else "all property checks hold")
