"""Command-line front end.

Subcommands: tradeoff, capacity, delay-cdf, equilibrium, validate.
Scenario files are INI-style key/value text with one section per band;
unknown sections or keys are hard errors.  Each command computes its whole
table before ``main`` writes it as CSV (default) or JSON lines, always
preceded by the resolved configuration so runs are reproducible byte for
byte; a run that fails writes nothing.
"""

import argparse
import configparser
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import capacity as cap
from . import geometry
from .equilibrium import BandConfig, Scenario, solve_equilibria, solve_equilibrium
from .errors import ConvergenceError, InfeasibleError, UnstableQueueError
from .queueing import (
    OutageModel,
    SizeDistribution,
    TrafficModel,
    delay_cdf,
    delay_transform,
    mean_delay,
)
from .simulate import (
    QueueSimConfig,
    SpatialSimConfig,
    empirical_cdf,
    empirical_user_count_pmf,
    refit_thinning_const,
    run_priority_queue,
    sample_voronoi_cells,
    spatial_coverage,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4  # also a usage error: an unknown flag or a missing --config
EXIT_NUMERICAL = 5
_GRID_POINTS = 200  # delay-cdf's auto grid, and its [grid] points default


class ConfigError(Exception):
    pass


_SCHEMA = {
    "scenario": {"user_density", "target_rate", "thinning"},
    "traffic": {
        "session_interarrival_mean",
        "file_size_mean",
        "file_size_family",
        "file_size_shape",
    },
    "outage": {"interarrival_mean", "duration_shape"},
    "sweep": {"parameter", "min", "max", "points", "scale", "fixed_rate"},
    "capacity": {"n_min", "n_max", "ratios"},
    "grid": {"t_min", "t_max", "points", "scale"},
    "validate": {"users", "cells", "sessions", "thinning", "ratio"},
}
_BAND_KEYS = {"bandwidth", "vacancy", "bs_density"}


def load_config(path):
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section.startswith("band."):
            allowed = _BAND_KEYS
        elif section in _SCHEMA:
            allowed = _SCHEMA[section]
        else:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return parser


def _getfloat(parser, section, key, default=None):
    """Finite float value of ``[section] key``; ``default`` when the key or the
    whole section is absent, and a ``ConfigError`` when no default is given."""
    if default is not None and not parser.has_option(section, key):
        return default
    try:
        value = parser.getfloat(section, key)
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"bad or missing value for [{section}] {key}: {exc}")
    return value


def _getint(parser, section, key, default=None):
    """``_getfloat`` for a count: 200 or 200.0, and a fraction is an error."""
    value = _getfloat(parser, section, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"[{section}] {key} must be an integer, got {value:g}")
    return int(value)


def build_scenario(parser):
    try:
        bands = []
        band_sections = sorted(
            (s for s in parser.sections() if s.startswith("band.")),
            key=lambda s: int(s.split(".", 1)[1]),
        )
        if not band_sections:
            raise ConfigError("no [band.N] sections found")
        for s in band_sections:
            bands.append(
                BandConfig(
                    bandwidth=_getfloat(parser, s, "bandwidth"),
                    vacancy=_getfloat(parser, s, "vacancy"),
                    bs_density=_getfloat(parser, s, "bs_density"),
                )
            )
        family = parser.get("traffic", "file_size_family", fallback="exponential")
        shape = _getfloat(parser, "traffic", "file_size_shape", default=1.0)
        file_size = SizeDistribution(
            family, _getfloat(parser, "traffic", "file_size_mean"), shape
        )
        traffic = TrafficModel(
            _getfloat(parser, "traffic", "session_interarrival_mean"), file_size
        )
        outage = OutageModel(
            _getfloat(parser, "outage", "interarrival_mean"),
            _getfloat(parser, "outage", "duration_shape", default=1.0),
        )
        return Scenario(
            user_density=_getfloat(parser, "scenario", "user_density"),
            bands=bands,
            target_rate=_getfloat(parser, "scenario", "target_rate"),
            traffic=traffic,
            outage=outage,
            thinning=_getfloat(
                parser, "scenario", "thinning", default=geometry.DEFAULT_THINNING
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _fmt(value):
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def _write(out, fmt, columns, echo, rows, failed):
    """Write a table to the path ``out`` ("-" is stdout): CSV, with the
    ``echo`` comment block and a ``# FAILED:`` footer naming ``failed``, or
    JSON lines, with non-finite numbers as null (RFC 8259 has no NaN)."""
    if fmt == "csv":
        lines = [f"# {key} = {echo[key]}" for key in sorted(echo)]
        lines.append(",".join(columns))
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        if failed:
            lines.append(f"# FAILED: {', '.join(failed)}")
    else:
        lines = [json.dumps({"config": echo}, sort_keys=True)]
        for row in rows:
            obj = {c: None if isinstance(v, float) and not math.isfinite(v) else v
                   for c, v in zip(columns, row)}
            lines.append(json.dumps(obj, sort_keys=True, default=_fmt))
    text = "".join(line + "\n" for line in lines)
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}")


def _spaced(section, lo, hi, points, scale):
    """``points`` values from ``lo`` to ``hi`` on the ``[section]`` scale."""
    if scale == "linear":
        return np.linspace(lo, hi, points)
    if scale == "log":
        if min(lo, hi) <= 0:
            raise ConfigError(f"log {section} needs min and max > 0")
        return np.geomspace(lo, hi, points)
    raise ConfigError(f"unknown {section} scale {scale!r}")


def _sweep_values(parser):
    points = _getint(parser, "sweep", "points")
    if points < 2:
        raise ConfigError("sweep points must be >= 2")
    lo = _getfloat(parser, "sweep", "min")
    hi = _getfloat(parser, "sweep", "max")
    return _spaced("sweep", lo, hi, points,
                   parser.get("sweep", "scale", fallback="linear"))


def cmd_tradeoff(parser, scenario, args):
    if "sweep" not in parser:
        raise ConfigError("tradeoff needs a [sweep] section")
    parameter = parser.get("sweep", "parameter", fallback="capacity")
    if parameter not in ("capacity", "target_rate"):
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    fixed_rate = None
    if "fixed_rate" in parser["sweep"]:
        if parameter == "target_rate":
            raise ConfigError("[sweep] fixed_rate would override a target_rate sweep")
        fixed_rate = _getfloat(parser, "sweep", "fixed_rate")
        if fixed_rate <= 0:
            raise ConfigError(f"[sweep] fixed_rate must be > 0, got {fixed_rate:g}")
    values = _sweep_values(parser)
    if not np.all(values >= 0) or parameter == "target_rate" and 0 in values:
        raise ConfigError(f"[sweep] {parameter} values must be >= 0 (rates > 0)")
    if parameter == "target_rate":
        traffics, rates = [scenario.traffic] * len(values), values.tolist()
    else:  # the traffic, its interarrival retuned to each demand
        mean = scenario.traffic.file_size.mean
        traffics = [replace(scenario.traffic, session_interarrival_mean=mean / c if c
                            else math.inf) for c in values.tolist()]
        proxy = replace(scenario.traffic, session_interarrival_mean=mean / 1e-9)
        rates = [fixed_rate] * len(values)
        if fixed_rate is None:  # with no traffic a vanishing-load proxy picks the rate
            optima = cap.min_delay_over_rate(
                scenario, [t if t.capacity > 0.0 else proxy for t in traffics])
            rates = [o.rate if isinstance(o, cap.DelayOptimum) else math.nan
                     for o in optima]
    rows = [(v, t.capacity, math.nan, math.nan, math.nan, 0)
            for v, t in zip(values.tolist(), traffics)]
    ok = [i for i, rate in enumerate(rates) if not math.isnan(rate)]
    for i, sol in zip(ok, solve_equilibria(
            scenario, [rates[i] for i in ok], [traffics[i].capacity for i in ok])):
        if not isinstance(sol, InfeasibleError):  # its eps > C/R: a stable queue
            delay = mean_delay(traffics[i], scenario.outage, sol.epsilon, rates[i])
            rows[i] = (*rows[i][:2], rates[i], sol.epsilon, delay, 1)
    columns = ["sweep_value", "capacity", "rate", "epsilon", "mean_delay", "feasible"]
    return columns, {}, rows, []


def cmd_capacity(parser, scenario, args):
    n_min = _getint(parser, "capacity", "n_min", default=1)
    n_max = _getint(parser, "capacity", "n_max", default=10)
    if not 1 <= n_min <= n_max:
        raise ConfigError(
            f"[capacity] needs 1 <= n_min <= n_max, got n_min {n_min}, n_max {n_max}"
        )
    band = scenario.bands[0]
    if parser.has_option("capacity", "ratios"):
        text = parser.get("capacity", "ratios")
        try:
            ratios = [float(x) for x in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value for [capacity] ratios: {exc}")
        if not all(0 < r < math.inf for r in ratios):
            raise ConfigError(f"[capacity] ratios must be finite, > 0: {text!r}")
    else:
        ratios = [scenario.user_density / band.bs_density]
    unit = replace(band, bs_density=1.0)  # so that the user density is the ratio
    rows = []
    for ratio in ratios:
        approx = cap.scaling_approximation(ratio)
        for n in range(n_min, n_max + 1):
            opt = cap.optimal_rate_fixed_band(
                replace(scenario, user_density=ratio, bands=(unit,) * n))
            c2 = opt.capacity / n
            rows.append((ratio, n, opt.rate, opt.capacity, c2, n * c2, approx))
    columns = [
        "ratio", "n_bands", "optimal_rate", "c_max_fixed_band",
        "c_max_fixed_system", "n_times_c_max_fixed_system", "scaling_approx",
    ]
    return columns, {}, rows, []


def _auto_grid(handle):
    # the floor only keeps a mean that underflows to 0 from giving a zero grid
    hi = max(handle.mean, np.finfo(float).tiny)
    for _ in range(60):
        if float(delay_cdf(handle, [hi]).values[0]) >= 0.9999:
            break
        hi *= 2.0
    return np.geomspace(hi / 1e4, hi, _GRID_POINTS)


def _queue_sim_config(scenario, epsilon, sessions, seed):
    """Queue simulator input of the analytic delay model at ``epsilon``."""
    outage = scenario.outage
    duration = outage.duration_distribution(
        outage.outage_interarrival_mean * (1.0 - epsilon)
    )
    try:
        return QueueSimConfig(
            session_interarrival_mean=scenario.traffic.session_interarrival_mean,
            outage_interarrival_mean=outage.outage_interarrival_mean,
            file_size=scenario.traffic.file_size,
            outage_duration=duration,
            rate=scenario.target_rate,
            horizon_sessions=sessions,
            seed=seed,
        )
    except ValueError as exc:  # the scenario is valid, so only the horizon fails
        raise ConfigError(f"[validate] sessions: {exc}")


def cmd_delay_cdf(parser, scenario, args):
    sol = solve_equilibrium(scenario)
    handle = delay_transform(
        scenario.traffic, scenario.outage, sol.epsilon, scenario.target_rate
    )
    if "grid" in parser:
        points = _getint(parser, "grid", "points", default=_GRID_POINTS)
        lo = _getfloat(parser, "grid", "t_min")
        hi = _getfloat(parser, "grid", "t_max")
        if points < 1 or not 0 < lo < hi:
            raise ConfigError(
                f"[grid] needs points >= 1 and 0 < t_min < t_max, got "
                f"points {points}, t_min {lo:g}, t_max {hi:g}"
            )
        grid = _spaced("grid", lo, hi, points,
                       parser.get("grid", "scale", fallback="log"))
    else:
        grid = _auto_grid(handle)
    result = delay_cdf(handle, grid)
    extra = {"epsilon": _fmt(sol.epsilon),
             **{f"inversion.{k}": v for k, v in result.metadata.items()}}
    columns = ["t", "cdf"]
    rows = [[float(t), float(v)] for t, v in zip(grid, result.values)]
    failed = []
    if args.validate:
        sessions = _getint(parser, "validate", "sessions", default=200000)
        rep = run_priority_queue(
            _queue_sim_config(scenario, sol.epsilon, sessions, args.seed)
        )
        empirical = empirical_cdf(rep.arrays["delays"], grid)
        ks = float(np.abs(empirical - result.values).max())
        extra["validate.ks"] = _fmt(ks)
        columns.append("empirical_cdf")
        rows = [row + [float(e)] for row, e in zip(rows, empirical)]
        if ks > 0.02:
            failed.append("validate.ks")
    return columns, extra, rows, failed


def cmd_equilibrium(parser, scenario, args):
    sol = solve_equilibrium(scenario)
    extra = {key: _fmt(getattr(sol, key))
             for key in ("epsilon", "rho_o", "rho_s", "p_active", "residual")}
    extra["method"] = sol.method
    rows = [(i, b.service, b.coverage, b.access, b.load)
            for i, b in enumerate(sol.bands, start=1)]
    return ["band", "service", "coverage", "access", "load"], extra, rows, []


def cmd_validate(parser, scenario, args):
    users = _getint(parser, "validate", "users", default=20000)
    cells = _getint(parser, "validate", "cells", default=20000)
    sessions = _getint(parser, "validate", "sessions", default=100000)
    thinning = _getfloat(parser, "validate", "thinning", default=scenario.thinning)
    ratio = _getfloat(parser, "validate", "ratio", default=5.0)
    if min(users, cells, thinning, ratio) <= 0:
        raise ConfigError(f"[validate] users, cells, thinning and ratio must be > 0, "
                          f"got {users}, {cells}, {thinning:g} and {ratio:g}")
    seed = args.seed
    sol = solve_equilibrium(scenario)
    queue_cfg = _queue_sim_config(scenario, sol.epsilon, sessions, seed)
    checks = []

    # 1. interference-limited coverage against the closed form
    side, bs_density = 40.0, 1.0
    user_density = users / (0.36 * side * side * 25)
    cfg = SpatialSimConfig(side, bs_density, max(user_density, 0.2), 0.2, 25, seed)
    for x in (0.5, 1.0, 3.0):
        rep = spatial_coverage(cfg, x)
        est = rep.estimates["coverage"]
        target = geometry.sinr_ccdf_lim(x)
        checks.append(
            (f"coverage_x_{x:g}", abs(est.value - target), est.ci99_half_width,
             est.contains(target))
        )

    # 2. contender-count PMF against the mixture approximation
    reps = max(int(cells / (0.36 * 500)), 1)
    cfg2 = SpatialSimConfig(
        math.sqrt(500 / 1e-6), 1e-6, ratio * 1e-6, 0.2, reps, seed
    )
    rep2 = empirical_user_count_pmf(cfg2, 1.0)
    if rep2.warnings:  # no covered user to count: the refit would be meaningless
        raise ConfigError(f"[validate] ratio {ratio:g}: {rep2.warnings[0]}")
    p = geometry.sinr_ccdf_lim(1.0)
    k = np.arange(len(rep2.arrays["pmf"]))
    model = geometry.in_coverage_count_pmf(thinning * p * ratio, k)
    # both checks compare the model with the per-cell count, not with the
    # contender law of an in-coverage user that the model describes, so
    # their gap is no intrinsic bias of the model: at ratio 5 the default
    # 2/3 is TV 0.07 from the per-cell count (refit 0.76) but TV 0.21 from
    # the contender law, which refits to 1.005 (see geometry.DEFAULT_THINNING)
    tv = 0.5 * float(np.abs(model - rep2.arrays["pmf"]).sum())
    checks.append(("contender_pmf_tv", tv, 0.10, tv <= 0.10))
    refit = refit_thinning_const(rep2.arrays["pmf"], ratio, p)
    checks.append(("thinning_refit", refit, 0.80, 0.55 <= refit <= 0.80))

    # 3. Voronoi cell-size laws
    cfg3 = SpatialSimConfig(math.sqrt(500.0), 1.0, 1.0, 0.2, reps, seed)
    rep3 = sample_voronoi_cells(cfg3)
    ks_t = rep3.estimates["ks_typical"].value
    ks_u = rep3.estimates["ks_user_weighted"].value
    checks.append(("voronoi_ks_typical", ks_t, 0.02, ks_t <= 0.02))
    checks.append(("voronoi_ks_user", ks_u, 0.02, ks_u <= 0.02))

    # 4. queue: DES against the analytic mean delay and delay CDF
    qrep = run_priority_queue(queue_cfg)
    handle = delay_transform(
        scenario.traffic, scenario.outage, sol.epsilon, scenario.target_rate
    )
    analytic = handle.mean
    rel = abs(qrep.estimates["mean_delay"].value - analytic) / analytic
    checks.append(("queue_mean_delay_rel", rel, 0.03, rel <= 0.03))
    grid = np.geomspace(analytic / 100, analytic * 20, 120)
    ana = delay_cdf(handle, grid).values
    emp = empirical_cdf(qrep.arrays["delays"], grid)
    ksq = float(np.abs(ana - emp).max())
    checks.append(("queue_delay_cdf_ks", ksq, 0.02, ksq <= 0.02))

    rows = [(name, float(stat), float(tol), int(ok)) for name, stat, tol, ok in checks]
    failed = [name for name, _, _, ok in checks if not ok]
    return ["check", "statistic", "tolerance", "passed"], {}, rows, failed


_COMMANDS = {
    "tradeoff": cmd_tradeoff,
    "capacity": cmd_capacity,
    "delay-cdf": cmd_delay_cdf,
    "equilibrium": cmd_equilibrium,
    "validate": cmd_validate,
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Usage error: argparse's message, but ``EXIT_CONFIG`` in place of 2,
        which means infeasible here."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _seed(text):
    """``--seed``: an integer >= 0, the seeds numpy's generators take."""
    if not text.isdecimal():  # no sign, so no negative seed
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def make_parser():
    ap = _ArgumentParser(prog="secnet")
    ap.add_argument("subcommand", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default="-")
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--validate", action="store_true")
    ap.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        parser = load_config(args.config)
        command = _COMMANDS[args.subcommand]
        columns, extra, rows, failed = command(parser, build_scenario(parser), args)
        echo = {f"{section}.{key}": value for section in parser.sections()
                for key, value in parser[section].items()}
        echo.update(extra, seed=args.seed, subcommand=args.subcommand)
        _write(args.out, args.format, columns, echo, rows, failed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, UnstableQueueError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_VALIDATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
