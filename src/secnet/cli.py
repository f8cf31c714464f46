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
import functools
import json
import math
import sys

import numpy as np

from . import capacity as cap
from . import geometry
from .equilibrium import BandConfig, Scenario, solve_equilibrium
from .errors import ConvergenceError, InfeasibleError, UnstableQueueError
from .queueing import (
    OutageModel,
    SizeDistribution,
    TrafficModel,
    delay_cdf,
    delay_transform,
)
from .simulate import QueueSimConfig, empirical_cdf, run_priority_queue

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 4  # also a usage error: an unknown flag or a missing --config
EXIT_NUMERICAL = 5
_GRID_POINTS = 200  # delay-cdf's auto grid, and its [grid] points default
_KS_TOLERANCE = 0.02  # simulated against analytic delay CDF, sup distance


class ConfigError(Exception):
    pass


_REQUIRED = "required"
_SPACING = {"linear": np.linspace, "log": np.geomspace}
# Every config key, as (kind, default, bound).  A kind is float (finite), int
# (a count: 200 or 200.0, not 2.5), list (comma-separated floats), str, or the
# choices the value must be one of.  A default of None leaves an absent key to
# the command that reads it.  The keys that build the model have no bound here:
# BandConfig, Scenario and the queueing types check their ranges for every caller.
_KEYS = {
    "scenario": {
        "user_density": (float, _REQUIRED, None),
        "target_rate": (float, _REQUIRED, None),
        "thinning": (float, geometry.DEFAULT_THINNING, None),
    },
    "traffic": {
        "session_interarrival_mean": (float, _REQUIRED, None),
        "file_size_mean": (float, _REQUIRED, None),
        "file_size_family": (str, "exponential", None),
        "file_size_shape": (float, 1.0, None),
    },
    "outage": {
        "interarrival_mean": (float, _REQUIRED, None),
        "duration_shape": (float, 1.0, None),
    },
    "band.N": {
        "bandwidth": (float, _REQUIRED, None),
        "vacancy": (float, _REQUIRED, None),
        "bs_density": (float, _REQUIRED, None),
    },
    "sweep": {
        "parameter": (("capacity", "target_rate"), "capacity", None),
        "min": (float, _REQUIRED, None),
        "max": (float, _REQUIRED, None),
        "points": (int, _REQUIRED, ">= 2"),
        "scale": (_SPACING, "linear", None),
        "fixed_rate": (float, None, "> 0"),
    },
    "capacity": {
        "n_min": (int, 1, ">= 1"),
        "n_max": (int, 10, None),
        "ratios": (list, None, "> 0"),
    },
    "grid": {
        "t_min": (float, _REQUIRED, "> 0"),
        "t_max": (float, _REQUIRED, None),
        "points": (int, _GRID_POINTS, ">= 1"),
        "scale": (_SPACING, "log", None),
    },
    "validate": {
        "sessions": (int, None, None),
    },
}


def _rows(section):
    """The ``_KEYS`` rows of a config section, None for an unknown one: every
    ``[band.N]`` with N in decimal digits shares the ``band.N`` rows."""
    head, _, number = section.partition(".")
    if head == "band":
        return _KEYS["band.N"] if number.isdecimal() else None
    return _KEYS.get(section)


def load_config(path):
    """The UTF-8 INI file ``path`` as ``{section: {key: text}}`` in file order,
    keys lower-cased and values stripped; a ``ConfigError`` if it is not valid."""
    # no default section: a header needs a character, so [DEFAULT] is an
    # ordinary (unknown) section, not keys copied into every section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc))
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = {s: dict(parser.items(s, raw=True)) for s in parser.sections()}
    for section, items in config.items():
        rows = _rows(section)
        if rows is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in items:
            if key not in rows:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return config


def _read(config, section, key):
    """Checked value of ``[section] key`` by its ``_KEYS`` row: the row's default
    when the key or the whole section is absent, and a ``ConfigError`` naming
    ``[section] key`` when it is required, malformed or out of its bound."""
    kind, default, bound = _rows(section)[key]
    text = config.get(section, {}).get(key)
    if text is None:
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] {key} is required")
        return default
    if kind is str:
        return text
    if not isinstance(kind, type):
        if text not in kind:
            raise ConfigError(
                f"[{section}] {key} must be {' or '.join(kind)}, got {text!r}")
        return text
    try:
        values = [float(x) for x in (text.split(",") if kind is list else [text])]
        for value in values:
            if not math.isfinite(value):
                raise ValueError(f"{value} is not finite")
    except ValueError as exc:
        raise ConfigError(f"bad or missing value for [{section}] {key}: {exc}")
    for value in values:
        if kind is int and not value.is_integer():
            raise ConfigError(f"[{section}] {key} must be an integer, got {value:g}")
        op, limit = (bound or ">= -inf").split()
        if not (value > float(limit) if op == ">" else value >= float(limit)):
            raise ConfigError(f"[{section}] {key} must be {bound}, got {value:g}")
    return values if kind is list else kind(values[0])


def _read_section(config, section):
    """``_read`` of every key of ``section``, by key."""
    return {key: _read(config, section, key) for key in _rows(section)}


def build_scenario(config):
    try:
        bands = [BandConfig(**_read_section(config, s)) for s in sorted(
            (s for s in config if s.startswith("band.")),
            key=lambda s: int(s.split(".", 1)[1]),
        )]
        if not bands:
            raise ConfigError("no [band.N] sections found")
        t = _read_section(config, "traffic")
        file_size = SizeDistribution(
            t["file_size_family"], t["file_size_mean"], t["file_size_shape"])
        traffic = TrafficModel(t["session_interarrival_mean"], file_size)
        o = _read_section(config, "outage")
        outage = OutageModel(o["interarrival_mean"], o["duration_shape"])
        return Scenario(bands=bands, traffic=traffic, outage=outage,
                        **_read_section(config, "scenario"))
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}")


def cmd_tradeoff(config, scenario, args):
    sweep = _read_section(config, "sweep")
    parameter, fixed_rate = sweep["parameter"], sweep["fixed_rate"]
    if parameter == "target_rate" and fixed_rate is not None:
        raise ConfigError("[sweep] fixed_rate would override a target_rate sweep")
    lo, hi, scale = sweep["min"], sweep["max"], sweep["scale"]
    if scale == "log" and min(lo, hi) <= 0:
        raise ConfigError("log sweep needs min and max > 0")
    values = _SPACING[scale](lo, hi, sweep["points"])
    if not np.all(values >= 0) or parameter == "target_rate" and 0 in values:
        raise ConfigError(f"[sweep] {parameter} values must be >= 0 (rates > 0)")
    mean, rates = scenario.traffic.file_size.mean, values
    interarrival = np.full(len(values), scenario.traffic.session_interarrival_mean)
    if parameter == "capacity":  # each demand's interarrival mean, infinite at C = 0
        with np.errstate(divide="ignore"):
            interarrival = mean / values
        if fixed_rate is not None:
            rates = np.full(len(values), fixed_rate)
        else:  # with no traffic a vanishing-load proxy picks the rate
            rates = cap.min_delay_over_rate(scenario, np.where(
                mean / interarrival > 0.0, interarrival, mean / 1e-9))[0]
    capacity = mean / interarrival
    ok = np.flatnonzero(~np.isnan(rates))
    epsilon, delay = np.full(len(values), math.nan), np.full(len(values), math.nan)
    epsilon[ok], delay[ok] = cap.operating_points(scenario, rates[ok], interarrival[ok])
    feasible = ~np.isnan(epsilon)  # its eps > C/R: a stable queue
    rates = np.where(feasible, rates, math.nan)
    delay = np.where(feasible, delay, math.nan)
    rows = list(zip(values.tolist(), capacity.tolist(), rates.tolist(),
                    epsilon.tolist(), delay.tolist(), feasible.astype(int).tolist()))
    columns = ["sweep_value", "capacity", "rate", "epsilon", "mean_delay", "feasible"]
    return columns, {}, rows, []


def cmd_capacity(config, scenario, args):
    capacity = _read_section(config, "capacity")
    n_min, n_max = capacity["n_min"], capacity["n_max"]
    if n_min > n_max:
        raise ConfigError(
            f"[capacity] needs 1 <= n_min <= n_max, got n_min {n_min}, n_max {n_max}"
        )
    band = scenario.bands[0]
    ratios = capacity["ratios"] or [scenario.user_density / band.bs_density]
    if not 0.0 < ratios[0] < math.inf:  # a default ratio that under- or overflowed
        raise ConfigError(f"[scenario] user_density / [band.1] bs_density is "
                          f"{ratios[0]:g}, out of float range: set [capacity] ratios")
    counts = np.arange(n_min, n_max + 1)
    ratio, n = np.repeat(ratios, len(counts)), np.tile(counts, len(ratios))
    rates, limits = cap.optimal_rates_fixed_band(band, scenario.thinning, ratio, n)
    fixed_system = limits / n
    approx = np.repeat([cap.scaling_approximation(r) for r in ratios], len(counts))
    rows = list(zip(ratio.tolist(), n.tolist(), rates.tolist(), limits.tolist(),
                    fixed_system.tolist(), (n * fixed_system).tolist(), approx.tolist()))
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


def _simulated_cdf(config, scenario, epsilon, seed, sessions, grid, analytic):
    """The queue simulator's run at ``epsilon`` over ``[validate] sessions``
    sessions (``sessions`` when the key is unset), its empirical delay CDF on
    ``grid``, and that CDF's KS distance from the ``analytic`` one."""
    count = _read(config, "validate", "sessions")
    rep = run_priority_queue(_queue_sim_config(
        scenario, epsilon, sessions if count is None else count, seed))
    empirical = empirical_cdf(rep.arrays["delays"], grid)
    return rep, empirical, float(np.abs(empirical - analytic).max())


def cmd_delay_cdf(config, scenario, args):
    sol = solve_equilibrium(scenario)
    handle = delay_transform(
        scenario.traffic, scenario.outage, sol.epsilon, scenario.target_rate
    )
    if "grid" in config:
        spec = _read_section(config, "grid")
        lo, hi = spec["t_min"], spec["t_max"]
        if lo >= hi:
            raise ConfigError(
                f"[grid] needs t_min < t_max, got t_min {lo:g}, t_max {hi:g}")
        grid = _SPACING[spec["scale"]](lo, hi, spec["points"])
    else:
        grid = _auto_grid(handle)
    result = delay_cdf(handle, grid)
    extra = {"epsilon": _fmt(sol.epsilon),
             **{f"inversion.{k}": v for k, v in result.metadata.items()}}
    columns = ["t", "cdf"]
    rows = [[float(t), float(v)] for t, v in zip(grid, result.values)]
    failed = []
    if args.validate:
        _, empirical, ks = _simulated_cdf(config, scenario, sol.epsilon, args.seed,
                                          200000, grid, result.values)
        extra["validate.ks"] = _fmt(ks)
        columns.append("empirical_cdf")
        rows = [row + [float(e)] for row, e in zip(rows, empirical)]
        if ks > _KS_TOLERANCE:
            failed.append("validate.ks")
    return columns, extra, rows, failed


def cmd_equilibrium(config, scenario, args):
    sol = solve_equilibrium(scenario)
    extra = {key: _fmt(getattr(sol, key))
             for key in ("epsilon", "rho_o", "rho_s", "p_active", "residual")}
    extra["method"] = sol.method
    rows = [(i, b.service, b.coverage, b.access, b.load)
            for i, b in enumerate(sol.bands, start=1)]
    return ["band", "service", "coverage", "access", "load"], extra, rows, []


def cmd_validate(config, scenario, args):
    sol = solve_equilibrium(scenario)
    handle = delay_transform(
        scenario.traffic, scenario.outage, sol.epsilon, scenario.target_rate
    )
    mean = handle.mean
    grid = np.geomspace(mean / 100, mean * 20, 120)
    rep, _, ks = _simulated_cdf(config, scenario, sol.epsilon, args.seed, 100000,
                                grid, delay_cdf(handle, grid).values)
    rel = abs(rep.estimates["mean_delay"].value - mean) / mean
    checks = [("queue_mean_delay_rel", rel, 0.03),
              ("queue_delay_cdf_ks", ks, _KS_TOLERANCE)]
    rows = [(name, stat, tol, int(stat <= tol)) for name, stat, tol in checks]
    failed = [name for name, _, _, ok in rows if not ok]
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


# built on first use, not at import; parse_args keeps no state between calls
_shared_parser = functools.cache(make_parser)


def main(argv=None):
    """Run one subcommand on ``argv`` (``sys.argv[1:]`` when None) and return
    its exit code; a usage error raises ``SystemExit(EXIT_CONFIG)``."""
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.validate and args.subcommand != "delay-cdf":
        parser.error(f"argument --validate: not allowed with {args.subcommand}")
    try:
        config = load_config(args.config)
        command = _COMMANDS[args.subcommand]
        columns, extra, rows, failed = command(config, build_scenario(config), args)
        echo = {f"{section}.{key}": value for section, items in config.items()
                for key, value in items.items()}
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
