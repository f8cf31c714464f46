"""Generate the op pools and record their reference outcomes.

    python3 perfbench/record.py [workload ...]

writes ``perfbench/data/<workload>.json.gz``.  The pools come from fixed
seeds, so re-running this reproduces the same ops; the recorded outputs are
those of the ``secnet`` in ``src/`` at the time.  Run it only when the
benchmark itself changes: a program change must be judged against the
references it did not write.
"""

import gzip
import json
import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import secnet.cli  # noqa: E402
from secnet import geometry  # noqa: E402
from secnet.errors import InfeasibleError  # noqa: E402
from secnet.queueing import OutageModel, TrafficModel, mean_delay  # noqa: E402

import ops  # noqa: E402

POOL_SEED = 1612_08778
POOL_SIZES = {
    "planning": {"equilibrium": 60, "capacity": 60, "tradeoff_fixed": 40,
                 "tradeoff_opt": 40},
    "delay": {"delay_exp_auto": 30, "delay_exp_grid": 30, "delay_gamma_auto": 30,
              "delay_gamma_grid": 30, "delay_oscillation": 1},
    "montecarlo": {"queue": 40, "queue_long": 8, "coverage": 20, "pmf": 20,
                   "voronoi": 20},
}


def _f(x):
    return format(float(x), ".6g")


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _scenario(rng, band_counts, outage_shapes):
    """Heterogeneous scenario; the traffic section is completed by the caller."""
    n = rng.choice(band_counts)
    bs = [rng.choice((0.5, 1.0, 2.0)) for _ in range(n)]
    ratio = _log_uniform(rng, 5.0, 500.0)
    family = rng.choice(("exponential", "exponential", "gamma"))
    config = {
        "scenario": {
            "user_density": _f(ratio * sum(bs) / n),
            "target_rate": _f(rng.uniform(0.5, 6.0)),
        },
        "traffic": {
            "file_size_mean": _f(rng.uniform(1.0, 20.0)),
            "file_size_family": family,
            "file_size_shape": "1" if family == "exponential" else rng.choice(("0.5", "2")),
        },
        "outage": {
            "interarrival_mean": _f(rng.uniform(1.0, 20.0)),
            "duration_shape": rng.choice(outage_shapes),
        },
    }
    for i, density in enumerate(bs, start=1):
        config[f"band.{i}"] = {
            "bandwidth": rng.choice(("0.5", "1", "2", "5")),
            "vacancy": _f(round(rng.uniform(0.3, 1.0), 3)),
            "bs_density": _f(density),
        }
    return config


def _set_demand(config, demand):
    traffic = config["traffic"]
    file_mean = float(traffic["file_size_mean"])
    traffic.pop("session_interarrival_mean", None)
    config["traffic"] = {"session_interarrival_mean": _f(file_mean / demand), **traffic}


def _build(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ini"
        path.write_text(ops.render_ini(config))
        return secnet.cli.build_scenario(secnet.cli.load_config(str(path)))


def _planning_op(rng, kind):
    config = _scenario(rng, (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20), ("1", "1", "0.5", "2"))
    rate = float(config["scenario"]["target_rate"])
    demand = rate * _log_uniform(rng, 0.005, 0.3)
    _set_demand(config, demand)
    if kind == "capacity":
        n_min = rng.randint(1, 3)
        section = {"n_min": str(n_min), "n_max": str(n_min + rng.randint(4, 24))}
        if rng.random() < 0.75:
            ratios = [_log_uniform(rng, 5.0, 500.0) for _ in range(rng.randint(1, 3))]
            section["ratios"] = ",".join(_f(r) for r in ratios)
        config["capacity"] = section
    elif kind == "tradeoff_opt":
        # a capacity sweep without a fixed rate minimises the delay per point
        lo = 0.0 if rng.random() < 0.15 else demand * rng.uniform(0.1, 0.5)
        section = {"parameter": "capacity", "min": _f(lo),
                   "max": _f(demand * rng.uniform(1.0, 2.0)),
                   "points": str(rng.randint(2, 4)),
                   "scale": "linear" if lo == 0.0 or rng.random() < 0.5 else "log"}
    elif kind == "tradeoff_fixed":
        points = str(rng.randint(2, 4))
        if rng.random() < 0.5:
            section = {"parameter": "capacity", "min": _f(demand * rng.uniform(0.1, 0.5)),
                       "max": _f(demand * rng.uniform(1.0, 2.0)), "points": points,
                       "scale": rng.choice(("linear", "log")), "fixed_rate": _f(rate)}
        else:
            section = {"parameter": "target_rate", "min": _f(rate * 0.5),
                       "max": _f(rate * 2.0), "points": points,
                       "scale": rng.choice(("linear", "log"))}
    if kind.startswith("tradeoff"):
        config["sweep"] = section
    return config


def _p_active(config, demand):
    _set_demand(config, demand)
    scenario = _build(config)
    try:
        return secnet.solve_equilibrium(scenario).p_active
    except InfeasibleError:
        return math.inf


# A scenario whose service probability is about 0.02: the inverted CDF
# oscillates past 1 + 1e-3 in its far tail and delay-cdf ends in a
# ConvergenceError traceback instead of a documented exit.
_OSCILLATION_CONFIG = {
    "scenario": {"user_density": "471.091", "target_rate": "1.61034"},
    "traffic": {"session_interarrival_mean": "501.349", "file_size_mean": "14.8765",
                "file_size_family": "exponential", "file_size_shape": "1"},
    "outage": {"interarrival_mean": "14.6581", "duration_shape": "0.5"},
    "band.1": {"bandwidth": "5", "vacancy": "0.813", "bs_density": "2"},
    "band.2": {"bandwidth": "0.5", "vacancy": "0.773", "bs_density": "1"},
    "grid": {"t_min": "4e7", "t_max": "1.3e8", "points": "12", "scale": "log"},
}
MIN_DELAY_EPSILON = 0.1


def _delay_op(rng, kind):
    if kind == "delay_oscillation":
        return json.loads(json.dumps(_OSCILLATION_CONFIG))
    shapes = ("1",) if "_exp_" in kind else ("0.5", "2")
    eps = 0.0
    # redraw scenarios with no feasible load at the target, or a service
    # probability so low that one Gamma busy-root solve takes thousands of
    # contraction steps (that regime is the delay_oscillation op)
    while eps < MIN_DELAY_EPSILON:
        config = _scenario(rng, (1, 2, 3, 4, 5, 6, 8), shapes)
        rate = float(config["scenario"]["target_rate"])
        # session load from light to near the stability boundary
        target = rng.uniform(0.05, 0.95)
        lo, hi = 0.0, rate
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _p_active(config, mid) < target:
                lo = mid
            else:
                hi = mid
        if lo > 0.0:
            _set_demand(config, lo)
            scenario = _build(config)
            eps = secnet.solve_equilibrium(scenario).epsilon
    if kind.endswith("_grid"):
        mean = mean_delay(scenario.traffic, scenario.outage, eps, rate)
        config["grid"] = {
            "t_min": _f(mean / 100.0 * rng.uniform(0.5, 2.0)),
            "t_max": _f(mean * rng.uniform(10.0, 40.0)),
            "points": str(int(_log_uniform(rng, 20, 2000))),
            "scale": "log" if rng.random() < 0.7 else "linear",
        }
    return config


def _queue_params(rng, kind):
    if kind == "queue_long":
        # a long run whose service accounting drifts past its 1e-9 check
        return {
            "session_interarrival_mean": 10.0, "outage_interarrival_mean": 10.0,
            "file_size": ["exponential", 10.0, 1.0],
            "outage_duration": ["exponential", 5.0, 1.0],
            "rate": 4.0, "horizon_sessions": 1_000_000,
            "seed": rng.randrange(2**31),
        }
    rho_s = rng.uniform(0.1, 0.4)
    rho_o = rng.uniform(0.05, 0.3)
    rate = rng.uniform(0.5, 4.0)
    inter = rng.uniform(0.25, 2.5)
    alpha_o = rng.uniform(0.2, 10.0)
    file_shape = rng.choice((1.0, 1.0, 2.0, 0.5))
    outage_shape = rng.choice((1.0, 1.0, 2.0))
    return {
        "session_interarrival_mean": inter, "outage_interarrival_mean": alpha_o,
        "file_size": ["exponential" if file_shape == 1.0 else "gamma",
                      rho_s * rate * inter, file_shape],
        "outage_duration": ["exponential" if outage_shape == 1.0 else "gamma",
                            rho_o * alpha_o, outage_shape],
        "rate": rate,
        "horizon_sessions": int(round(_log_uniform(rng, 1e5, 3e5), -3)),
        "seed": rng.randrange(2**31),
    }


def _spatial_params(rng, kind):
    reps = rng.randint(1, 4)
    seed = rng.randrange(2**31)
    if kind == "coverage":
        return {"window_side": 40.0, "bs_density": 1.0, "user_density": 1.0,
                "guard_fraction": 0.2, "replications": reps, "seed": seed,
                "threshold": round(_log_uniform(rng, 0.2, 5.0), 4)}
    if kind == "pmf":
        # 500 base stations per window, as in the CLI's validate subcommand
        return {"window_side": math.sqrt(500 / 1e-6), "bs_density": 1e-6,
                "user_density": round(_log_uniform(rng, 5.0, 50.0), 3) * 1e-6,
                "guard_fraction": 0.2, "replications": reps, "seed": seed,
                "threshold": 1.0}
    return {"window_side": math.sqrt(500.0), "bs_density": 1.0, "user_density": 1.0,
            "guard_fraction": 0.2, "replications": reps, "seed": seed}


def _sim_expectations(kind, p):
    if kind in ("queue", "queue_long"):
        rho_o = p["outage_duration"][1] / p["outage_interarrival_mean"]
        traffic = TrafficModel(p["session_interarrival_mean"], ops._size(p["file_size"]))
        outage = OutageModel(p["outage_interarrival_mean"], p["outage_duration"][2])
        return {"mean_delay": mean_delay(traffic, outage, 1.0 - rho_o, p["rate"])}
    if kind == "coverage":
        return {"coverage": geometry.sinr_ccdf_lim(p["threshold"])}
    if kind == "pmf":
        ratio = p["user_density"] / p["bs_density"]
        return {"mean_count": ratio * geometry.sinr_ccdf_lim(p["threshold"])}
    return {}


def make_pool(workload):
    rng = random.Random(f"{POOL_SEED}:{workload}")
    pool = []
    for kind, count in POOL_SIZES[workload].items():
        for i in range(count):
            op = {"id": f"{kind}-{i:03d}", "kind": kind}
            if workload == "planning":
                op["config"] = _planning_op(rng, kind)
            elif workload == "delay":
                op["config"] = _delay_op(rng, kind)
            else:
                maker = _queue_params if kind.startswith("queue") else _spatial_params
                op["params"] = maker(rng, kind)
            pool.append(op)
    return pool


def record(workload):
    pool = make_pool(workload)
    with tempfile.TemporaryDirectory() as workdir:
        for op in pool:
            op["ref"] = {} if "config" in op else _sim_expectations(op["kind"], op["params"])
            prepared = ops.Prepared(op, workdir)
            seconds, result, exc = ops.run_op(prepared)
            # the cost, on the recording machine, by which runs stratify ops:
            # the median of three timings, the first of which warms caches
            repeats = sorted([seconds] + [ops.run_op(prepared)[0] for _ in range(2)])
            op["ref"]["seconds"] = round(repeats[1], 4)
            if exc is not None:
                op["ref"]["exception"] = ops.describe_exception(exc)
            elif prepared.is_cli:
                op["ref"]["exit"], op["ref"]["stdout"] = result
            status, reason, _, _ = ops.check_op(prepared, result, exc)
            if status == "failed":
                # a defect of the program at recording time, kept visible
                op["ref"]["known_failure"] = reason
            print(f"{workload} {op['id']} {repeats[1]:.4f}s {status} {reason or ''}"[:200],
                  flush=True)
    out = ops.DATA_DIR / f"{workload}.json.gz"
    out.parent.mkdir(exist_ok=True)
    # mtime=0 keeps the recording time out of the gzip header
    with open(out, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write(json.dumps({"workload": workload, "ops": pool}, indent=0).encode())


if __name__ == "__main__":
    for name in sys.argv[1:] or ops.WORKLOADS:
        record(name)
