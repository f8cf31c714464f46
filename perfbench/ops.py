"""Workload pools, seeded op sequences, op execution and output checks.

Each workload draws its ops from a fixed pool stored in ``data/<workload>.json.gz``
together with the outcome every pool op had when the benchmark was recorded
(``record.py``).  The run seed only chooses which pool ops run and in what
order, so every op has a reference.  Pool ops that failed at recording are
known defects of ``secnet``: they stay in the pool, where the benchmark's
tests reproduce them, but out of the timed mix, so that a run's ops all
succeed and its ``failed`` count means a regression.  Ops are drawn in rounds that hold a fixed
number of ops of each kind, which keeps the op mix, and so the per-run figures,
steady from seed to seed.
"""

import contextlib
import gzip
import hashlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import stats

import secnet.cli
import secnet.simulate
from secnet.queueing import SizeDistribution
from secnet.simulate import QueueSimConfig, SpatialSimConfig

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("planning", "delay", "montecarlo")

# ops of each kind per round; a run repeats rounds, kinds spread evenly
MIX = {
    "planning": {"equilibrium": 4, "capacity": 8, "tradeoff_fixed": 2,
                 "tradeoff_opt": 4},
    "delay": {"delay_exp_auto": 10, "delay_exp_grid": 4, "delay_gamma_auto": 4,
              "delay_gamma_grid": 4},
    "montecarlo": {"queue": 5, "coverage": 2, "pmf": 2, "voronoi": 2},
}
# rounds replayed twice (untraced, then traced) by a run with --trace 1; a
# fixed op count makes the per-layer counts repeat exactly for a seed
TRACE_ROUNDS = {"planning": 3, "delay": 3, "montecarlo": 6}
SEQUENCE_ROUNDS = 200
# a draw chooses among up to STRATUM_OPS pool ops whose recorded costs are
# within STRATUM_COST_RATIO of each other
STRATUM_OPS = 3
STRATUM_COST_RATIO = 1.25

CLI_KINDS = {
    "equilibrium": "equilibrium",
    "capacity": "capacity",
    "tradeoff_fixed": "tradeoff",
    "tradeoff_opt": "tradeoff",
    **{f"delay_{k}": "delay-cdf"
       for k in ("exp_auto", "exp_grid", "gamma_auto", "gamma_grid", "oscillation")},
}
# documented CLI exit codes: ok, infeasible/unstable, validation failed, config
DOCUMENTED_EXITS = {0, 2, 3, 4}

# Output tolerances, from the accuracy each module states.
# epsilon is solved to a residual of 1e-10 and printed to 9 significant
# digits; 1e-7 relative leaves room for another converged root finder.
EQ_RTOL = 1e-7
# The tradeoff's rate comes from a golden-section polish (xatol 1e-8 R) on a
# flat minimum, where the 1e-10 residual noise of the delay moves the argmin
# by about 1e-5 relative; rate and the epsilon solved at that rate get 1e-4.
ARGMIN_RTOL = 1e-4
# Euler inversion is accurate to about 1e-4 (queueing module docstring).
CDF_ATOL = 1e-4
RESIDUAL_MAX = 1e-10
# Pooled Monte Carlo checks, at the tolerances of passing tests, made only
# when the run's pooled sample is at least as large as the test's:
COVERAGE_ATOL = 0.03       # test_matches_closed_form_within_ci: CI half width
PMF_MEAN_RTOL = 0.05       # test_per_cell_mean_is_thinned_user_count
VORONOI_KS_MAX = 0.05      # test_cell_law_fits
QUEUE_MEAN_RTOL = 0.03     # acceptance criterion 5 (mean delay)
POOLED_MIN = {             # replications, except cells for voronoi, runs for queue
    "coverage": 16, "pmf": 24, "voronoi": 2000, "queue": 1,
}

_COLUMN_RTOL = {
    "tradeoff": {"rate": ARGMIN_RTOL, "epsilon": ARGMIN_RTOL},
}
_ECHO_NUMERIC = ("epsilon", "rho_o", "rho_s", "p_active")


def load_pool(workload):
    with gzip.open(DATA_DIR / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)["ops"]


def recorded_failure(op):
    """The failure an op's reference records, or None."""
    return op["ref"].get("exception") or op["ref"].get("known_failure")


def mix_pool(workload):
    """The pool ops a run may draw: those of the mix's kinds that succeeded
    at recording."""
    return [op for op in load_pool(workload)
            if op["kind"] in MIX[workload] and recorded_failure(op) is None]


def render_ini(config):
    """INI text of a ``{section: {key: value}}`` mapping, in stored order."""
    lines = []
    for section, items in config.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def sequence(workload, pool, seed, n_rounds=SEQUENCE_ROUNDS):
    """Seeded op order.

    Each round holds ``MIX[workload]`` ops of each kind, spread evenly.  A
    kind's pool ops are sorted by the cost recorded with the reference and
    cut into strata of a few ops of similar cost; successive draws visit the
    strata in bit-reversed order, so any run of draws spans cheap and costly
    ops evenly, and the seed picks the op within each stratum (without
    replacement until the stratum is used up).  Runs with different seeds
    thus do different ops but nearly the same amount of work.
    """
    rng = random.Random(f"{workload}:{seed}")
    draws = {}
    for kind in MIX[workload]:
        ops = sorted((op for op in pool if op["kind"] == kind),
                     key=lambda op: (op["ref"]["seconds"], op["id"]))
        strata = []
        for op in ops:
            if (strata and len(strata[-1]) < STRATUM_OPS and op["ref"]["seconds"]
                    <= STRATUM_COST_RATIO * strata[-1][0]["ref"]["seconds"]):
                strata[-1].append(op)
            else:
                strata.append([op])
        draws[kind] = _stratified_draws(strata, rng)
    pattern = _interleave(MIX[workload])
    return [next(draws[kind]) for _ in range(n_rounds) for kind in pattern]


def _stratified_draws(strata, rng):
    bits = max(1, (len(strata) - 1).bit_length())
    order = [i for i in sorted(range(1 << bits),
                               key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
             if i < len(strata)]
    decks = [[] for _ in strata]
    while True:
        for s in order:
            if not decks[s]:
                decks[s] = list(strata[s])
                rng.shuffle(decks[s])
            yield decks[s].pop()


def _interleave(weights):
    """One round: each kind ``weights[kind]`` times, spread evenly (smooth
    weighted round robin)."""
    total = sum(weights.values())
    credit = dict.fromkeys(weights, 0)
    out = []
    for _ in range(total):
        for kind, w in weights.items():
            credit[kind] += w
        kind = max(credit, key=credit.get)
        credit[kind] -= total
        out.append(kind)
    return out


def round_length(workload):
    return sum(MIX[workload].values())


# ---------------------------------------------------------------- execution


class Prepared:
    """A pool op made ready to run: its config file written or its config
    object built."""

    def __init__(self, op, workdir):
        self.op = op
        self.id = op["id"]
        self.kind = op["kind"]
        self.is_cli = self.kind in CLI_KINDS
        if self.is_cli:
            self.input_keys = [
                f"{section}.{key}"
                for section, items in op["config"].items()
                for key in items
            ]
            path = Path(workdir) / f"{self.id}.ini"
            path.write_text(render_ini(op["config"]))
            self.argv = [CLI_KINDS[self.kind], "--config", str(path)]
        else:
            self.cfg, self.threshold = _sim_config(op)

    def __call__(self):
        """Run the op; returns its raw result.  Exceptions propagate."""
        if self.is_cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = secnet.cli.main(self.argv)
            return code, out.getvalue()
        if self.kind in ("queue", "queue_long"):
            return secnet.simulate.run_priority_queue(self.cfg)
        if self.kind == "coverage":
            return secnet.simulate.spatial_coverage(self.cfg, self.threshold)
        if self.kind == "pmf":
            return secnet.simulate.empirical_user_count_pmf(self.cfg, self.threshold)
        return secnet.simulate.sample_voronoi_cells(self.cfg)


def _size(spec):
    family, mean, shape = spec
    return SizeDistribution(family, mean, shape)


def _sim_config(op):
    p = op["params"]
    if op["kind"] in ("queue", "queue_long"):
        cfg = QueueSimConfig(
            session_interarrival_mean=p["session_interarrival_mean"],
            outage_interarrival_mean=p["outage_interarrival_mean"],
            file_size=_size(p["file_size"]),
            outage_duration=_size(p["outage_duration"]),
            rate=p["rate"],
            horizon_sessions=p["horizon_sessions"],
            seed=p["seed"],
        )
        return cfg, None
    cfg = SpatialSimConfig(
        window_side=p["window_side"],
        bs_density=p["bs_density"],
        user_density=p["user_density"],
        guard_fraction=p["guard_fraction"],
        replications=p["replications"],
        seed=p["seed"],
    )
    return cfg, p.get("threshold")


def run_op(prepared):
    """Run one op; returns (seconds, result, exception)."""
    t0 = perf_counter()
    try:
        result, exc = prepared(), None
    except Exception as err:  # an op's failure is data for the benchmark
        result, exc = None, err
    return perf_counter() - t0, result, exc


# ------------------------------------------------------------------- checks


def describe_exception(exc):
    return f"{type(exc).__name__}: {exc}"


def parse_csv_output(text):
    """(echo dict, header, rows) of the CLI's CSV output."""
    echo, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if sep:
                echo[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return echo, header, rows


def _num(text):
    try:
        return float(text)
    except ValueError:
        return None


def _close(a, b, rtol, atol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def compare_cli_output(subcommand, text, ref_text, input_keys):
    """None if ``text`` matches the reference output, else a reason."""
    echo, header, rows = parse_csv_output(text)
    ref_echo, ref_header, ref_rows = parse_csv_output(ref_text)
    for key in input_keys:
        if echo.get(key) != ref_echo.get(key):
            return f"config echo {key}: {echo.get(key)!r} != {ref_echo.get(key)!r}"
    for key in _ECHO_NUMERIC:
        if key in ref_echo:
            got = _num(echo.get(key, ""))
            if got is None or not _close(got, float(ref_echo[key]), EQ_RTOL, 1e-15):
                return f"{key}: {echo.get(key)} != {ref_echo[key]}"
    if "residual" in ref_echo:
        got = _num(echo.get("residual", ""))
        if got is None or not got <= RESIDUAL_MAX:
            return f"residual {echo.get('residual')} above {RESIDUAL_MAX}"
    if header != ref_header:
        return f"header {header} != {ref_header}"
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows != {len(ref_rows)}"
    rtols = _COLUMN_RTOL.get(subcommand, {})
    for row, ref_row in zip(rows, ref_rows):
        for column, got, want in zip(header, row, ref_row):
            g, w = _num(got), _num(want)
            if g is None or w is None:
                ok = got == want
            elif subcommand == "delay-cdf" and column != "t":
                ok = _close(g, w, 0.0, CDF_ATOL)
            elif subcommand == "delay-cdf":
                ok = _close(g, w, 1e-9, 0.0)
            else:
                ok = _close(g, w, rtols.get(column, EQ_RTOL), 1e-12)
            if not ok:
                return f"{column}: {got} != {want}"
    return None


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_op(prepared, result, exc):
    """Check one op against its reference.

    Returns ``(status, reason, canonical, pooled)``: status is "ok" or
    "failed"; ``canonical`` is a comparable digest of the op's output; ``pooled``
    holds the per-op figures the end-of-run pooled checks need.
    """
    ref = prepared.op["ref"]
    if exc is not None:
        text = describe_exception(exc)
        return "failed", text, ("exception", text), None
    if prepared.is_cli:
        code, text = result
        canonical = (code, text)
        if "exception" in ref:
            # the recorded failure is gone: any documented exit is a fix
            ok = code in DOCUMENTED_EXITS
            return ("ok" if ok else "failed"), None, canonical, None
        if code not in DOCUMENTED_EXITS or code != ref["exit"]:
            return "failed", f"exit {code} != {ref['exit']}", canonical, None
        if code != 0:
            return "ok", None, canonical, None
        reason = compare_cli_output(
            CLI_KINDS[prepared.kind], text, ref["stdout"], prepared.input_keys
        )
        return ("failed" if reason else "ok"), reason, canonical, None
    return _check_sim(prepared, result, ref)


def _check_sim(prepared, report, ref):
    kind = prepared.kind
    cfg = prepared.cfg
    reason = None
    if kind in ("queue", "queue_long"):
        d = report.arrays["delays"]
        sp = report.arrays["spans"]
        n_kept = cfg.horizon_sessions - int(cfg.warmup_fraction * cfg.horizon_sessions)
        est = report.estimates["mean_delay"].value
        # times are absolute, so a zero delay can come out a few ulps of the
        # simulated clock below zero
        tol = 16 * np.finfo(float).eps * cfg.horizon_sessions * cfg.session_interarrival_mean
        if report.config.get("n_kept") != n_kept or len(d) != n_kept:
            reason = f"n_kept {report.config.get('n_kept')} != {n_kept}"
        elif min(d.min(), sp.min()) < -tol:
            reason = f"negative delay or span: {min(d.min(), sp.min()):.3g}"
        elif not np.all(sp <= d + 1e-9):
            reason = "span longer than delay"
        elif not math.isfinite(est):
            reason = "mean delay not finite"
        canonical = _digest(d, sp)
        pooled = ("queue", est / ref["mean_delay"] - 1.0, 1)
    elif kind == "coverage":
        fr = np.asarray(report.arrays["per_replication"])
        if len(fr) == 0 or not np.all((fr >= 0.0) & (fr <= 1.0)):
            reason = "coverage fraction outside [0, 1]"
        canonical = _digest(fr)
        pooled = ("coverage", float(np.sum(fr - ref["coverage"])), len(fr))
    elif kind == "pmf":
        pmf = report.arrays["pmf"]
        if np.any(pmf < 0.0) or abs(pmf.sum() - 1.0) > 1e-9:
            reason = f"PMF sums to {pmf.sum()!r}"
        n = report.config["n_samples"]
        mean = float(pmf @ np.arange(len(pmf)))
        canonical = _digest(pmf)
        pooled = ("pmf", (mean * n, ref["mean_count"] * n), cfg.replications)
    else:
        areas = report.arrays["normalized_areas"]
        if len(areas) == 0 or np.any(areas <= 0.0):
            reason = "empty or nonpositive Voronoi areas"
        canonical = _digest(areas)
        pooled = ("voronoi", areas, len(areas))
    if reason is None:
        return "ok", None, canonical, pooled
    return "failed", reason, canonical, None


def pooled_checks(pooled):
    """End-of-run checks of Monte Carlo estimates pooled over a run's ops.

    ``pooled`` is a list of the ``pooled`` items of successful sim ops.
    Returns ``{kind: reason}`` for the kinds that fail, and the kinds left
    unchecked because their pooled sample is below ``POOLED_MIN``.
    """
    by_kind = {}
    for kind, value, n in pooled:
        by_kind.setdefault(kind, []).append((value, n))
    small = sorted(k for k, v in by_kind.items() if sum(n for _, n in v) < POOLED_MIN[k])
    for kind in small:
        del by_kind[kind]
    failures = {}
    if "queue" in by_kind:
        rel = float(np.mean([v for v, _ in by_kind["queue"]]))
        if abs(rel) > QUEUE_MEAN_RTOL:
            failures["queue"] = f"pooled mean-delay deviation {rel:.4f}"
    if "coverage" in by_kind:
        bias = sum(v for v, _ in by_kind["coverage"]) / sum(n for _, n in by_kind["coverage"])
        if abs(bias) > COVERAGE_ATOL:
            failures["coverage"] = f"pooled coverage bias {bias:.4f}"
    if "pmf" in by_kind:
        obs = sum(v[0] for v, _ in by_kind["pmf"])
        exp = sum(v[1] for v, _ in by_kind["pmf"])
        if abs(obs / exp - 1.0) > PMF_MEAN_RTOL:
            failures["pmf"] = f"pooled per-cell mean off by {obs / exp - 1.0:.4f}"
    if "voronoi" in by_kind:
        areas = np.concatenate([v for v, _ in by_kind["voronoi"]])
        ks_t = stats.kstest(areas, stats.gamma(a=3.5, scale=1 / 3.5).cdf).statistic
        ks_u = _weighted_ks(areas, stats.gamma(a=4.5, scale=1 / 3.5).cdf)
        if max(ks_t, ks_u) > VORONOI_KS_MAX:
            failures["voronoi"] = f"pooled Voronoi KS {ks_t:.4f} / {ks_u:.4f}"
    return failures, small


def _weighted_ks(areas, cdf):
    """KS distance of the area-weighted sample against ``cdf``."""
    s = np.sort(areas)
    cum = np.cumsum(s) / s.sum()
    theo = cdf(s)
    prev = np.concatenate([[0.0], cum[:-1]])
    return float(max(np.max(np.abs(cum - theo)), np.max(np.abs(prev - theo))))
