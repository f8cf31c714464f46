"""secnet benchmark: seeded closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload planning --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``planning`` (in-process CLI equilibrium,
capacity and tradeoff calls), ``delay`` (in-process CLI delay-cdf calls) and
``montecarlo`` (the public ``secnet.simulate`` oracles).  Every op is checked
against the reference recorded with the benchmark.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced replay.  The
line before it holds the run's comparability metadata.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# one client on one thread: keep BLAS from spreading an op over cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # this process plus two set-up-only children


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit")
    return ap.parse_args(argv)


def setup(ops, workload, seed, workdir):
    """Prepare the pool, build the seeded op sequence and warm up on the
    first pool op of each kind (the same ops whatever the seed)."""
    pool = ops.mix_pool(workload)
    prepared = {op["id"]: ops.Prepared(op, workdir) for op in pool}
    seq = [prepared[op["id"]] for op in ops.sequence(workload, pool, seed)]
    warmed = set()
    for p in prepared.values():
        if p.kind not in warmed:
            warmed.add(p.kind)
            ops.run_op(p)
    return seq


class Record:
    __slots__ = ("op", "seconds", "status", "reason", "canonical", "pooled")

    def __init__(self, op, seconds, checked):
        self.op = op
        self.seconds = seconds
        self.status, self.reason, self.canonical, self.pooled = checked


def run_checked(ops, prepared):
    seconds, result, exc = ops.run_op(prepared)
    return Record(prepared, seconds, ops.check_op(prepared, result, exc))


def apply_pooled_checks(ops, records):
    """Fail every op of a kind whose pooled Monte Carlo check fails."""
    failures, unchecked = ops.pooled_checks([r.pooled for r in records if r.pooled])
    for r in records:
        if r.op.kind in failures and r.status == "ok":
            r.status, r.reason = "failed", failures[r.op.kind]
    return {"failed": failures, "sample_too_small": unchecked}


def summary(records):
    failed = [r for r in records if r.status != "ok"]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "correct": all(r.status != "failed" for r in records),
        "error_rate": len(failed) / len(records),
    }


def setup_times(args, own):
    """Set-up times of this process and of fresh set-up-only processes."""
    times = [own]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                              check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_mix(records):
    kinds = Counter(r.op.kind for r in records)
    cli = [r for r in records if r.op.is_cli and isinstance(r.canonical[0], int)]
    return {
        "ops": len(records),
        "mix": dict(sorted(kinds.items())),
        # CLI ops that ended in the documented infeasible/unstable exit
        "infeasible_share": (sum(r.canonical[0] == 2 for r in cli) / len(cli)
                             if cli else 0.0),
        "failures": Counter(f"{r.op.kind}: {r.reason}" for r in records
                            if r.status != "ok").most_common(10),
    }


def measure(ops, seq, seconds):
    """Closed loop: run ops back to back until ``seconds`` have passed."""
    records = []
    end = time.perf_counter() + seconds
    i = 0
    while True:
        records.append(run_checked(ops, seq[i % len(seq)]))
        i += 1
        if time.perf_counter() >= end:
            return records


def end_to_end(ops, args, seq, setup_own):
    records = measure(ops, seq, args.seconds)
    pooled = apply_pooled_checks(ops, records)
    lat_ms = [r.seconds * 1e3 for r in records]
    pct = statistics.quantiles(lat_ms, n=100, method="inclusive")
    s = summary(records)
    setups = setup_times(args, setup_own)
    metrics = {
        "ops_per_s": (len(records) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (pct[49], "ms"),
        "op_p90_ms": (pct[89], "ms"),
        "ok_share": (1.0 - s["error_rate"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    meta = {"setup_runs_s": setups, "pooled_checks": pooled,
            **run_mix(records)}
    return s, metrics, meta


def per_layer(ops, tracer_mod, args, seq):
    """Replay a fixed number of ops untraced, then traced; per-layer metrics
    come from the traced replay, whose outputs must equal the untraced ones."""
    ops_k = seq[: ops.TRACE_ROUNDS[args.workload] * ops.round_length(args.workload)]
    plain = [run_checked(ops, p) for p in ops_k]
    tracer = tracer_mod.Tracer()
    tracer.install()
    traced = []
    try:
        for p in ops_k:
            with tracer.op(p.id, p.kind):
                seconds, result, exc = ops.run_op(p)
            traced.append(Record(p, seconds, ops.check_op(p, result, exc)))
            del result
    finally:
        tracer.uninstall()
    pooled = apply_pooled_checks(ops, traced)
    s = summary(traced)
    mismatched = [a.op.id for a, b in zip(plain, traced) if a.canonical != b.canonical]
    if mismatched:
        s["correct"] = False
    metrics = tracer.metrics(cli_ops=ops_k[0].is_cli)
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    meta = {"traced_outputs_differ": mismatched, "absent": tracer.absent,
            "spans": str(spans_path.relative_to(ROOT)), "pooled_checks": pooled,
            **run_mix(traced)}
    return s, metrics, meta


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "secnet" / "__init__.py").is_file():
        print(f"perfbench: no secnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ops
    import tracer

    if args.workload not in ops.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        seq = setup(ops, args.workload, args.seed, workdir)
        setup_own = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_own}))
            return 0
        if args.trace:
            s, metrics, meta = per_layer(ops, tracer, args, seq)
        else:
            s, metrics, meta = end_to_end(ops, args, seq, setup_own)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "error_rate": s["error_rate"], **machine(), **meta}
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": s["correct"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
