"""Run the benchmark in alternating pairs on two source trees and compare.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload delay \\
        --seed 3 --pairs 10

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, one after
the other; the parent goes first in even pairs and the change in odd ones.
Each run's end-to-end metrics go to stderr as they arrive, with the three
set-up times whose median is its ``setup_s`` (``setup_runs_s``): each set-up
imports numpy and scipy and compiles ``secnet`` afresh where no bytecode is
written, so they spread widely from run to run.  For every
end-to-end metric of ``BENCHMARK.json`` it then prints each side's median
and quartiles, how many pairs the change won (in the direction of the
metric's ``better``; ties count for neither side), whether the change's
median is worse than the parent's by more than the metric's ``bound``
(relative) -- "unresolved" instead of "no" when the parent's quartiles lie
further apart than the bound, unless every change run beats every parent
run -- and whether the change shows a gain: it won at least nine pairs in
ten, its median beats the parent's by more than the distance between the
parent's quartiles, and its median ``ok_share`` is not below the parent's.
Every run lasts ``BENCHMARK.json``'s ``run_seconds``.  The two trees must
hold the same ``perfbench/`` and ``BENCHMARK.json``, so that they differ
only in the program they measure.  Exits 1 if a run is incorrect or a
metric is worse than its bound, else 0.
"""

import argparse
import filecmp
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9


def differing_files(a, b):
    """Paths under ``perfbench/`` plus ``BENCHMARK.json`` whose bytes differ
    between trees ``a`` and ``b``, or that only one of them holds."""
    def files(root):
        bench = root / "perfbench"
        found = {p.relative_to(root) for p in bench.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts}
        return found | {Path("BENCHMARK.json")}

    differ = []
    for rel in sorted(files(a) | files(b)):
        x, y = a / rel, b / rel
        if not (x.is_file() and y.is_file() and filecmp.cmp(x, y, shallow=False)):
            differ.append(str(rel))
    return differ


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in ``tree``: (correct, {metric: value}, the
    set-up times ``setup_s`` is the median of, from the line before)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    meta, last = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return (last["correct"], {k: v["value"] for k, v in last["metrics"].items()},
            meta["meta"]["setup_runs_s"])


def summarize(metrics, parent_runs, change_runs):
    """One row per end-to-end metric from paired runs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries; run i of
    each side belongs to pair i.  Each row holds the metric's name, each
    side's (q1, median, q3), the pairs the change won, ``worse`` ("yes" if
    its median is worse than the parent's by more than ``bound``, else
    "unresolved" if the parent's interquartile distance exceeds ``bound``
    and some change run does not beat every parent run, else "no") and
    whether it shows a gain (won at least ``WIN_SHARE`` of the pairs, its
    median is better than the parent's by more than the parent's
    interquartile distance, and its median ``ok_share`` is not lower)."""
    def column(runs, name):
        return np.array([run[name] for run in runs], dtype=float)

    fails_more = "ok_share" in parent_runs[0] and (
        np.median(column(change_runs, "ok_share"))
        < np.median(column(parent_runs, "ok_share")))
    rows = []
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        old, new = column(parent_runs, name), column(change_runs, name)
        q_old, q_new = (tuple(np.percentile(v, [25, 50, 75])) for v in (old, new))
        wins = int(np.sum(sign * (new - old) > 0.0))
        allowed = m["bound"] * abs(q_old[1])
        if sign * (q_new[1] - q_old[1]) < -allowed:
            worse = "yes"
        elif q_old[2] - q_old[0] > allowed and not np.min(sign * new) > np.max(sign * old):
            worse = "unresolved"
        else:
            worse = "no"
        gain = (wins >= WIN_SHARE * len(old) and not fails_more
                and sign * (q_new[1] - q_old[1]) > q_old[2] - q_old[0])
        rows.append({"metric": name, "parent": q_old, "change": q_new,
                     "wins": wins, "pairs": len(old), "worse": worse,
                     "gain": bool(gain)})
    return rows


def format_rows(rows):
    def q(t):
        return f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"

    lines = [f"{'metric':<12} {'parent median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'won':>7} {'worse':>10} {'gain':>5}"]
    for r in rows:
        lines.append(f"{r['metric']:<12} {q(r['parent']):>30} {q(r['change']):>30} "
                     f"{r['wins']:>3}/{r['pairs']:<3} {r['worse']:>10} "
                     f"{'yes' if r['gain'] else 'no':>5}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differ = differing_files(parent, change)
    if differ:
        print(f"bench_pairs: the trees' benchmarks differ: {', '.join(differ)}",
              file=sys.stderr)
        return 2
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": parent, "change": change}
    runs = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            ok, values, setups = run_once(trees[side], args.workload, args.seed, seconds)
            correct &= ok
            runs[side].append(values)
            print(f"pair {i} {side} correct={ok} {json.dumps(values)} "
                  f"setup_runs_s={json.dumps(setups)}", file=sys.stderr, flush=True)
    rows = summarize(bench["end_to_end"], runs["parent"], runs["change"])
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s runs")
    print(format_rows(rows))
    if not correct:
        print("a run was incorrect", file=sys.stderr)
    return 0 if correct and not any(r["worse"] == "yes" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
