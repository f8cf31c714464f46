"""Run the benchmark's pool ops against a ``secnet`` source tree and write
each op's outcome, for a byte-identity check between two trees.

    python3 tools/pool_outputs.py SRC OUT [--workload NAME ...]

runs every op of the ``planning``, ``delay`` and ``montecarlo`` pools,
the 1e6-session ``queue_long`` runs included, or only those of each pool
named by a ``--workload`` (repeatable), with the ``secnet`` in
``SRC/src`` and writes ``OUT`` as sorted JSON: for each op its status
against the recorded reference and its canonical output, which is the exit
code and stdout of a CLI op, the digest of a simulator op's arrays, or the
exception it raised (the ``AssertionError`` every ``queue_long`` run
records, say).  A simulator op also writes its ``estimates`` as
(value, 99 % CI half-width, n), which its array digest does not cover (a
PMF op's ``access_probability``, say).  A PMF op adds ``per_cell_mean``,
the mean covered count per cell that the benchmark's pooled PMF check
reads, as (value, 0, cells sampled): it has no CI, so ``tools/pool_diff.py``
reports its shift in absolute terms.  A CLI op that exits non-zero also
writes its ``stderr``, the error message: the benchmark's runner drops
stderr, so the op runs a second time with stderr kept.  The ops and their
checks come from this checkout's ``perfbench/ops.py``, so two runs differ
only in the ``secnet`` they load:

    python3 tools/pool_outputs.py OLD_TREE old.json
    python3 tools/pool_outputs.py . new.json
    cmp old.json new.json

A change that touches only the CLI can be checked on the CLI pools alone,
without the ``queue_long`` runs of ``montecarlo``:
``--workload planning --workload delay`` on both trees.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def main(argv):
    ap = argparse.ArgumentParser(prog="pool_outputs.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path)
    ap.add_argument("out")
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run only this pool (repeatable); default: every pool")
    args = ap.parse_args(argv)
    src = args.src.resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import secnet.cli
    import ops

    loaded = Path(secnet.__file__).resolve()
    if src not in loaded.parents:
        print(f"secnet loaded from {loaded}, not from {src}", file=sys.stderr)
        return 2
    unknown = set(args.workload or ()) - set(ops.WORKLOADS)
    if unknown:
        ap.error(f"unknown workload {', '.join(sorted(unknown))} "
                 f"(choose from {', '.join(ops.WORKLOADS)})")
    outcomes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in ops.WORKLOADS:
            if args.workload and workload not in args.workload:
                continue
            for op in ops.load_pool(workload):
                prepared = ops.Prepared(op, workdir)
                _, result, exc = ops.run_op(prepared)
                status, _, canonical, _ = ops.check_op(prepared, result, exc)
                outcome = {"status": status, "canonical": canonical}
                if prepared.is_cli and exc is None and result[0] != 0:
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err):
                        secnet.cli.main(prepared.argv)
                    outcome["stderr"] = err.getvalue()
                if exc is None and not prepared.is_cli:
                    estimates = outcome["estimates"] = {
                        name: [e.value, e.ci99_half_width, e.n]
                        for name, e in result.estimates.items()
                    }
                    if op["kind"] == "pmf":
                        pmf = result.arrays["pmf"]
                        estimates["per_cell_mean"] = [
                            float(pmf @ np.arange(len(pmf))), 0.0,
                            result.config["n_samples"]]
                outcomes[op["id"]] = outcome
    with open(args.out, "w") as fh:
        json.dump(outcomes, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(outcomes)} ops written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
