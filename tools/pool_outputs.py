"""Run the benchmark's pool ops against a ``secnet`` source tree and write
each op's outcome, for a byte-identity check between two trees.

    python3 tools/pool_outputs.py SRC OUT

runs every op of the ``planning``, ``delay`` and ``montecarlo`` pools
except ``queue_long`` (the long queue runs) with the ``secnet`` in
``SRC/src`` and writes ``OUT`` as sorted JSON: for each op its status
against the recorded reference and its canonical output, which is the exit
code and stdout of a CLI op, the digest of a simulator op's arrays, or the
exception it raised.  The ops and their checks come from this checkout's
``perfbench/ops.py``, so two runs differ only in the ``secnet`` they load:

    python3 tools/pool_outputs.py OLD_TREE old.json
    python3 tools/pool_outputs.py . new.json
    cmp old.json new.json
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/pool_outputs.py SRC OUT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import secnet
    import ops

    loaded = Path(secnet.__file__).resolve()
    if src not in loaded.parents:
        print(f"secnet loaded from {loaded}, not from {src}", file=sys.stderr)
        return 2
    outcomes = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in ops.WORKLOADS:
            for op in ops.load_pool(workload):
                if op["kind"] == "queue_long":
                    continue
                prepared = ops.Prepared(op, workdir)
                _, result, exc = ops.run_op(prepared)
                status, _, canonical, _ = ops.check_op(prepared, result, exc)
                outcomes[op["id"]] = {"status": status, "canonical": canonical}
    with open(argv[1], "w") as fh:
        json.dump(outcomes, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(outcomes)} ops written to {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
