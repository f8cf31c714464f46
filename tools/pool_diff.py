"""Compare two outputs of ``tools/pool_outputs.py`` column by column.

    python3 tools/pool_diff.py OLD.json NEW.json

For each op kind (the op id without its ``-NNN`` number) and each output
column it prints how many values changed, the largest change and the
tolerance the benchmark's check applies to that column, read from this
checkout's ``perfbench/ops.py``.  Relative changes are printed for columns
checked relative, absolute ones for columns checked absolute.  Echoed
numbers (``# epsilon = ...``) count as columns named ``echo.<key>``.  An op
whose status, exit code or non-numeric text changed is listed by id, and
so is a simulator op whose digest changed.  For those simulator ops it
also prints, per kind and estimate, the largest shift |new - old| in units
of the old 99 % CI half-width (absolute for an estimate without a CI, such
as a KS distance).  Exits 1 if a change exceeds its tolerance or any op is
listed, else 0.
"""

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def tolerance(ops, subcommand, column):
    """``(rtol, atol)`` that ``ops.compare_cli_output`` applies to a value;
    the residual echo is checked as a bound, ``<= RESIDUAL_MAX``."""
    if column == "echo.residual":
        return 0.0, ops.RESIDUAL_MAX
    if column.startswith("echo."):
        return ops.EQ_RTOL, 1e-15
    if subcommand == "delay-cdf":
        return (0.0, ops.CDF_ATOL) if column != "t" else (1e-9, 0.0)
    return ops._COLUMN_RTOL.get(subcommand, {}).get(column, ops.EQ_RTOL), 1e-12


def estimate_shift(old, new):
    """``(shift, scaled)``: |new - old| of an estimate's value in units of
    the old 99 % CI half-width, or absolute (``scaled`` False) when the old
    estimate has no finite CI (a KS distance, or a mean over one
    replication).  Estimates are ``(value, ci99_half_width, n)``."""
    change = abs(new[0] - old[0])
    if old[1] > 0.0 and math.isfinite(old[1]):
        return change / old[1], True
    return change, False


def numeric_values(ops, text):
    """``{(column, index): float}`` of one CLI output, and its other text."""
    echo, header, rows = ops.parse_csv_output(text)
    values, other = {}, []
    numeric_echo = (*ops._ECHO_NUMERIC, "residual")
    for key in numeric_echo:
        if key in echo:
            values[(f"echo.{key}", 0)] = float(echo[key])
    for i, row in enumerate(rows):
        for column, cell in zip(header, row):
            number = ops._num(cell)
            if number is None:
                other.append(cell)
            else:
                values[(column, i)] = number
    other += [f"{k}={v}" for k, v in echo.items() if k not in numeric_echo]
    return values, other + [",".join(header or [])]


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/pool_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # ops imports secnet
    import ops

    old, new = (json.loads(Path(p).read_text()) for p in argv)
    # per (kind, column): values, changed, largest change, tolerance, exceeded
    stats = defaultdict(lambda: [0, 0, 0.0, None, False])
    listed, moved = [], set()
    shifts = defaultdict(list)  # (kind, estimate): (shift, in CI units) per op
    for op_id in sorted(set(old) | set(new)):
        kind = op_id.rsplit("-", 1)[0]
        a, b = old.get(op_id), new.get(op_id)
        if a is None or b is None or a["status"] != b["status"]:
            listed.append(f"{op_id}: status {a and a['status']} -> {b and b['status']}")
            continue
        ca, cb = a["canonical"], b["canonical"]
        subcommand = ops.CLI_KINDS.get(kind)
        if subcommand is None or ca[0] == "exception" or cb[0] == "exception":
            if ca != cb:
                listed.append(f"{op_id}: output changed")
                for name, old_est in a.get("estimates", {}).items():
                    new_est = b.get("estimates", {}).get(name)
                    if new_est is not None:
                        shifts[(kind, name)].append(estimate_shift(old_est, new_est))
            continue
        (va, oa), (vb, ob) = numeric_values(ops, ca[1]), numeric_values(ops, cb[1])
        if ca[0] != cb[0] or oa != ob or va.keys() != vb.keys():
            listed.append(f"{op_id}: exit code, text or shape changed")
            continue
        for key, x in va.items():
            y = vb[key]
            rtol, atol = tolerance(ops, subcommand, key[0])
            entry = stats[(kind, key[0])]
            entry[0] += 1
            entry[3] = (rtol, atol)
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            entry[1] += 1
            moved.add(op_id)
            change = abs(y - x) / abs(x) if rtol else abs(y - x)
            entry[2] = max(entry[2], change)
            entry[4] |= not ops._close(y, x, rtol, atol)
    print(f"{'kind':<18} {'column':<28} {'changed':>13} {'max change':>11} "
          f"{'tolerance':>14}")
    over = False
    for (kind, column), entry in sorted(stats.items()):
        count, changed, largest, (rtol, atol), exceeds = entry
        tol = f"{rtol:g} rel" if rtol else f"{atol:g} abs"
        over |= exceeds
        print(f"{kind:<18} {column:<28} {changed:>6} of {count:<5} {largest:>11.3g} "
              f"{tol:>14}{'  EXCEEDS' if exceeds else ''}")
    if shifts:
        print(f"\n{'kind':<18} {'estimate':<28} {'ops':>5} {'max shift/CI':>13} "
              f"{'max abs shift':>14}")
        for (kind, name), entries in sorted(shifts.items()):
            largest = [max((shift for shift, scaled in entries if scaled == want),
                           default=None) for want in (True, False)]
            in_ci, absolute = ("-" if x is None else f"{x:.3g}" for x in largest)
            print(f"{kind:<18} {name:<28} {len(entries):>5} {in_ci:>13} {absolute:>14}")
        print()
    print(f"{len(moved)} of {len(old)} ops have a changed value, "
          f"{len(listed)} are listed below")
    for line in listed:
        print(line)
    return 1 if over or listed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
