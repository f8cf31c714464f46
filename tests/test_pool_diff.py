import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pool_diff.py"
_SPEC = importlib.util.spec_from_file_location("pool_diff", _PATH)
pool_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pool_diff)

EQUILIBRIUM = "# epsilon = 0.5\n# subcommand = equilibrium\nband,service\n1,0.25\n2,0.75\n"
POOL = {
    "coverage-000": {"status": "ok", "canonical": "c0",
                     "estimates": {"coverage": [0.70, 0.04, 4]}},
    "coverage-001": {"status": "ok", "canonical": "c1",
                     "estimates": {"coverage": [0.60, 0.02, 4]}},
    "pmf-000": {"status": "ok", "canonical": "p0",
                "estimates": {"access_probability": [0.30, 0.02, 2],
                              "per_cell_mean": [2.0, 0.0, 100]}},
    "voronoi-000": {"status": "ok", "canonical": "v0",
                    "estimates": {"ks_typical": [0.08, 0.0, 598]}},
    "equilibrium-000": {"status": "ok", "canonical": [0, EQUILIBRIUM]},
}


def changed(**edits):
    """A deep copy of ``POOL`` with ``op_id -> (path, value)`` edits."""
    pool = json.loads(json.dumps(POOL))
    for op_id, (path, value) in edits.items():
        entry = pool[op_id]
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
    return pool


@pytest.fixture
def diff(tmp_path, monkeypatch, capsys):
    """Runs ``pool_diff.main`` on two pools; returns (exit code, stdout)."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends to it

    def run(old, new):
        paths = [tmp_path / "old.json", tmp_path / "new.json"]
        for path, pool in zip(paths, (old, new)):
            path.write_text(json.dumps(pool))
        code = pool_diff.main([str(p) for p in paths])
        return code, capsys.readouterr().out
    return run


def estimate_rows(out):
    """``{(kind, estimate): (ops, in CI units, absolute)}`` of the shift table."""
    rows = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[2].isdigit():
            rows[(fields[0], fields[1])] = tuple(fields[2:])
    return rows


def test_identical_pools_pass(diff):
    code, out = diff(POOL, POOL)
    assert code == 0
    assert "0 of 5 ops have a changed value, 0 are listed below" in out
    assert estimate_rows(out) == {}


def test_moved_simulator_op_is_listed_with_its_ci_unit_shift(diff):
    new = changed(**{"coverage-000": (["canonical"], "c0'"),
                     "pmf-000": (["canonical"], "p0'")})
    new["coverage-000"]["estimates"]["coverage"] = [0.71, 0.05, 4]
    new["pmf-000"]["estimates"]["access_probability"] = [0.29, 0.02, 2]
    new["pmf-000"]["estimates"]["per_cell_mean"] = [2.5, 0.0, 100]
    code, out = diff(POOL, new)
    assert code == 1
    assert out.splitlines()[-2:] == ["coverage-000: output changed",
                                     "pmf-000: output changed"]
    rows = estimate_rows(out)
    # 0.01 is 0.25 of the old CI half-width 0.04 (0.2 of the new one); an
    # estimate without a CI shifts in absolute terms
    assert rows[("coverage", "coverage")] == ("1", "0.25", "-")
    assert rows[("pmf", "access_probability")] == ("1", "0.5", "-")
    assert rows[("pmf", "per_cell_mean")] == ("1", "-", "0.5")
    assert ("voronoi", "ks_typical") not in rows


def test_cli_value_within_tolerance_passes(diff):
    moved = EQUILIBRIUM.replace("0.75", "0.75000001")
    code, out = diff(POOL, changed(**{"equilibrium-000": (["canonical", 1], moved)}))
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.split()[:2] == ["equilibrium", "service"])
    assert line.split()[2:5] == ["1", "of", "2"]
    assert "EXCEEDS" not in out
    assert "1 of 5 ops have a changed value, 0 are listed below" in out


def test_cli_value_beyond_tolerance_fails(diff):
    moved = EQUILIBRIUM.replace("0.75", "0.76")
    code, out = diff(POOL, changed(**{"equilibrium-000": (["canonical", 1], moved)}))
    assert code == 1
    assert "EXCEEDS" in out


def test_status_change_is_listed(diff):
    code, out = diff(POOL, changed(**{"voronoi-000": (["status"], "failed")}))
    assert code == 1
    assert out.splitlines()[-1] == "voronoi-000: status ok -> failed"


def test_estimate_shift_units():
    assert pool_diff.estimate_shift([1.0, 0.5, 4], [1.25, 0.5, 4]) == (0.5, True)
    assert pool_diff.estimate_shift([1.0, 0.0, 4], [1.25, 0.0, 4]) == (0.25, False)
    assert pool_diff.estimate_shift([1.0, float("inf"), 1], [0.5, 0.1, 1]) == (0.5, False)
