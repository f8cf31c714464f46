"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import secnet.capacity  # noqa: E402
import secnet.cli  # noqa: E402

import ops  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _inputs(workload, seed, workdir, n=60):
    """Bytes of the generated inputs of the first ``n`` ops, in run order."""
    pool = ops.mix_pool(workload)
    out = []
    for op in ops.sequence(workload, pool, seed)[:n]:
        prepared = ops.Prepared(op, workdir)
        if prepared.is_cli:
            out.append(Path(prepared.argv[2]).read_bytes())
        else:
            out.append(json.dumps(op["params"], sort_keys=True).encode())
    return out


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_seed_fixes_configs_and_order(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_pool_config_loads(workload, tmp_path):
    for op in ops.load_pool(workload):
        prepared = ops.Prepared(op, tmp_path)
        if prepared.is_cli:
            parser = secnet.cli.load_config(prepared.argv[2])
            secnet.cli.build_scenario(parser)


def _cheap_ops(workload, tmp_path, per_kind=2):
    pool = ops.mix_pool(workload)
    chosen = []
    for kind in ops.MIX[workload]:
        of_kind = sorted((op for op in pool if op["kind"] == kind),
                         key=lambda op: op["ref"]["seconds"])
        chosen.extend(of_kind[:per_kind])
    return [ops.Prepared(op, tmp_path) for op in chosen]


def test_mix_holds_no_recorded_failure():
    for workload in ops.WORKLOADS:
        pool = ops.mix_pool(workload)
        assert {op["kind"] for op in pool} == set(ops.MIX[workload])
        seq = ops.sequence(workload, pool, 5, n_rounds=3)
        assert all(ops.recorded_failure(op) is None for op in seq)


KNOWN_DEFECTS = [
    pytest.param(workload, op, id=op["id"],
                 marks=pytest.mark.xfail(strict=True, reason=ops.recorded_failure(op)))
    for workload in ops.WORKLOADS
    for op in ops.load_pool(workload)
    if ops.recorded_failure(op) is not None
]


@pytest.mark.parametrize(("workload", "op"), KNOWN_DEFECTS)
def test_known_defect_is_fixed(workload, op, tmp_path):
    """Pool ops that failed at recording, kept out of the timed mix.  Each
    is expected to fail until the defect is fixed; then it passes, strict
    xfail turns that into a failure, and the op's kind can return to the
    mix."""
    prepared = ops.Prepared(op, tmp_path)
    status, reason, _, _ = ops.check_op(prepared, *ops.run_op(prepared)[1:])
    assert status == "ok", reason


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_traced_outputs_equal_untraced(workload, tmp_path):
    prepared = _cheap_ops(workload, tmp_path)
    plain = [ops.check_op(p, *ops.run_op(p)[1:]) for p in prepared]
    t = tracer.Tracer()
    t.install()
    try:
        traced = []
        for p in prepared:
            with t.op(p.id, p.kind):
                _, result, exc = ops.run_op(p)
            traced.append(ops.check_op(p, result, exc))
    finally:
        t.uninstall()
    assert [c[2] for c in plain] == [c[2] for c in traced]
    assert all(c[0] != "failed" for c in traced)
    metrics = t.metrics(cli_ops=prepared[0].is_cli)
    layer_names = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_share"}
    assert set(metrics) == layer_names
    busiest = {"planning": "equilibrium.solves", "delay": "queueing.transform_evals",
               "montecarlo": "queue_sim.runs"}[workload]
    assert metrics[busiest][0] > 0
    assert secnet.cli.solve_equilibrium is secnet.capacity.solve_equilibrium
    assert not hasattr(secnet.cli.solve_equilibrium, "__wrapped__")


def test_removed_name_is_reported_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(secnet.capacity, "min_delay_over_rate")
    voronoi = [p for p in _cheap_ops("montecarlo", tmp_path, 1) if p.kind == "voronoi"]
    t = tracer.Tracer()
    with pytest.warns(UserWarning, match="min_delay_over_rate"):
        t.install()
    try:
        with t.op(voronoi[0].id, "voronoi"):
            ops.run_op(voronoi[0])
    finally:
        t.uninstall()
    assert t.absent == ["capacity.min_delay_over_rate"]
    metrics = t.metrics(cli_ops=False)
    assert "capacity.min_delay_over_rate.calls" not in metrics
    assert "capacity.solves_per_min_delay" not in metrics
    assert metrics["spatial.replications"][0] == voronoi[0].cfg.replications


def test_cdf_check_tolerance():
    op = next(op for op in ops.load_pool("delay") if op["kind"] == "delay_exp_grid")
    ref = op["ref"]["stdout"]
    keys = [f"{s}.{k}" for s, items in op["config"].items() for k in items]
    lines = ref.splitlines()
    row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    t, value = lines[row].split(",")

    def perturbed(delta):
        changed = list(lines)
        changed[row] = f"{t},{float(value) + delta:.9g}"
        return "\n".join(changed) + "\n"

    assert ops.compare_cli_output("delay-cdf", ref, ref, keys) is None
    assert ops.compare_cli_output("delay-cdf", perturbed(1e-6), ref, keys) is None
    assert "cdf" in ops.compare_cli_output("delay-cdf", perturbed(-1e-3), ref, keys)


def test_run_prints_the_end_to_end_metrics():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "planning", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
