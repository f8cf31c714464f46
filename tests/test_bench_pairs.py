import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def runs(**columns):
    """Per-run metric dicts from one list of values per metric."""
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


class TestSummarize:
    PARENT = runs(ops_per_s=[10, 11, 12, 13, 14, 10, 11, 12, 13, 14],
                  op_p50_ms=[50, 52, 54, 56, 58, 50, 52, 54, 56, 58],
                  peak_rss_mb=[100, 100, 100, 100, 100, 100, 100, 100, 100, 100])

    def test_clear_gain(self):
        change = runs(ops_per_s=[20, 21, 22, 23, 24, 20, 21, 22, 23, 24],
                      op_p50_ms=[25, 26, 27, 28, 29, 25, 26, 27, 28, 29],
                      peak_rss_mb=[105, 105, 105, 105, 105, 105, 105, 105, 105, 105])
        rate, p50, rss = bench_pairs.summarize(METRICS, self.PARENT, change)
        assert rate["parent"] == (11.0, 12.0, 13.0)
        assert rate["change"] == (21.0, 22.0, 23.0)
        assert (rate["wins"], rate["pairs"], rate["worse"], rate["gain"]) == (10, 10, "no", True)
        # lower is better: every pair won
        assert (p50["wins"], p50["worse"], p50["gain"]) == (10, "no", True)
        # 5 % more memory: lost every pair, but within the 10 % bound
        assert (rss["wins"], rss["worse"], rss["gain"]) == (0, "no", False)

    def test_worse_than_bound_and_ties(self):
        change = runs(ops_per_s=[7, 8, 9, 9, 9, 7, 8, 9, 9, 9],
                      op_p50_ms=[50, 52, 54, 56, 58, 50, 52, 54, 56, 58],
                      peak_rss_mb=[111, 111, 111, 111, 111, 111, 111, 111, 111, 111])
        rate, p50, rss = bench_pairs.summarize(METRICS, self.PARENT, change)
        # median 9 against 12: 25 % lower is exactly the bound, not past it
        assert rate["change"][1] == 9.0 and rate["worse"] == "no"
        # ties count for neither side
        assert (p50["wins"], p50["worse"], p50["gain"]) == (0, "no", False)
        assert rss["worse"] == "yes"

    def test_gain_needs_nine_in_ten_and_the_parent_spread(self):
        # wins 8 of 10 by a wide margin: no gain
        change = runs(ops_per_s=[30, 30, 30, 30, 30, 30, 30, 30, 1, 1],
                      op_p50_ms=[55] * 10, peak_rss_mb=[100] * 10)
        rate = bench_pairs.summarize(METRICS, self.PARENT, change)[0]
        assert rate["wins"] == 8 and not rate["gain"]
        # wins every pair, by less than the parent's interquartile distance
        change = runs(ops_per_s=[x + 0.5 for x in (10, 11, 12, 13, 14) * 2],
                      op_p50_ms=[55] * 10, peak_rss_mb=[100] * 10)
        rate = bench_pairs.summarize(METRICS, self.PARENT, change)[0]
        assert rate["wins"] == 10 and not rate["gain"]

    def test_gain_withheld_when_more_operations_fail(self):
        metrics = METRICS + [{"name": "ok_share", "better": "higher", "bound": 0.05}]
        parent = [dict(run, ok_share=1.0) for run in self.PARENT]
        change = runs(ops_per_s=[30] * 10, op_p50_ms=[25] * 10,
                      peak_rss_mb=[100] * 10, ok_share=[1.0] * 4 + [0.99] * 6)
        rate, p50, _, ok = bench_pairs.summarize(metrics, parent, change)
        # every pair won by far, but the median run fails more operations
        assert (rate["wins"], rate["gain"], p50["gain"]) == (10, False, False)
        assert (ok["wins"], ok["worse"]) == (0, "no")
        change = [dict(run, ok_share=1.0) for run in change]
        assert bench_pairs.summarize(metrics, parent, change)[0]["gain"]

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # quartiles 9 and 16 around a median of 12: wider than 25 % of 12
        parent = runs(ops_per_s=[4, 8, 8, 12, 12, 12, 16, 16, 20, 20],
                      op_p50_ms=[54] * 10, peak_rss_mb=[100] * 10)
        change = runs(ops_per_s=[11] * 10, op_p50_ms=[54] * 10, peak_rss_mb=[100] * 10)
        assert bench_pairs.summarize(METRICS, parent, change)[0]["worse"] == "unresolved"
        # a median worse by more than the bound still reads worse
        change = runs(ops_per_s=[8] * 10, op_p50_ms=[54] * 10, peak_rss_mb=[100] * 10)
        assert bench_pairs.summarize(METRICS, parent, change)[0]["worse"] == "yes"
        # every change run beats every parent run: resolved, and a gain
        change = runs(ops_per_s=[21] * 10, op_p50_ms=[54] * 10, peak_rss_mb=[100] * 10)
        rate = bench_pairs.summarize(METRICS, parent, change)[0]
        assert (rate["worse"], rate["gain"]) == ("no", True)

    def test_format_has_a_row_per_metric(self):
        rows = bench_pairs.summarize(METRICS, self.PARENT, self.PARENT)
        lines = bench_pairs.format_rows(rows).splitlines()
        assert len(lines) == 1 + len(METRICS)
        assert lines[1].split()[0] == "ops_per_s"
        assert "12 [11, 13]" in lines[1]


def make_tree(root, run_text="x = 1\n", bench_text="{}\n"):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_text)
    (root / "BENCHMARK.json").write_text(bench_text)
    return root


class TestTreeCheck:
    def test_same_benchmark_passes(self, tmp_path):
        a = make_tree(tmp_path / "a")
        b = make_tree(tmp_path / "b")
        (b / "perfbench" / "__pycache__").mkdir()
        (b / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
        assert bench_pairs.differing_files(a, b) == []

    def test_differences_are_named(self, tmp_path):
        a = make_tree(tmp_path / "a")
        b = make_tree(tmp_path / "b", run_text="x = 2\n", bench_text="[]\n")
        (a / "perfbench" / "extra.py").write_text("")
        assert bench_pairs.differing_files(a, b) == [
            "BENCHMARK.json", "perfbench/extra.py", "perfbench/run.py"]

    def test_main_refuses_differing_trees(self, tmp_path, capsys):
        a = make_tree(tmp_path / "a")
        b = tmp_path / "b"
        shutil.copytree(a, b)
        (b / "BENCHMARK.json").write_text("[]\n")
        code = bench_pairs.main([str(a), str(b), "--workload", "delay", "--seed", "1"])
        assert code == 2
        assert "BENCHMARK.json" in capsys.readouterr().err


class TestRuns:
    META = {"meta": {"workload": "planning", "setup_runs_s": [1.2, 0.95, 1.5]}}
    LAST = {"correct": True, "metrics": {"ops_per_s": {"value": 60.0, "unit": "1/s"},
                                         "setup_s": {"value": 1.2, "unit": "s"}}}

    def fake_run(self, cmd, cwd, **kwargs):
        stdout = "".join(json.dumps(x) + "\n" for x in ({"setup_s": 1.0}, self.META,
                                                        self.LAST))
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    def test_run_once_reads_the_setup_runs(self, monkeypatch):
        monkeypatch.setattr(bench_pairs.subprocess, "run", self.fake_run)
        assert bench_pairs.run_once(Path("."), "planning", 1, 30) == (
            True, {"ops_per_s": 60.0, "setup_s": 1.2}, [1.2, 0.95, 1.5])

    def test_each_run_prints_its_setup_runs(self, monkeypatch, tmp_path, capsys):
        bench = json.dumps({"run_seconds": 30, "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25}]})
        a = make_tree(tmp_path / "a", bench_text=bench)
        b = make_tree(tmp_path / "b", bench_text=bench)
        monkeypatch.setattr(bench_pairs.subprocess, "run", self.fake_run)
        code = bench_pairs.main([str(a), str(b), "--workload", "planning",
                                 "--seed", "1", "--pairs", "1"])
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[:2] for line in lines] == [["pair", "0"]] * 2
        assert all(line.endswith("setup_runs_s=[1.2, 0.95, 1.5]") for line in lines)
