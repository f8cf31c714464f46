import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from secnet import ConvergenceError, cli, solve_equilibrium
from secnet.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
)

from conftest import make_scenario

BASE = """\
[scenario]
user_density = 50
target_rate = 4

[traffic]
session_interarrival_mean = 10
file_size_mean = 10

[outage]
interarrival_mean = 10
"""

FIVE_BANDS = BASE + "".join(
    f"\n[band.{i}]\nbandwidth = 1\nvacancy = 1\nbs_density = 1\n"
    for i in range(1, 6)
)

ONE_BAND = BASE + "\n[band.1]\nbandwidth = 1\nvacancy = 1\nbs_density = 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return cli.main(args)


def run_process(args):
    """``secnet`` run as its own process, so that stderr holds whatever numpy
    would warn."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "secnet.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def read_rows(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


class TestConfigHandling:
    def test_unknown_section(self, tmp_path):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS + "\n[mystery]\nx = 1\n")
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path):
        cfg = write(tmp_path, "c.ini",
                    FIVE_BANDS.replace("user_density", "user_densty"))
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert run(["equilibrium", "--config", str(tmp_path / "nope.ini")]) \
            == EXIT_CONFIG

    def test_missing_band_section(self, tmp_path):
        cfg = write(tmp_path, "c.ini", BASE)
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG

    GRID = "\n[grid]\nt_min = {lo}\nt_max = {hi}\npoints = {n}\nscale = {scale}\n"
    VALIDATE = "\n[validate]\nusers = {users}\ncells = {cells}\nsessions = {sessions}\n"

    @pytest.mark.parametrize("subcommand, extra", [
        pytest.param("capacity", "\n[capacity]\nratios = 5,abc\n",
                     id="ratio-not-a-number"),
        pytest.param("capacity", "\n[capacity]\nratios = 5,-1\n",
                     id="ratio-negative"),
        pytest.param("capacity", "\n[capacity]\nn_min = 0\nn_max = 2\n",
                     id="n_min-zero"),
        pytest.param("tradeoff", "\n[sweep]\nmin = -0.1\nmax = 0.1\npoints = 3\n",
                     id="sweep-capacity-negative"),
        pytest.param("tradeoff", "\n[sweep]\nmin = 0.1\nmax = -0.1\npoints = 3\n"
                     "scale = log\n", id="sweep-log-crosses-zero"),
        pytest.param("tradeoff", "\n[sweep]\nparameter = target_rate\nmin = 0\n"
                     "max = 4\npoints = 3\n", id="sweep-rate-zero"),
        pytest.param("delay-cdf", GRID.format(lo=0, hi=10, n=20, scale="linear"),
                     id="grid-t_min-zero-linear"),
        pytest.param("delay-cdf", GRID.format(lo=0, hi=10, n=20, scale="log"),
                     id="grid-t_min-zero-log"),
        pytest.param("delay-cdf", GRID.format(lo=1, hi=10, n=0, scale="log"),
                     id="grid-no-points"),
        pytest.param("delay-cdf", GRID.format(lo=10, hi=10, n=20, scale="log"),
                     id="grid-t_max-equals-t_min"),
        pytest.param("delay-cdf", GRID.format(lo=10, hi=1, n=20, scale="linear"),
                     id="grid-t_max-below-t_min"),
        pytest.param("delay-cdf", GRID.format(lo=1, hi=10, n=20, scale="lgo"),
                     id="grid-unknown-scale"),
        pytest.param("validate", "\n[validate]\nusers = abc\n",
                     id="validate-users-not-a-number"),
        pytest.param("delay-cdf --validate", "\n[validate]\nsessions = 0\n",
                     id="validate-no-sessions"),
        pytest.param("equilibrium", "[scenario]\nthinning = 0\n", id="thinning-zero"),
        pytest.param("capacity", "[scenario]\nthinning = -1\n",
                     id="thinning-negative"),
        pytest.param("delay-cdf", GRID.format(lo=1, hi=10, n=2.5, scale="log"),
                     id="grid-points-fraction"),
        pytest.param("tradeoff", "\n[sweep]\nmin = 0\nmax = 0.1\npoints = 3.9\n",
                     id="sweep-points-fraction"),
        pytest.param("capacity", "\n[capacity]\nn_min = 1.5\nn_max = 2\n",
                     id="n_min-fraction"),
        pytest.param("capacity", "\n[capacity]\nn_min = 1\nn_max = 2.5\n",
                     id="n_max-fraction"),
        pytest.param("validate", VALIDATE.format(users=100.5, cells=200, sessions=1000),
                     id="validate-users-fraction"),
        pytest.param("validate", VALIDATE.format(users=100, cells=200.5, sessions=1000),
                     id="validate-cells-fraction"),
        pytest.param("validate", VALIDATE.format(users=100, cells=200, sessions=1000.5),
                     id="validate-sessions-fraction"),
        pytest.param("equilibrium", "\n[band.1]\nbandwidth = 1\nvacancy = 1\n"
                     "bs_density = 1\n", id="duplicate-section"),
        pytest.param("equilibrium", "[scenario]\ntarget_rate = 5\n",
                     id="duplicate-key"),
        pytest.param("capacity", "\n[capacity]\nn_min = 5\nn_max = 2\n",
                     id="capacity-empty-range"),
        pytest.param("delay-cdf --validate", "\n[validate]\nsessions = 21\n",
                     id="delay-cdf-sessions-below-batches"),
        pytest.param("validate", "\n[validate]\nsessions = 21\n",
                     id="validate-sessions-below-batches"),
        pytest.param("validate", "\n[validate]\nthinning = 0\n",
                     id="validate-thinning-zero"),
        pytest.param("validate", "\n[validate]\nthinning = -1\n",
                     id="validate-thinning-negative"),
        pytest.param("validate", "\n[validate]\nratio = 0\n",
                     id="validate-ratio-zero"),
        pytest.param("validate", "\n[validate]\nusers = 0\n",
                     id="validate-users-zero"),
        pytest.param("validate", "\n[validate]\ncells = -1\n",
                     id="validate-cells-negative"),
        # no interior user is covered, so there is no contender count to refit
        pytest.param("validate", "\n[validate]\nusers = 100\ncells = 400\n"
                     "sessions = 1000\nratio = 1e-6\n", id="validate-ratio-no-user"),
        pytest.param("equilibrium", "[scenario]\nthinning = nan\n", id="thinning-nan"),
        pytest.param("capacity", "\n[band.6]\nbandwidth = nan\nvacancy = 1\n"
                     "bs_density = 1\n", id="bandwidth-nan"),
        pytest.param("equilibrium", "\n[band.6]\nbandwidth = 1\nvacancy = 1\n"
                     "bs_density = inf\n", id="bs_density-infinite"),
        pytest.param("capacity", "\n[capacity]\nratios = 5,inf\n",
                     id="ratio-infinite"),
        pytest.param("tradeoff", "\n[sweep]\nmin = 0\nmax = 0.1\npoints = 3\n"
                     "fixed_rate = inf\n", id="sweep-fixed-rate-infinite"),
        # a fixed rate would replace every swept target rate
        pytest.param("tradeoff", "\n[sweep]\nparameter = target_rate\nmin = 1\n"
                     "max = 6\npoints = 4\nfixed_rate = 4\n",
                     id="sweep-target-rate-with-fixed-rate"),
        pytest.param("delay-cdf", GRID.format(lo=1, hi="inf", n=20, scale="log"),
                     id="grid-t_max-infinite"),
        pytest.param("validate", "\n[validate]\nthinning = nan\n",
                     id="validate-thinning-nan"),
        pytest.param("validate", "\n[validate]\nratio = inf\n",
                     id="validate-ratio-infinite"),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys,
                                             subcommand, extra):
        # a row that starts with [scenario] adds its keys to that section
        if extra.startswith("[scenario]"):
            text = FIVE_BANDS.replace("[scenario]\n", extra, 1)
        else:
            text = FIVE_BANDS + extra
        cfg = write(tmp_path, "c.ini", text)
        assert run(subcommand.split() + ["--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""  # rejected before any output is written
        assert err.startswith("config error:")

    def test_key_before_any_section_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "target_rate = 4\n" + FIVE_BANDS)
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(FIVE_BANDS.encode() + b"# \xff\n")
        assert run(["equilibrium", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("argv", [
        pytest.param(["equilibrium", "--config", "c.ini", "--bogus"], id="unknown-flag"),
        pytest.param(["equilibrium"], id="missing-config"),
        pytest.param(["nonsense", "--config", "c.ini"], id="unknown-subcommand"),
        # numpy's generators raise ValueError on a negative seed
        pytest.param(["delay-cdf", "--config", "c.ini", "--validate", "--seed", "-1"],
                     id="negative-seed"),
    ])
    def test_usage_error_exits_config(self, capsys, argv):
        # argparse's own exit code 2 would read as "infeasible"
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: secnet")
        assert "secnet: error:" in err


def test_readme_subcommands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = re.findall(r"^- `secnet ([^`]*)`", readme, flags=re.MULTILINE)
    assert sorted(c.split()[0] for c in commands) == sorted(cli._COMMANDS)
    for command in commands:
        args = cli.make_parser().parse_args(shlex.split(command))
        assert args.config == "cfg.ini"


class TestEquilibriumCommand:
    def test_matches_library(self, tmp_path):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS)
        out = str(tmp_path / "eq.csv")
        assert run(["equilibrium", "--config", cfg, "--out", out]) == EXIT_OK
        comments, header, rows = read_rows(out)
        assert header == ["band", "service", "coverage", "access", "load"]
        assert len(rows) == 5
        sol = solve_equilibrium(make_scenario())
        eps_line = next(c for c in comments if c.startswith("# epsilon"))
        assert float(eps_line.split("=")[1]) == pytest.approx(sol.epsilon, rel=1e-8)
        assert any(c.startswith("# seed") for c in comments)
        assert float(rows[0]["service"]) == pytest.approx(
            sol.bands[0].service, rel=1e-8
        )

    def test_infeasible_exit(self, tmp_path):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS.replace(
            "target_rate = 4", "target_rate = 2"))
        assert run(["equilibrium", "--config", cfg]) == EXIT_INFEASIBLE

    def test_no_coverage_is_named_without_warnings(self, tmp_path):
        # 2^(R/W) overflows at R/W = 2000: no band covers any user
        cfg = write(tmp_path, "c.ini", ONE_BAND.replace(
            "target_rate = 4", "target_rate = 2000"))
        proc = run_process(["equilibrium", "--config", cfg])
        assert proc.returncode == EXIT_INFEASIBLE
        assert proc.stdout == ""
        assert proc.stderr == (
            "infeasible: no band covers a user at target rate 2000\n")

    def test_uncovering_band_has_access_one_without_warnings(self, tmp_path):
        # band 1 is past R/W = 1024 at R = 123 and covers nobody: its access is
        # the zero-contention limit 1, not 0/0
        text = BASE.replace("user_density = 50", "user_density = 5").replace(
            "target_rate = 4", "target_rate = 123").replace(
            "file_size_mean = 10", "file_size_mean = 1") + "".join(
            f"\n[band.{i}]\nbandwidth = {w}\nvacancy = 1\nbs_density = 1\n"
            for i, w in ((1, 0.1), (2, 10)))
        cfg = write(tmp_path, "c.ini", text)
        proc = run_process(["equilibrium", "--config", cfg])
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-2] == "1,0,0,1,0"


class TestTradeoffCommand:
    SWEEP = ONE_BAND.replace("bs_density = 1", "bs_density = 10") + (
        "\n[sweep]\nparameter = capacity\nmin = 0\nmax = 0.2\npoints = 5\n"
        "fixed_rate = 4\n"
    )

    def test_zero_capacity_row(self, tmp_path):
        cfg = write(tmp_path, "c.ini", self.SWEEP)
        out = str(tmp_path / "t.csv")
        assert run(["tradeoff", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        row0 = rows[0]
        assert float(row0["capacity"]) == 0.0
        # with no traffic the mean delay is exactly file mean / (R * epsilon)
        eps = float(row0["epsilon"])
        # columns are written with 9 significant digits
        assert float(row0["mean_delay"]) == pytest.approx(
            10.0 / (4.0 * eps), rel=1e-6
        )

    def test_zero_capacity_row_below_the_search_floor(self, tmp_path):
        # at R = 90 a width-1 band covers 1.8e-14 of the users: with no
        # demand that is the equilibrium, however small
        cfg = write(tmp_path, "c.ini", self.SWEEP.replace(
            "fixed_rate = 4", "fixed_rate = 90"))
        out = str(tmp_path / "t.csv")
        assert run(["tradeoff", "--config", cfg, "--out", out]) == EXIT_OK
        row0 = read_rows(out)[2][0]
        assert row0["feasible"] == "1"
        assert float(row0["epsilon"]) == pytest.approx(1.8093822e-14, rel=1e-7)

    def test_delay_monotone_in_capacity(self, tmp_path):
        cfg = write(tmp_path, "c.ini", self.SWEEP)
        out = str(tmp_path / "t.csv")
        run(["tradeoff", "--config", cfg, "--out", out])
        _, _, rows = read_rows(out)
        delays = [float(r["mean_delay"]) for r in rows if r["feasible"] == "1"]
        assert delays == sorted(delays)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, "c.ini", self.SWEEP)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(["tradeoff", "--config", cfg, "--out", a])
        run(["tradeoff", "--config", cfg, "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_workers_preserve_order(self, tmp_path):
        cfg = write(tmp_path, "c.ini", self.SWEEP)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run(["tradeoff", "--config", cfg, "--out", a])
        run(["tradeoff", "--config", cfg, "--out", b, "--workers", "3"])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_infeasible_points_flagged_not_fatal(self, tmp_path):
        heavy = ONE_BAND + (
            "\n[sweep]\nparameter = capacity\nmin = 0.5\nmax = 2\npoints = 3\n"
            "fixed_rate = 4\n"
        )
        cfg = write(tmp_path, "c.ini", heavy)
        out = str(tmp_path / "t.csv")
        assert run(["tradeoff", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert all(r["feasible"] == "0" for r in rows)
        assert all(r["mean_delay"] == "nan" for r in rows)

    def test_workers_capped_by_points_and_cores(self, tmp_path, monkeypatch):
        # a fork-started pool forks all max_workers processes at the first submit
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfg = write(tmp_path, "c.ini", self.SWEEP)  # 5 points
        argv = ["tradeoff", "--config", cfg, "--out", str(tmp_path / "t.csv"),
                "--workers", "64"]
        for cores, expected in ((8, 5), (3, 3)):
            monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
            assert run(argv) == EXIT_OK
            assert started[-1] == expected
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert run(argv) == EXIT_OK
        assert len(started) == 2  # one core: the serial loop, no pool

    def test_json_lines_format(self, tmp_path):
        cfg = write(tmp_path, "c.ini", self.SWEEP)
        out = str(tmp_path / "t.jsonl")
        run(["tradeoff", "--config", cfg, "--out", out,
             "--format", "json-lines"])
        lines = open(out).read().splitlines()
        meta = json.loads(lines[0])
        assert "config" in meta
        row = json.loads(lines[1])
        assert row["feasible"] == 1

    def test_sweep_validation(self, tmp_path):
        bad = ONE_BAND + "\n[sweep]\nparameter = magic\nmin = 0\nmax = 1\npoints = 3\n"
        cfg = write(tmp_path, "c.ini", bad)
        assert run(["tradeoff", "--config", cfg]) == EXIT_CONFIG
        bad2 = ONE_BAND + "\n[sweep]\nparameter = capacity\nmin = 0\nmax = 1\npoints = 1\n"
        cfg2 = write(tmp_path, "c2.ini", bad2)
        assert run(["tradeoff", "--config", cfg2]) == EXIT_CONFIG


class TestCapacityCommand:
    def test_identity_column(self, tmp_path):
        cfg = write(tmp_path, "c.ini",
                    ONE_BAND + "\n[capacity]\nn_min = 1\nn_max = 6\n")
        out = str(tmp_path / "cap.csv")
        assert run(["capacity", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) == 6
        for r in rows:
            lhs = float(r["n_times_c_max_fixed_system"])
            rhs = float(r["c_max_fixed_band"])
            assert lhs == pytest.approx(rhs, rel=1e-8)
        caps = [float(r["c_max_fixed_band"]) for r in rows]
        assert caps == sorted(caps)  # aggregation helps monotonically

    def test_infeasible_ratio_prints_no_table(self, tmp_path, capsys):
        # ratio 1e200 has no optimum below R/W = 1000; the feasible 1e4 row
        # before it must not be left behind as a truncated table
        cfg = write(tmp_path, "c.ini", ONE_BAND
                    + "\n[capacity]\nn_min = 1\nn_max = 1\nratios = 1e4,1e200\n")
        assert run(["capacity", "--config", cfg]) == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("infeasible:")


class TestDelayCdfCommand:
    def test_tail_reached(self, tmp_path):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS)
        out = str(tmp_path / "cdf.csv")
        assert run(["delay-cdf", "--config", cfg, "--out", out]) == EXIT_OK
        _, header, rows = read_rows(out)
        assert header == ["t", "cdf"]
        values = [float(r["cdf"]) for r in rows]
        assert values[-1] >= 0.999
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_explicit_grid(self, tmp_path):
        cfg = write(
            tmp_path, "c.ini",
            FIVE_BANDS + "\n[grid]\nt_min = 1\nt_max = 500\npoints = 40\n",
        )
        out = str(tmp_path / "cdf.csv")
        assert run(["delay-cdf", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        assert len(rows) == 40
        assert float(rows[0]["t"]) == pytest.approx(1.0)
        assert float(rows[-1]["t"]) == pytest.approx(500.0)


class TestNumericalFailure:
    # delay_oscillation-000 of the benchmark's delay pool: Gamma(0.5) outages
    # at epsilon ~ 0.02, on a grid far in the tail
    OSCILLATION = """\
[scenario]
user_density = 471.091
target_rate = 1.61034

[traffic]
session_interarrival_mean = 501.349
file_size_mean = 14.8765
file_size_family = exponential
file_size_shape = 1

[outage]
interarrival_mean = 14.6581
duration_shape = 0.5

[band.1]
bandwidth = 5
vacancy = 0.813
bs_density = 2

[band.2]
bandwidth = 0.5
vacancy = 0.773
bs_density = 1

[grid]
t_min = 4e7
t_max = 1.3e8
points = 12
scale = log
"""

    def test_convergence_error_exits_numerical(self, tmp_path, capsys, monkeypatch):
        def fail(handle, t_grid):
            raise ConvergenceError("inversion oscillation at t=1: value 1.5")

        monkeypatch.setattr(cli, "delay_cdf", fail)
        cfg = write(tmp_path, "c.ini", FIVE_BANDS)
        assert run(["delay-cdf", "--config", cfg]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: inversion oscillation at t=1: value 1.5\n"

    def test_oscillation_config_ends_in_documented_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", self.OSCILLATION)
        code = run(["delay-cdf", "--config", cfg])  # raises nothing
        documented = {EXIT_OK, EXIT_INFEASIBLE, EXIT_VALIDATION, EXIT_CONFIG,
                      EXIT_NUMERICAL}
        assert code in documented
        if code != EXIT_OK:
            assert capsys.readouterr().out == ""


class TestValidateCommand:
    VAL = """\
[scenario]
user_density = 50
target_rate = 2

[traffic]
session_interarrival_mean = 100
file_size_mean = 10

[outage]
interarrival_mean = 10

[band.1]
bandwidth = 1
vacancy = 1
bs_density = 10

[validate]
users = 20000
cells = 15000
sessions = 100000
ratio = 5
"""

    def test_suite_passes_on_default_config(self, tmp_path):
        cfg = write(tmp_path, "v.ini", self.VAL)
        out = str(tmp_path / "v.csv")
        assert run(["validate", "--config", cfg, "--out", out]) == EXIT_OK
        comments, header, rows = read_rows(out)
        assert header == ["check", "statistic", "tolerance", "passed"]
        assert all(r["passed"] == "1" for r in rows)
        assert any(c.startswith("# seed = ") for c in comments)

    def test_negative_control_corrupted_thinning(self, tmp_path):
        cfg = write(tmp_path, "v.ini", self.VAL + "thinning = 1.5\n")
        out = str(tmp_path / "v.csv")
        assert run(["validate", "--config", cfg, "--out", out]) == EXIT_VALIDATION
        _, _, rows = read_rows(out)
        failed = [r["check"] for r in rows if r["passed"] == "0"]
        assert "contender_pmf_tv" in failed


class TestOutput:
    # every section any subcommand reads, at sizes that run in well under a second
    ALL = ONE_BAND.replace("bs_density = 1", "bs_density = 10").replace(
        "session_interarrival_mean = 10", "session_interarrival_mean = 100") + (
        "\n[sweep]\nmin = 0\nmax = 2\npoints = 3\nfixed_rate = 4\n"
        "\n[capacity]\nn_max = 2\n"
        "\n[grid]\nt_min = 1\nt_max = 100\npoints = 5\n"
        "\n[validate]\nsessions = 200\n"
    )

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("subcommand",
                             ["equilibrium", "capacity", "tradeoff", "delay-cdf"])
    def test_stdout_and_out_file_identical(self, tmp_path, capsys, subcommand, fmt):
        cfg = write(tmp_path, "c.ini", self.ALL)
        argv = [subcommand, "--config", cfg, "--format", fmt]
        assert run(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout
        assert len(stdout.splitlines()) > 1

    @pytest.mark.parametrize("text, code", [
        pytest.param(FIVE_BANDS.replace("target_rate = 4", "target_rate = 2"),
                     EXIT_INFEASIBLE, id="infeasible"),
        pytest.param(BASE, EXIT_CONFIG, id="no-bands"),
    ])
    def test_failing_run_keeps_existing_out(self, tmp_path, text, code):
        cfg = write(tmp_path, "c.ini", text)
        out = tmp_path / "prev.csv"
        out.write_bytes(b"previous run\n")
        assert run(["equilibrium", "--config", cfg, "--out", str(out)]) == code
        assert out.read_bytes() == b"previous run\n"

    @pytest.mark.parametrize("name, reason", [
        ("missing/t.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, name, reason):
        cfg = write(tmp_path, "c.ini", self.ALL)
        out = str(tmp_path / name)
        assert run(["equilibrium", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: cannot write {out}: {reason}\n")

    def test_json_lines_are_json(self, tmp_path, capsys):
        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        cfg = write(tmp_path, "c.ini", self.ALL)
        assert run(["tradeoff", "--config", cfg, "--format", "json-lines"]) == EXIT_OK
        rows = [json.loads(line, parse_constant=no_constant)
                for line in capsys.readouterr().out.splitlines()][1:]
        assert [r["feasible"] for r in rows] == [1, 0, 0]
        assert rows[1]["epsilon"] is None and rows[1]["mean_delay"] is None

    def test_failed_validation_footer(self, tmp_path, capsys):
        # 200 sessions put the empirical CDF well outside KS 0.02
        cfg = write(tmp_path, "c.ini", self.ALL)
        argv = ["delay-cdf", "--config", cfg, "--validate"]
        assert run(argv) == EXIT_VALIDATION
        assert capsys.readouterr().out.endswith("\n# FAILED: validate.ks\n")
        assert run(argv + ["--format", "json-lines"]) == EXIT_VALIDATION
        for line in capsys.readouterr().out.splitlines():
            json.loads(line)
