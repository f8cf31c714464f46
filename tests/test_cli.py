import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from secnet import cli, solve_equilibrium
from secnet.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION

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
