import configparser
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from secnet import ConvergenceError, OutageModel, cli, queueing, solve_equilibrium
from secnet import capacity as cap
from secnet.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
)
from secnet.equilibrium import solve_epsilons

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


def run_process(args, flags=()):
    """``secnet`` run as its own process, with interpreter ``flags``, so that
    stderr holds whatever numpy would warn."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-m", "secnet.cli", *args],
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


ROWS = [(section, key, *row) for section, rows in cli._KEYS.items()
        for key, row in rows.items()]


def _outside(kind, bound):
    """Values that break ``bound``, such as "> 0" or ">= 2", as config text."""
    op, limit = bound.split()
    if kind is int:
        return st.integers(-10**6, int(limit) - (op == ">=")).map(str)
    return st.floats(-1e6, float(limit), exclude_max=op == ">=").map(repr)


@st.composite
def bad_entries(draw):
    """A config key and a value its ``cli._KEYS`` row rejects: text that is no
    number or choice, a non-finite number, a fraction for a count, or a number
    outside the row's bound.  A count is never drawn valid, so never large."""
    section, key, kind, _, bound = draw(st.sampled_from(ROWS))
    values = [st.sampled_from(["abc", "", "1e", "0x10", "nan", "inf", "-inf"])]
    if kind is int:
        values.append(st.integers(-10**6, 10**6).map(lambda n: f"{n}.5"))
    if bound:
        values.append(_outside(kind, bound))
    value = draw(st.one_of(values))
    return section, key, kind, f"5,{value}" if kind is list else value


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
    VALIDATE = "\n[validate]\nsessions = {sessions}\n"

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
        pytest.param("validate", VALIDATE.format(sessions=1000.5),
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
        pytest.param("equilibrium", "[scenario]\nthinning = nan\n", id="thinning-nan"),
        pytest.param("capacity", "\n[band.6]\nbandwidth = nan\nvacancy = 1\n"
                     "bs_density = 1\n", id="bandwidth-nan"),
        pytest.param("equilibrium", "\n[band.6]\nbandwidth = 1\nvacancy = 1\n"
                     "bs_density = inf\n", id="bs_density-infinite"),
        pytest.param("capacity", "\n[capacity]\nratios = 5,inf\n",
                     id="ratio-infinite"),
        pytest.param("tradeoff", "\n[sweep]\nmin = 0\nmax = 0.1\npoints = 3\n"
                     "fixed_rate = inf\n", id="sweep-fixed-rate-infinite"),
        pytest.param("tradeoff", "\n[sweep]\nmin = 0\nmax = 0.1\npoints = 3\n"
                     "fixed_rate = 0\n", id="sweep-fixed-rate-zero"),
        # a fixed rate would replace every swept target rate
        pytest.param("tradeoff", "\n[sweep]\nparameter = target_rate\nmin = 1\n"
                     "max = 6\npoints = 4\nfixed_rate = 4\n",
                     id="sweep-target-rate-with-fixed-rate"),
        pytest.param("delay-cdf", GRID.format(lo=1, hi="inf", n=20, scale="log"),
                     id="grid-t_max-infinite"),
        pytest.param("equilibrium", "\n[band.x]\nbandwidth = 1\nvacancy = 1\n"
                     "bs_density = 1\n", id="band-name-not-a-number"),
        pytest.param("equilibrium", "\n[DEFAULT]\n", id="default-section"),
        # capacity's default ratio user_density / [band.1] bs_density leaves
        # float range: it underflows to 0 or overflows to inf
        pytest.param("capacity", (("user_density = 50", "user_density = 1e-300"),
                                  ("bs_density = 1", "bs_density = 1e300")),
                     id="capacity-default-ratio-underflow"),
        pytest.param("capacity", (("user_density = 50", "user_density = 1e300"),
                                  ("bs_density = 1", "bs_density = 1e-300")),
                     id="capacity-default-ratio-overflow"),
        # [validate] users, cells, thinning and ratio were read only by the
        # fixed-config spatial checks that left validate: a value once out
        # of their bounds is now an unknown key, as any value is
        *(pytest.param("validate", f"\n[validate]\n{text}\n", id=f"validate-{name}")
          for name, text in [
              ("users-not-a-number", "users = abc"),
              ("users-fraction", "users = 100.5"),
              ("users-zero", "users = 0"),
              ("cells-fraction", "cells = 200.5"),
              ("cells-negative", "cells = -1"),
              ("thinning-zero", "thinning = 0"),
              ("thinning-negative", "thinning = -1"),
              ("thinning-nan", "thinning = nan"),
              ("ratio-zero", "ratio = 0"),
              ("ratio-infinite", "ratio = inf"),
              ("ratio-no-user", "ratio = 1e-6"),
          ]),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys,
                                             subcommand, extra):
        # a row of (old, new) pairs edits the first match of each old text, a
        # row that starts with [scenario] adds its keys to that section
        if isinstance(extra, tuple):
            text = FIVE_BANDS
            for old, new in extra:
                text = text.replace(old, new, 1)
        elif extra.startswith("[scenario]"):
            text = FIVE_BANDS.replace("[scenario]\n", extra, 1)
        else:
            text = FIVE_BANDS + extra
        cfg = write(tmp_path, "c.ini", text)
        assert run(subcommand.split() + ["--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""  # rejected before any output is written
        assert err.startswith("config error:")

    @pytest.mark.parametrize("key", ["users", "cells", "thinning", "ratio"])
    def test_removed_validate_key_is_unknown(self, tmp_path, capsys, key):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS + f"\n[validate]\n{key} = 1\n")
        assert run(["validate", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"config error: unknown key {key!r} in section [validate]\n")

    def test_key_before_any_section_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "target_rate = 4\n" + FIVE_BANDS)
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(FIVE_BANDS.encode() + b"# \xff\n")
        assert run(["equilibrium", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_load_config_is_plain_text(self, tmp_path):
        # configparser's grammar: keys folded to lower case, values stripped
        cfg = write(tmp_path, "c.ini",
                    ONE_BAND.replace("file_size_mean = 10", "File_Size_Mean = 10 "))
        config = cli.load_config(cfg)
        assert type(config) is dict and list(config) == [
            "scenario", "traffic", "outage", "band.1"]
        assert config["traffic"] == {"session_interarrival_mean": "10",
                                     "file_size_mean": "10"}
        assert all(type(items) is dict and all(type(v) is str for v in items.values())
                   for items in config.values())
        assert cli.build_scenario(config) == make_scenario(n_bands=1)

    def test_band_name_not_a_number_is_named(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", FIVE_BANDS + "\n[band.x]\nbandwidth = 1\n"
                    "vacancy = 1\nbs_density = 1\n")
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG
        assert "unknown section [band.x]" in capsys.readouterr().err

    def test_default_section_is_named(self, tmp_path, capsys):
        # [DEFAULT] is no section of the config: its keys are not copied into
        # the others, so the error names it, not a section it was not in
        cfg = write(tmp_path, "c.ini", FIVE_BANDS + "\n[DEFAULT]\ntarget_rate = 4\n")
        assert run(["equilibrium", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown section [DEFAULT]\n"

    # the subcommand that reads each section; the others read only the model
    READER = {"sweep": "tradeoff", "capacity": "capacity", "grid": "delay-cdf",
              "validate": "validate"}

    @settings(deadline=None, max_examples=150)
    @given(entry=bad_entries())
    def test_fuzzed_value_is_config_error(self, tmp_path_factory, entry):
        section, key, kind, value = entry
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(FIVE_BANDS + "\n[sweep]\nmin = 0\nmax = 0.1\npoints = 3\n"
                           "\n[grid]\nt_min = 1\nt_max = 10\n")
        name = "band.1" if section == "band.N" else section
        if not parser.has_section(name):
            parser.add_section(name)
        parser.set(name, key, value)
        cfg = tmp_path_factory.mktemp("fuzz") / "c.ini"
        with open(cfg, "w") as fh:
            parser.write(fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([self.READER.get(section, "equilibrium"), "--config", str(cfg)])
        assert (code, out.getvalue()) == (EXIT_CONFIG, "")
        assert err.getvalue().startswith("config error:")
        if kind is not str:  # a family name is checked by SizeDistribution
            assert f"[{name}] {key}" in err.getvalue()

    @pytest.mark.parametrize("argv", [
        pytest.param(["equilibrium", "--config", "c.ini", "--bogus"], id="unknown-flag"),
        pytest.param(["tradeoff", "--config", "c.ini", "--workers", "2"],
                     id="removed-workers-flag"),
        pytest.param(["equilibrium"], id="missing-config"),
        pytest.param(["nonsense", "--config", "c.ini"], id="unknown-subcommand"),
        # numpy's generators raise ValueError on a negative seed
        pytest.param(["delay-cdf", "--config", "c.ini", "--validate", "--seed", "-1"],
                     id="negative-seed"),
        # only delay-cdf overlays a simulation; validate always runs its own
        pytest.param(["equilibrium", "--config", "c.ini", "--validate"],
                     id="validate-flag-on-equilibrium"),
        pytest.param(["validate", "--config", "c.ini", "--validate"],
                     id="validate-flag-on-validate"),
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
    # and every flag it names in a code span is an option (pip's are not)
    flags = {flag for span in re.findall(r"`([^`\n]*)`", readme)
             if not span.startswith("pip ")
             for flag in re.findall(r"--[a-z][a-z-]*", span)}
    assert flags and flags <= set(cli.make_parser()._option_string_actions)


def test_readme_key_tables_match_the_config_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    reference = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for line in reference.splitlines():
        if heading := re.match(r"`\[([a-z_.N]+)\]`", line):
            rows = tables.setdefault(heading.group(1), {})
        elif line.startswith("| `"):
            key, kind, default, bound, _ = (c.strip() for c in line[1:-1].split("|"))
            rows[key.strip("`")] = kind, default, bound
    assert tables.keys() == cli._KEYS.keys()
    names = {float: "float", int: "count", list: "floats", str: "text"}
    for section, rows in cli._KEYS.items():
        assert tables[section].keys() == rows.keys(), section
        for key, (kind, default, bound) in rows.items():
            readme_kind, readme_default, readme_bound = tables[section][key]
            assert readme_kind == (names[kind] if isinstance(kind, type)
                                   else " or ".join(f"`{c}`" for c in kind)), key
            if default is None:  # set by the command, as the cell says
                assert readme_default.startswith("— "), key
            elif isinstance(default, str):
                assert readme_default.strip("`") == default, key
            else:
                assert float(Fraction(readme_default)) == default, key
            # a bare comparison is a bound the reader checks
            bare = re.fullmatch(r"[<>]=? \S+", readme_bound)
            assert readme_bound == bound if bound else not bare, key


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

    def test_infeasible_points_flagged_not_fatal(self, tmp_path):
        # at a fixed rate, and where no rate serves any point of the sweep
        for fixed_rate in ("fixed_rate = 4\n", ""):
            heavy = ONE_BAND + (
                "\n[sweep]\nparameter = capacity\nmin = 0.5\nmax = 2\npoints = 3\n"
                + fixed_rate
            )
            cfg = write(tmp_path, "c.ini", heavy)
            out = str(tmp_path / "t.csv")
            assert run(["tradeoff", "--config", cfg, "--out", out]) == EXIT_OK
            _, _, rows = read_rows(out)
            assert all(r["feasible"] == "0" for r in rows)
            assert all(r["mean_delay"] == "nan" for r in rows)

    def test_sweep_solves_in_bounded_batches(self, tmp_path, monkeypatch):
        # a long sweep's solves hold at most 16 traffics' scans of 96 rates
        sizes = []

        def spy(scenario, rates, demands=None):
            sizes.append(len(rates))
            return solve_epsilons(scenario, rates, demands)

        monkeypatch.setattr(cap, "solve_epsilons", spy)
        cfg = write(tmp_path, "c.ini", self.SWEEP.replace("points = 5", "points = 100")
                    .replace("fixed_rate = 4\n", ""))
        out = str(tmp_path / "t.csv")
        assert run(["tradeoff", "--config", cfg, "--out", out]) == EXIT_OK
        assert len(read_rows(out)[2]) == 100
        assert max(sizes) == 16 * 96

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

    def test_rows_are_copies_of_the_first_band(self, tmp_path):
        # README: N copies of [band.1] with BS density 1 and the ratio as the
        # user density, whatever the other bands are
        text = BASE + ("\n[band.1]\nbandwidth = 2\nvacancy = 0.5\nbs_density = 2\n"
                       "\n[band.2]\nbandwidth = 1\nvacancy = 1\nbs_density = 1\n"
                       "\n[capacity]\nn_min = 1\nn_max = 16\nratios = 5,190.872\n")
        cfg = write(tmp_path, "c.ini", text)
        out = str(tmp_path / "cap.csv")
        assert run(["capacity", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        scenario = cli.build_scenario(cli.load_config(cfg))
        unit = replace(scenario.bands[0], bs_density=1.0)
        cells = [(ratio, n) for ratio in (5.0, 190.872) for n in range(1, 17)]
        assert len(rows) == len(cells)
        for row, (ratio, n) in zip(rows, cells):
            opt = cap.optimal_rate_fixed_band(
                replace(scenario, user_density=ratio, bands=(unit,) * n))
            assert (row["ratio"], row["n_bands"]) == (cli._fmt(ratio), str(n))
            assert row["optimal_rate"] == cli._fmt(opt.rate)
            assert row["c_max_fixed_band"] == cli._fmt(opt.capacity)
            assert row["c_max_fixed_system"] == cli._fmt(opt.capacity / n)

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

    @pytest.mark.parametrize("outage_shape", [0.5, 1.0, 2.0])
    def test_auto_grid_follows_the_time_unit(self, outage_shape):
        # the five-band scenario with every time divided by c (rate and
        # bandwidths times c, interarrival means over c): t*c and the CDF on
        # the auto grid must not depend on c, also where the mean delay is
        # far below 1e-6
        def grid_and_cdf(c):
            scenario = replace(
                make_scenario(target_rate=4.0 * c, bandwidth=c,
                              session_interarrival=10.0 / c),
                outage=OutageModel(10.0 / c, outage_shape))
            handle = queueing.delay_transform(
                scenario.traffic, scenario.outage,
                solve_equilibrium(scenario).epsilon, scenario.target_rate)
            grid = cli._auto_grid(handle)
            return grid * c, queueing.delay_cdf(handle, grid).values

        reference_t, reference_cdf = grid_and_cdf(1.0)
        for c in (1e-8, 1e8, 1e12):
            t, cdf = grid_and_cdf(c)
            np.testing.assert_allclose(t, reference_t, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(cdf, reference_cdf, rtol=0.0, atol=1e-8)


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

    def test_capped_delay_polish_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a row whose polish reaches its iteration cap fails the whole run:
        # no row is written from it
        find_minimum = cap.find_minimum

        def capped(*args, **kwargs):
            res = find_minimum(*args, **kwargs)
            res.status[:] = -2
            return res

        monkeypatch.setattr(cap, "find_minimum", capped)
        cfg = write(tmp_path, "c.ini", TestTradeoffCommand.SWEEP.replace(
            "fixed_rate = 4\n", ""))
        assert run(["tradeoff", "--config", cfg]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: delay minimization reached its iteration cap\n")

    def test_oscillation_config_ends_in_documented_exit(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", self.OSCILLATION)
        code = run(["delay-cdf", "--config", cfg])  # raises nothing
        documented = {EXIT_OK, EXIT_INFEASIBLE, EXIT_VALIDATION, EXIT_CONFIG,
                      EXIT_NUMERICAL}
        assert code in documented
        if code != EXIT_OK:
            assert capsys.readouterr().out == ""

    def test_capped_busy_root_exits_numerical(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(queueing, "_NEWTON_MAX_ITER", 1)
        cfg = write(tmp_path, "c.ini", self.OSCILLATION)
        assert run(["delay-cdf", "--config", cfg]) == EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: busy-period Newton did not converge in 1 steps\n")

    def test_oscillation_config_inverts(self, tmp_path):
        # Euler inversion multiplies transform error by about 5e6 here, so a
        # busy-period root 5e-11 off its exact value ended this grid in exit 5
        cfg = write(tmp_path, "c.ini", self.OSCILLATION)
        out = str(tmp_path / "cdf.csv")
        assert run(["delay-cdf", "--config", cfg, "--out", out]) == EXIT_OK
        _, _, rows = read_rows(out)
        values = np.array([float(r["cdf"]) for r in rows])
        assert len(values) == 12
        assert np.all((values >= 0.9999) & (values <= 1.0))
        assert np.all(np.diff(values) >= 0.0)


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
sessions = 100000
"""
    CHECKS = ["queue_mean_delay_rel", "queue_delay_cdf_ks"]

    def test_suite_passes_on_default_config(self, tmp_path):
        # at the default thinning 2/3 and at 1.0, the value the contender law
        # refits to: validate checks the scenario's own operating point
        for thinning in ("", "thinning = 1.0\n"):
            cfg = write(tmp_path, "v.ini",
                        self.VAL.replace("[scenario]\n", "[scenario]\n" + thinning))
            out = str(tmp_path / "v.csv")
            assert run(["validate", "--config", cfg, "--out", out]) == EXIT_OK
            comments, header, rows = read_rows(out)
            assert header == ["check", "statistic", "tolerance", "passed"]
            assert [r["check"] for r in rows] == self.CHECKS
            assert all(r["passed"] == "1" for r in rows)
            assert any(c.startswith("# seed = ") for c in comments)

    def test_negative_control_corrupted_epsilon(self, tmp_path, monkeypatch):
        # the simulated queue runs at a service probability 10 % below the
        # analytic model's, and both checks must catch it (at seed 0 they read
        # 0.304 and 0.060 corrupted, 0.0067 and 0.0033 as they are)
        sim_config = cli._queue_sim_config
        cfg = write(tmp_path, "v.ini", self.VAL)
        out = str(tmp_path / "v.csv")
        for scale, code, failed in [(0.9, EXIT_VALIDATION, self.CHECKS),
                                    (1.0, EXIT_OK, [])]:
            monkeypatch.setattr(cli, "_queue_sim_config",
                                lambda scenario, eps, *rest, scale=scale:
                                sim_config(scenario, eps * scale, *rest))
            assert run(["validate", "--config", cfg, "--out", out]) == code
            _, _, rows = read_rows(out)
            assert [r["check"] for r in rows if r["passed"] == "0"] == failed


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

    def test_utf8_config_and_out_whatever_the_locale(self, tmp_path, capsys):
        # the interpreter flags turn every open() in the locale's encoding
        # into an error
        cfg = tmp_path / "c.ini"
        cfg.write_bytes(("# ε ≥ C/R\n" + self.ALL).encode("utf-8"))
        argv = ["equilibrium", "--config", str(cfg)]
        out = tmp_path / "out.csv"
        proc = run_process(argv + ["--out", str(out)], flags=[
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning"])
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
        assert run(argv) == EXIT_OK
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_repeated_calls_share_no_parser_state(self, tmp_path, capsys):
        # main's argument parser is built once per process: a seed, a usage
        # error or a format given to one call must not reach the next
        cfg = write(tmp_path, "c.ini", self.ALL)
        assert run(["equilibrium", "--config", cfg, "--seed", "7"]) == EXIT_OK
        assert "# seed = 7\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            run(["equilibrium", "--config", cfg, "--bogus"])
        assert exit_info.value.code == EXIT_CONFIG
        capsys.readouterr()
        assert run(["tradeoff", "--config", cfg, "--format", "json-lines"]) == EXIT_OK
        assert capsys.readouterr().out.startswith('{"config": ')
        assert run(["equilibrium", "--config", cfg]) == EXIT_OK
        last = capsys.readouterr().out
        fresh = run_process(["equilibrium", "--config", cfg])
        assert (fresh.returncode, fresh.stderr) == (EXIT_OK, "")
        assert last == fresh.stdout
        assert "# seed = 0\n" in last

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
