"""Command line interface: parsing, artifacts, exit codes, reproducibility."""

import argparse
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_atlas
from spectral_atlas import allencahn, cli, curves, phase
from spectral_atlas.integrator import build_network
from spectral_atlas.lowrank import AKDecomposition, decompose_cofactor, perturbed_matrix
from spectral_atlas.phase import phase_grid
from spectral_atlas.presets import EXAMPLE1_D, EXAMPLE1_P, EXAMPLE1_Q, example1

from allencahn_oracle import direct_inner
from curves_oracle import generic_problem


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def leaf_parsers():
    """(command, mode, parser) of every command (mode None) and of every mode
    of a command that has modes."""

    def subparsers(p):
        return [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]

    (sub,) = subparsers(cli.build_parser())
    for name, p in sub.choices.items():
        modes = subparsers(p)
        if modes:
            yield from ((name, mode, q) for mode, q in modes[0].choices.items())
        else:
            yield name, None, p


class TestParsing:
    def test_range_inclusive_endpoints(self):
        g = cli.parse_range(" -4:0:5")
        assert np.allclose(g, [-4, -3, -2, -1, 0])

    def test_range_single_sample(self):
        assert np.allclose(cli.parse_range("2:2:1"), [2.0])

    @pytest.mark.parametrize("bad", ["1:2", "a:b:c", "0:1:0", "1:0:5", "1:2:3:4"])
    def test_range_rejects(self, bad):
        with pytest.raises(cli.ConfigError):
            cli.parse_range(bad)

    def test_window(self):
        (a, b), (c, d) = cli.parse_window(" -12:2:-3:1")
        assert (a, b, c, d) == (-12.0, 2.0, -3.0, 1.0)

    @pytest.mark.parametrize("bad", ["1:2:3", "2:1:0:1", "0:1:1:0", "x:1:0:1"])
    def test_window_rejects(self, bad):
        with pytest.raises(cli.ConfigError):
            cli.parse_window(bad)

    @pytest.mark.parametrize("bad", ["nan:1:5", "0:inf:3", " -inf:0:3", "nan:nan:1"])
    def test_range_rejects_non_finite(self, bad):
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.parse_range(bad)

    @pytest.mark.parametrize("bad", ["0:inf:0:1", "nan:1:0:1", "0:1: -inf:1", "0:1:0:nan"])
    def test_window_rejects_non_finite(self, bad):
        with pytest.raises(cli.ConfigError, match="finite"):
            cli.parse_window(bad)

    def test_every_float_option_is_finite(self):
        # a new float option has to go through the finite-float types too
        seen = set()
        for name, mode, p in leaf_parsers():
            for action in p._actions:
                opt = f"{name} {mode or ''} {'/'.join(action.option_strings) or action.dest}"
                assert action.type is not float, f"{opt} bypasses cli.finite_float"
                finite_types = (cli.finite_float, cli.nonnegative_float, cli.nonzero_float)
                if isinstance(action.default, float) or action.type in finite_types:
                    assert action.type in finite_types, opt
                    seen.add((name, action.dest))
        assert len(seen) >= 8  # --lambda (curve, integrator), --rho1, --rho2, --t-end, --k, --rho, --ds

    def test_every_count_option_is_positive(self):
        seen = set()
        for name, mode, p in leaf_parsers():
            for action in p._actions:
                if isinstance(action.default, int) or action.type in (int, cli.positive_int):
                    opt = f"{name} {mode or ''} {'/'.join(action.option_strings)}"
                    assert action.type is cli.positive_int, opt
                    seen.add((name, action.dest))
        assert len(seen) == 6  # --grid (phase, continuum), --cells, --omega-samples, --n, --steps

    @pytest.mark.parametrize("text", ["0", " -1", "1.5", "x"])
    def test_positive_int_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.positive_int(text)
        assert cli.positive_int("7") == 7

    @pytest.mark.parametrize("text", ["nan", "inf", " -inf", "x"])
    def test_finite_float_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.finite_float(text)

    def test_nonnegative_float(self):
        assert cli.nonnegative_float("0") == 0.0
        assert cli.nonnegative_float("2.5") == 2.5
        with pytest.raises(argparse.ArgumentTypeError):
            cli.nonnegative_float(" -1")


def old_table_csv(header, comment, rows):
    """The row-by-row writer table_csv replaced."""
    lines = [f"# {comment}", header]
    lines.extend(",".join(map(repr, map(float, row))) for row in rows)
    return "\n".join(lines) + "\n"


class TestTableCsv:
    def test_float64_columns(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)
        b = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0 / 3.0] * 7 + [2.0])
        c = rng.uniform(-1.0, 1.0, 50).astype(np.float64)
        assert isinstance(a[0], np.float64)
        out = cli.table_csv("a,b,c", "three columns", [a, b, c])
        assert out == old_table_csv("a,b,c", "three columns", zip(a, b, c))

    def test_int_columns(self):
        ints = np.arange(-3, 4)
        py = list(range(7))
        out = cli.table_csv("i,j", "ints", [ints, py])
        assert out == old_table_csv("i,j", "ints", zip(ints, py))
        assert out.splitlines()[2] == "-3.0,0.0"

    def test_empty(self):
        assert cli.table_csv("x,y", "none", [[], []]) == old_table_csv("x,y", "none", [])
        rows = np.empty((0, 9))
        assert cli.table_csv("h", "none", rows.T) == old_table_csv("h", "none", rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["integrator", "gain", "--rho2-range", " 0:0.9:7"],
            ["integrator", "curve", "--preset", "ag_in", "--rho2-range", " 0:0.5:9"],
            ["integrator", "impulse", "--rho2", "0.4", "--t-end", "0.05"],
            ["rs", "family", "--k", "0.5", "--steps", "3", "--ds", "0.01"],
        ],
        ids=shlex.join,
    )
    def test_commands_byte_identical_to_row_writer(self, argv, capsys, monkeypatch):
        code, out, _ = run(argv, capsys)
        assert code == 0
        monkeypatch.setattr(
            cli, "table_csv", lambda h, c, cols: old_table_csv(h, c, zip(*cols))
        )
        assert run(argv, capsys) == (0, out, "")


class TestParserReuse:
    def test_built_once(self):
        ap = cli.build_parser()
        assert cli.build_parser() is ap
        a = ap.parse_args(["rs", "lambda1"])
        b = ap.parse_args(["rs", "lambda1"])
        assert a is not b and vars(a) == vars(b)

    def test_command_looked_up_per_call(self, capsys, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_rs", lambda args: print(args.mode) or 0)
        assert run(["rs", "index"], capsys) == (0, "index\n", "")

    def test_output_file_does_not_carry_over(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        argv = ["rs", "lambda1", "--k", "0.3"]
        assert run(argv + ["-o", str(path)], capsys) == (0, "", "")
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == path.read_text()

    def test_format_does_not_carry_over(self, capsys):
        ap = cli.build_parser()
        argv = ["phase", "--preset", "example1", "--window", " -2:0:-2:0", "--grid", "4"]
        assert ap.parse_args(argv + ["--format", "json"]).format == "json"
        assert ap.parse_args(argv).format == "csv"
        code, as_json, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0 and sum(json.loads(as_json)["counts"].values()) == 16
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.splitlines()[1] == "rho1,rho2,n_real,n_rhp,dominant"
        # rs index writes JSON only, so it has no --format to carry over
        code, out, _ = run(["rs", "index", "--k", "0.5", "--n", "200", "--format", "csv"], capsys)
        assert (code, out) == (2, "")

    def test_failed_call_leaves_no_state(self, capsys):
        valid = ["integrator", "curve", "--rho2-range", " 0:0.3:4"]
        first = run(valid, capsys)
        assert first[0] == 0
        for bad in (
            ["integrator", "curve", "--rho2-range", " 0:0.3:4", "--rho1", "nan"],
            ["integrator", "curve", "--lambda", "x"],
            ["integrator", "bogus"],
        ):
            assert run(bad, capsys)[0] == 2
            assert run(valid, capsys) == first


# one quick line per command and mode
EVERY_MODE = [
    ["decompose", "--preset", "example1"],
    ["curve", "--preset", "example1", "--lambda", "-1", "--rho2-range", " -3:0:5"],
    ["envelope", "--preset", "example1", "--lambda-range", " -4:0:20"],
    ["hopf", "--preset", "example1", "--omega-range", " 0.1:3:20"],
    ["triples", "--preset", "example1"],
    ["phase", "--preset", "example1", "--window", " -2:0:-2:0", "--grid", "4"],
    ["integrator", "gain", "--preset", "ag_normal", "--rho2-range", " 0:0.9:5"],
    ["integrator", "curve", "--preset", "ag_in", "--rho2-range", " 0:0.5:5"],
    ["integrator", "impulse", "--preset", "ag_normal", "--rho2", "0.4", "--t-end", "0.05"],
    ["continuum", "envelope", "--omega-range", " 1:14:50"],
    ["continuum", "lemma-check", "--grid", "4", "--omega-samples", "2"],
    ["rs", "lambda1", "--k", "0.3"],
    ["rs", "index", "--k", "0.5", "--n", "200"],
    ["rs", "family", "--k", "0.5", "--steps", "2"],
]

# every (command, mode, option) that the parser once accepted and no code read
UNREAD = [
    ["decompose", "--preset", "example1", "--format", "json"],
    ["triples", "--preset", "example1", "--format", "json"],
    *(
        ["integrator", mode, *opt]
        for mode in ("gain", "curve")
        for opt in (["--rho1", "0"], ["--rho2", "0"], ["--t-end", "1"], ["--format", "csv"])
    ),
    ["integrator", "impulse", "--lambda", "-0.05"],
    ["integrator", "impulse", "--rho2-range", " 0:1:5"],
    ["integrator", "impulse", "--format", "csv"],
    ["continuum", "envelope", "--grid", "20"],
    ["continuum", "envelope", "--omega-samples", "5"],
    ["continuum", "lemma-check", "--branch", "trig"],
    ["continuum", "lemma-check", "--omega-range", " 0.05:40:20"],
    ["continuum", "lemma-check", "--format", "json"],
    *(["rs", "lambda1", *opt] for opt in (["--n", "200"], ["--rho", "1"], ["--steps", "2"])),
    ["rs", "lambda1", "--ds", "0.01"],
    ["rs", "lambda1", "--format", "json"],
    ["rs", "index", "--steps", "2"],
    ["rs", "index", "--ds", "0.01"],
    ["rs", "index", "--format", "json"],
    ["rs", "family", "--n", "200"],
    ["rs", "family", "--rho", "1"],
    ["rs", "family", "--format", "csv"],
]


class TestDeclaredOptions:
    def test_every_declared_option_is_read(self, capsys):
        reads = set()

        class Recorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        leaves = {(name, mode): p for name, mode, p in leaf_parsers()}
        assert {(a[0], a[1] if (a[0], a[1]) in leaves else None) for a in EVERY_MODE} == set(leaves)
        unread = []
        for argv in EVERY_MODE:
            mode = argv[1] if (argv[0], argv[1]) in leaves else None
            args = cli.build_parser().parse_args(argv, namespace=Recorder())
            reads.clear()  # argparse reads the namespace while it fills it
            assert getattr(cli, f"cmd_{argv[0]}")(args) == 0
            declared = {
                a.dest for a in leaves[argv[0], mode]._actions if not isinstance(a, argparse._HelpAction)
            }
            unread += [f"{argv[0]} {mode or ''} {dest}" for dest in sorted(declared - reads)]
        capsys.readouterr()
        assert unread == []

    @pytest.mark.parametrize(
        "argv",
        [
            *UNREAD,
            ["phase", "--preset", "example1", "--grid", "3", "--format", "svg"],
            ["envelope", "--preset", "example1", "--decomposition", "dec.json"],
            ["curve", "--lambda", "-1", "--decomposition", "dec.json", "--preset", "example1"],
            ["decompose", "--preset", "example1", "--input", "problem.json"],
            ["phase", "--input", "problem.json", "--preset", "example1"],
            # options before the mode word
            ["integrator", "--preset", "ag_in", "gain"],
            ["rs", "--k", "0.3", "lambda1"],
            ["continuum", "-o", "out.csv", "envelope"],
        ],
        ids=shlex.join,
    )
    def test_rejected_settings_are_2(self, argv, tmp_path, monkeypatch, capsys):
        # the files exist, so only the parser can refuse the line
        monkeypatch.chdir(tmp_path)
        Path("problem.json").write_text(example1().to_json())
        Path("dec.json").write_text(decompose_cofactor(example1()).to_json())
        assert len(UNREAD) == 29
        code, out, _ = run(argv, capsys)
        assert (code, out) == (2, "")

    def test_option_order_within_a_mode(self):
        ap = cli.build_parser()
        opts = [["--preset", "ag_in"], ["--rho1", "0.3"], ["--rho2", "0.2"], ["-o", "x.csv"]]
        for order in (opts, opts[::-1], opts[1:] + opts[:1]):
            args = ap.parse_args(["integrator", "impulse", *sum(order, [])])
            assert vars(args) == vars(ap.parse_args(["integrator", "impulse", *sum(opts, [])]))
            assert (args.preset, args.rho1, args.rho2, args.output) == ("ag_in", 0.3, 0.2, "x.csv")


class TestDecompose:
    def test_example1_matches_closed_form(self, capsys):
        code, out, _ = run(["decompose", "--preset", "example1"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert np.allclose(rep["D"], EXAMPLE1_D, atol=1e-10)
        assert np.allclose(rep["P1"], EXAMPLE1_P, atol=1e-10)
        assert np.allclose(rep["P2"], EXAMPLE1_P, atol=1e-10)
        assert np.allclose(rep["Q"], EXAMPLE1_Q, atol=1e-10)
        assert rep["max_route_diff"] < 1e-8

    def test_rank_one_spec_reports_zero_P2_Q(self, tmp_path, capsys):
        spec = {
            "M": [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]],
            "f1": [1.0, 0.0, 0.0],
            "g1": [0.0, 0.0, 1.0],
        }
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run(["decompose", "--input", str(path)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert np.allclose(rep["P2"], [0.0])
        assert np.allclose(rep["Q"], [0.0])
        assert rep["max_route_diff"] < 1e-8

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json\n")
        code, _, err = run(["decompose", "--input", str(path)], capsys)
        assert code == 2
        assert "line" in err

    def test_library_json_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "example1.json"
        path.write_text(example1().to_json())
        code, via_file, _ = run(["decompose", "--input", str(path)], capsys)
        assert code == 0
        _, via_preset, _ = run(["decompose", "--preset", "example1"], capsys)
        assert via_file == via_preset

    def test_missing_source_is_config_error(self, capsys):
        code, _, _ = run(["decompose"], capsys)
        assert code == 2


class TestRoundTrip:
    def test_curve_from_saved_decomposition_is_byte_identical(self, tmp_path, capsys):
        dec_path = tmp_path / "dec.json"
        code, _, _ = run(
            ["decompose", "--preset", "example1", "-o", str(dec_path)], capsys
        )
        assert code == 0
        argv = ["envelope", "--lambda-range", " -4:0:80"]
        code, direct, _ = run(argv + ["--preset", "example1"], capsys)
        assert code == 0
        code, via_file, _ = run(argv + ["--decomposition", str(dec_path)], capsys)
        assert code == 0
        assert direct == via_file

    def test_repeated_runs_identical(self, capsys):
        argv = ["hopf", "--preset", "example1", "--omega-range", " 0.1:3:40"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second


class TestDecompositionFile:
    def write(self, tmp_path, obj):
        path = tmp_path / "dec.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    def saved(self, capsys):
        code, out, _ = run(["decompose", "--preset", "example1"], capsys)
        assert code == 0
        return json.loads(out)

    @pytest.mark.parametrize("command", ["envelope", "triples", "curve", "hopf"])
    def test_nan_coefficient_is_2(self, tmp_path, capsys, command):
        rep = self.saved(capsys)
        rep["P1"][1] = float("nan")
        argv = [command, "--decomposition", self.write(tmp_path, rep)]
        if command == "curve":
            argv += ["--lambda", "-1"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "'P1'" in err

    @pytest.mark.parametrize(
        "text,key",
        [
            ("[1.0, 2.0]", "object"),
            ('{"D": [1.0], "P1": [1.0], "P2": [0.0]}', "'Q'"),
            ('{"D": [1.0], "P1": [[1.0]], "P2": [0.0], "Q": [0.0]}', "'P1'"),
            ('{"D": [], "P1": [1.0], "P2": [0.0], "Q": [0.0]}', "'D'"),
            ('{"D": [1.0], "P1": [1.0], "P2": ["x"], "Q": [0.0]}', "'P2'"),
            ('{"D": [1.0], "P1": [1.0], "P2": [0.0], "Q": 3.0}', "'Q'"),
            ('{"D": [1.0], "P1": [1.0], "P2": [0.0], "Q": [Infinity]}', "'Q'"),
            ("{not json", "line"),
        ],
    )
    def test_malformed_file_is_2(self, tmp_path, capsys, text, key):
        code, out, err = run(["envelope", "--decomposition", self.write(tmp_path, text)], capsys)
        assert code == 2
        assert out == ""
        assert key in err

    def test_round_trip_is_the_library_format(self, capsys):
        rep = self.saved(capsys)
        dec = AKDecomposition.from_json(json.dumps(rep))
        ref = decompose_cofactor(example1())
        for key in ("D", "P1", "P2", "Q"):
            assert getattr(dec, key).coef.tolist() == getattr(ref, key).coef.tolist()
        assert json.loads(ref.to_json()) == {k: rep[k] for k in ("D", "P1", "P2", "Q")}


class TestArtifacts:
    def test_csv_header_names_parameter(self, capsys):
        code, out, _ = run(
            ["envelope", "--preset", "example1", "--lambda-range", " -4:0:20"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#") and "lambda" in lines[0]
        assert lines[1] == "kind,branch,parameter,rho1,rho2"
        assert any(line.startswith("# gap") for line in lines)

    def test_curve_csv(self, capsys):
        code, out, _ = run(
            [
                "curve",
                "--preset",
                "example1",
                "--lambda",
                "-1",
                "--rho2-range",
                " -3:0:10",
            ],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 10

    def test_svg_output(self, capsys):
        code, out, _ = run(
            [
                "envelope",
                "--preset",
                "example1",
                "--lambda-range",
                " -4:0:30",
                "--format",
                "svg",
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("<svg") and "<polyline" in out and "rho2" in out

    def test_svg_breaks_at_continuum_asymptote(self, capsys):
        # the asymptote at 4 pi is a break between two kept samples: the
        # polyline must not join them
        argv = ["continuum", "envelope", "--omega-range", " 1:14:200"]
        code, csv, _ = run(argv, capsys)
        assert code == 0
        assert sum(l.startswith("# gap") for l in csv.splitlines()) == 1
        code, svg, _ = run(argv + ["--format", "svg"], capsys)
        assert code == 0
        assert svg.count("<polyline") == 2

    def test_json_branches(self, capsys):
        code, out, _ = run(
            [
                "envelope",
                "--preset",
                "example1",
                "--lambda-range",
                " -4:0:30",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["parameter"] == "lambda"
        assert all(len(p) == 3 for br in rep["branches"] for p in br["points"])

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "env.csv"
        code, out, _ = run(
            [
                "envelope",
                "--preset",
                "example1",
                "--lambda-range",
                " -4:0:20",
                "-o",
                str(path),
            ],
            capsys,
        )
        assert code == 0 and out == ""
        assert path.read_text().splitlines()[1] == "kind,branch,parameter,rho1,rho2"


class TestSubcommands:
    def test_triples(self, capsys):
        code, out, _ = run(
            ["triples", "--preset", "example1", "--lambda-window", " -6:0"], capsys
        )
        assert code == 0
        pts = json.loads(out)["triple_points"]
        got = sorted((round(p["rho1"], 6), round(p["rho2"], 6)) for p in pts)
        assert got == [(-1.5, -0.5), (-0.5, -1.5)]

    def test_triples_generic_problem(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(generic_problem(np.random.default_rng(7), 4).to_json())
        code, out, _ = run(["triples", "--input", str(path), "--lambda-window", " -6:0.5"], capsys)
        assert code == 0
        pts = json.loads(out)["triple_points"]
        got = [(round(p["lam"], 7), round(p["rho1"], 6), round(p["rho2"], 6)) for p in pts]
        assert got == [(-2.0112593, 0.564759, -0.381603), (-1.7260382, 1.272827, 0.923097)]

    def test_phase_counts_match_library(self, capsys):
        code, out, _ = run(
            [
                "phase",
                "--preset",
                "example1",
                "--window",
                " -3:0:-3:0",
                "--grid",
                "6",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        g = phase_grid(example1(), np.linspace(-3, 0, 6), np.linspace(-3, 0, 6))
        for key, count in rep["counts"].items():
            nr, nh = (int(v) for v in key.split(":"))
            assert count == int(np.sum((g.n_real == nr) & (g.n_rhp == nh)))
        assert sum(rep["counts"].values()) == 36

    def test_phase_csv_rows(self, capsys):
        code, out, _ = run(
            ["phase", "--preset", "example1", "--window", " -2:0:-2:0", "--grid", "4"],
            capsys,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "rho1,rho2,n_real,n_rhp,dominant"
        assert len(lines) == 1 + 16

    def test_phase_csv_is_to_csv(self, capsys):
        code, out, _ = run(
            ["phase", "--preset", "example1", "--window", " -2:0:-2:0", "--grid", "4"],
            capsys,
        )
        assert code == 0
        g = phase_grid(example1(), np.linspace(-2, 0, 4), np.linspace(-2, 0, 4))
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1:] == g.to_csv().splitlines()
        assert "np.float64" not in out
        assert lines[2].split(",")[2:4] == [str(g.n_real[0, 0]), str(g.n_rhp[0, 0])]

    def test_integrator_gain_growth(self, capsys):
        code, out, _ = run(
            ["integrator", "gain", "--rho2-range", " 0.3:0.9:4"], capsys
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        gains = [float(r.split(",")[2]) for r in rows]
        assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_integrator_impulse(self, capsys):
        code, out, _ = run(
            ["integrator", "impulse", "--rho2", "0.4", "--t-end", "0.2"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert "measured_gain" in lines[0]
        assert lines[1] == "t,response"

    def test_continuum_envelope_gap(self, capsys):
        code, out, _ = run(
            ["continuum", "envelope", "--omega-range", " 1:14:200"], capsys
        )
        assert code == 0
        gaps = [l for l in out.splitlines() if l.startswith("# gap")]
        assert len(gaps) == 1  # single asymptote (4 pi) inside this window

    def test_continuum_lemma_check(self, capsys):
        code, out, _ = run(
            ["continuum", "lemma-check", "--grid", "5", "--omega-samples", "2"],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_negative"] and rep["points"] == 2 * (5 * 4 // 2)

    def test_rs_lambda1(self, capsys):
        code, out, _ = run(["rs", "lambda1", "--k", "0.0"], capsys)
        assert code == 0
        assert abs(json.loads(out)["lambda1"] + 3.0) < 1e-12

    def test_rs_index(self, capsys):
        code, out, _ = run(["rs", "index", "--k", "0.5", "--n", "600"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["n_plus_H"] == 1
        assert rep["inner"] > 0
        assert rep["n_plus_perturbed"] == 0
        assert rep["has_kernel"] is True

    @pytest.mark.parametrize("k", ["0.9", "0.98", "0.1"])
    def test_rs_index_near_singular_scale(self, k, capsys):
        # at the default n = 4000 an eigenvalue of H within 0.07 of 0 once
        # sent the index to a least-squares solve that did not converge
        code, out, _ = run(["rs", "index", "--k", k], capsys)
        assert code == 0
        rep = json.loads(out)
        op = allencahn.cubic_operator(float(k))
        ev = op.eigvals()
        assert np.min(np.abs(ev)) > 1e-4  # every eigenvalue's sign is clear
        assert rep["n_plus_H"] == np.count_nonzero(ev > 0.0)
        direct = direct_inner(op)
        assert abs(rep["inner"] - direct) <= 1e-9 * abs(direct)
        assert rep["n_plus_perturbed"] == 0

    def test_rs_index_rho_below_one(self, capsys):
        argv = ["rs", "index", "--k", "0.5", "--n", "400"]
        _, out_one, _ = run(argv, capsys)
        code, out, _ = run(argv + ["--rho", "0.3"], capsys)
        assert code == 0
        one, below = json.loads(out_one), json.loads(out)
        assert (one["n_plus_perturbed"], one["has_kernel"]) == (0, True)
        # Sylvester: below rho = 1 the count is H's and there is no kernel
        assert (below["n_plus_perturbed"], below["has_kernel"]) == (1, False)
        assert below["inner"] == one["inner"]

    def test_lemma_check_needs_two_x_points(self, capsys):
        code, out, err = run(["continuum", "lemma-check", "--grid", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "two x points" in err

    def test_rs_family_csv(self, capsys):
        code, out, _ = run(
            ["rs", "family", "--k", "0.5", "--steps", "3", "--ds", "0.01"], capsys
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "s,E,kappa,mu_minus,mu_plus,P,M,R,tau"
        assert len(lines) == 1 + 4
        P0 = float(lines[1].split(",")[5])
        for row in lines[2:]:
            assert abs(float(row.split(",")[5]) - P0) < 1e-7

    def test_rs_family_rows_keep_the_period(self, capsys):
        # towards k = 0.7 the corrector needs more than five iterations
        code, out, _ = run(["rs", "family", "--k", "0.7", "--steps", "2"], capsys)
        assert code == 0
        rows = [l.split(",") for l in out.splitlines()[2:]]
        P = np.array([float(r[5]) for r in rows])
        assert len(P) == 3
        assert np.all(np.abs(P - P[0]) < 1e-12 * max(1.0, P[0]))

    @pytest.mark.parametrize("k", ["0.75", "0.2750920299156452"])
    def test_rs_family_near_the_outer_root_and_at_noisy_period(self, k, capsys):
        # k = 0.75: the turning point u = 1 sits next to the root 1/k;
        # k = 0.2750920299156452: the period must be smooth at 1e-12
        code, out, err = run(["rs", "family", "--k", k, "--steps", "2"], capsys)
        assert code == 0, err
        rows = [l.split(",") for l in out.splitlines()[2:]]
        P = np.array([float(r[5]) for r in rows])
        assert len(P) == 3
        assert np.all(np.abs(P - P[0]) <= 1e-12 * P[0])

    @pytest.mark.parametrize("k", ["0.2", "0.5", "0.75"])
    def test_rs_family_quadrature_budget(self, k, capsys, monkeypatch):
        # one quadrature for the start, then one per corrector iteration:
        # Newton needs at most four per step here
        exact = allencahn.period_jet
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return exact(*args, **kwargs)

        monkeypatch.setattr(allencahn, "period_jet", counted)
        steps = 40
        code, _, err = run(
            ["rs", "family", "--k", k, "--steps", str(steps), "--ds", "0.01"], capsys
        )
        assert code == 0, err
        assert calls <= 1 + 4 * steps

    @pytest.mark.xfail(
        strict=True,
        reason="at n = 300 the discretization moves the Lame level -3k^2 = -3e-6 "
        "above 0, so the count is 2 where the closed form gives 1",
    )
    def test_rs_index_small_modulus_count(self, capsys):
        code, out, _ = run(["rs", "index", "--k", "0.001", "--n", "300"], capsys)
        assert code == 3 or json.loads(out)["n_plus_H"] == 1

    @pytest.mark.xfail(
        strict=True,
        reason="the fixed first step (ds = 0.01) moves kappa alone and leaves the "
        "narrow window between the turning point u = 1 and 1/k, so the trace "
        "exits 3 with no turning point on one side of 0",
    )
    def test_rs_family_from_k_087(self, capsys):
        code, out, _ = run(["rs", "family", "--k", "0.87", "--steps", "2"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 3


class TestExitCodes:
    def test_bad_range_is_2(self, capsys):
        code, _, _ = run(
            ["envelope", "--preset", "example1", "--lambda-range", "0:-4:10"], capsys
        )
        assert code == 2

    def test_unknown_subcommand_is_2(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    def test_numeric_failure_is_3(self, tmp_path, capsys):
        # rank-one problem: the triple-point condition degenerates identically
        spec = {
            "M": [[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]],
            "f1": [1.0, 0.0, 0.0],
            "g1": [0.0, 0.0, 1.0],
        }
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(["triples", "--input", str(path)], capsys)
        assert code == 3
        assert "numeric" in err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("command", ["decompose", "envelope"])
    def test_non_finite_spec_is_2(self, tmp_path, capsys, command, literal):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"M": [[-1.0, %s], [0.0, -2.0]], "f1": [1.0, 0.0], "g1": [0.0, 1.0]}' % literal
        )
        code, out, err = run([command, "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "'M'" in err

    @pytest.mark.parametrize("source", ["--input", "--decomposition"])
    def test_undecodable_file_is_2(self, source, tmp_path, capsys):
        # UnicodeDecodeError subclasses ValueError, yet the file is at fault
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(["envelope", source, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"spectral-atlas: cannot read {path}: ")

    @pytest.mark.parametrize("command", ["envelope", "hopf", "triples"])
    def test_rank_one_curves_are_3(self, tmp_path, capsys, command):
        # P2 = Q = 0: every row of the sweep is a singular linear system
        rng = np.random.default_rng(7)
        spec = {
            "M": (-2.0 * np.eye(4) + 0.4 * rng.standard_normal((4, 4))).tolist(),
            "f1": rng.standard_normal(4).tolist(),
            "g1": rng.standard_normal(4).tolist(),
        }
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(spec))
        code, out, err = run([command, "--input", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "every" in err and "rank-one" in err

    def test_rs_family_corrector_miss_is_3(self, capsys, monkeypatch):
        # a period that never settles: the corrector gives up and says by how much
        from spectral_atlas import allencahn

        exact = allencahn.period_jet
        rng = np.random.default_rng(0)

        def noisy(*args, **kwargs):
            mu, (P, M, R), jac = exact(*args, **kwargs)
            return mu, (P + 1e-6 * rng.standard_normal(), M, R), jac

        monkeypatch.setattr(allencahn, "period_jet", noisy)
        code, out, err = run(["rs", "family", "--k", "0.5", "--steps", "2"], capsys)
        assert code == 3
        assert out == ""
        assert "|P - P0|" in err

    @pytest.mark.parametrize(
        "error",
        [
            allencahn.IndeterminateIndexError,
            allencahn.PoleProximityError,
            allencahn.TurningPointError,
            allencahn.FamilyCorrectorError,
        ],
    )
    def test_every_rs_numeric_error_is_3(self, error, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise error("planted failure")

        monkeypatch.setattr(allencahn, "stability_index", fails)
        code, out, err = run(["rs", "index", "--n", "200"], capsys)
        assert code == 3
        assert out == ""
        assert err == "spectral-atlas: numeric failure: planted failure\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--preset", "example1", "--lambda-range", " nan:1:5"],
            ["hopf", "--preset", "example1", "--omega-range", "0.1:inf:5"],
            ["curve", "--preset", "example1", "--lambda", "nan"],
            ["phase", "--preset", "example1", "--window", " 0:inf:0:1", "--grid", "3"],
            ["triples", "--preset", "example1", "--lambda-window", " -inf:0"],
            ["integrator", "gain", "--preset", "ag_in", "--rho2-range", " inf:inf:5"],
            ["integrator", "curve", "--preset", "ag_in", "--rho2-range", " inf:inf:5"],
            ["integrator", "gain", "--lambda", "inf"],
            ["integrator", "impulse", "--rho1", "nan"],
            ["integrator", "impulse", "--rho2", " -inf"],
            ["integrator", "impulse", "--t-end", " -1"],
            ["integrator", "impulse", "--t-end", "inf"],
            ["integrator", "impulse", "--t-end", "nan"],
            ["rs", "lambda1", "--k", "nan"],
            ["rs", "index", "--rho", "inf", "--n", "200"],
            ["rs", "family", "--ds", "nan", "--steps", "2"],
        ],
        ids=shlex.join,
    )
    def test_non_finite_input_is_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err or ">= 0" in err

    @pytest.mark.parametrize("k", ["1e-6", "1e-9"])
    def test_rs_family_vanishing_gradient_is_3(self, k, capsys):
        # a nearly isochronous potential: the period gradient vanishes at the
        # start, so no row past it can be traced
        code, out, err = run(["rs", "family", "--k", k, "--steps", "2"], capsys)
        assert code == 3
        assert out == ""
        assert "gradient vanishes at s = 0 " in err

    def test_rs_family_without_turning_point_is_3(self, capsys):
        # the step leaves the region where Q has a root on each side of 0
        code, out, err = run(
            ["rs", "family", "--k", "0.9", "--ds", "0.01", "--steps", "2"], capsys
        )
        assert code == 3
        assert out == ""
        assert "turning point" in err

    def test_rs_family_inadmissible_interval_names_the_point(self, capsys):
        # the trace runs into a point where Q(0) = 2E <= 0
        code, out, err = run(
            ["rs", "family", "--k", "0.5", "--ds", "0.05", "--steps", "20"], capsys
        )
        assert (code, out) == (3, "")
        m = re.search(r"no admissible interval: Q\(0\) <= 0 at E = (\S+), kappa = (\S+)", err)
        assert m and float(m.group(1)) <= 0.0 and math.isfinite(float(m.group(2)))

    def test_rs_family_one_sided_turning_points_name_the_point(self, capsys):
        # the first predicted point moves kappa alone by ds = 0.01
        code, out, err = run(["rs", "family", "--k", "0.9", "--steps", "2"], capsys)
        assert (code, out) == (3, "")
        m = re.search(r"no turning point on one side of 0 at E = (\S+), kappa = (\S+)$", err)
        assert m and abs(float(m.group(1)) - 0.5) < 1e-12 and float(m.group(2)) == 0.01

    def test_rs_family_monic_overflow_is_3(self, capsys):
        # the predicted point has 2 kappa = inf: Q has no finite monic form
        code, out, err = run(
            ["rs", "family", "--k", "0.5", "--ds", "1e308", "--steps", "1"], capsys
        )
        assert (code, out) == (3, "")
        assert "monic coefficients are not finite at E = 9.32" in err

    def test_impulse_overflow_is_3(self, capsys):
        code, out, err = run(
            ["integrator", "impulse", "--rho1", "2.2", "--rho2", "1.1", "--t-end", "60"],
            capsys,
        )
        assert code == 3
        assert out == ""
        t = float(re.search(r"not finite from t = (\S+)", err).group(1))
        assert 30.0 < t < 60.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["rs", "lambda1", "--k", "1"],
            ["rs", "index", "--k", "0", "--n", "200"],
            ["rs", "family", "--k", "1", "--steps", "2"],
            ["rs", "index", "--n", "8"],
            ["rs", "index", "--n", "200", "--rho", "0"],
            ["rs", "index", "--n", "200", "--rho", " -0.5"],
            ["rs", "index", "--n", "200", "--rho", "1.5"],
            ["rs", "family", "--steps", "0"],
            ["rs", "family", "--ds", "0", "--steps", "2"],
            ["continuum", "lemma-check", "--grid", " -1"],
            ["continuum", "lemma-check", "--omega-samples", " -2"],
            ["continuum", "envelope", "--cells", "0"],
            ["continuum", "envelope", "--cells", " -3"],
            ["continuum", "envelope", "--omega-range", " 0:1:5"],
            ["continuum", "envelope", "--branch", "hyper", "--omega-range", " -1:1:5"],
            ["phase", "--preset", "example1", "--grid", "0"],
            # about 4e153 and 5.1e9 time steps: refused before any allocation
            ["integrator", "impulse", "--preset", "ag_in", "--rho1", "1e300", "--t-end", "1"],
            ["integrator", "impulse", "--t-end", "1e6"],
            # 1e8 cells and 1e10 grid cells: refused by their counts before any allocation
            ["rs", "index", "--k", "0.5", "--n", "100000000"],
            ["phase", "--preset", "example1", "--grid", "100000"],
        ],
        ids=shlex.join,
    )
    def test_out_of_domain_is_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(("spectral-atlas: ", "usage: "))


    @pytest.mark.parametrize(
        "argv, target",
        [(["rs", "lambda1"], "missing/k.json"), (["phase", "--preset", "example1", "--grid", "3"], ".")],
        ids=["missing-directory", "a-directory"],
    )
    def test_unwritable_output_is_2(self, argv, target, tmp_path, capsys):
        path = tmp_path / target
        code, out, err = run(argv + ["-o", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"spectral-atlas: cannot write {path}: ")

    def test_phase_grid_refused_before_its_axes(self, capsys, monkeypatch):
        # a side of 1e9 would ask for two 8 GB axes: no axis longer than
        # MAX_CELLS samples may be built
        real = np.linspace

        def bounded(start, stop, num=50, **kwargs):
            assert num <= phase.MAX_CELLS, f"np.linspace asked for {num} samples"
            return real(start, stop, num, **kwargs)

        monkeypatch.setattr(np, "linspace", bounded)
        code, out, err = run(["phase", "--preset", "example1", "--grid", "1000000000"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "spectral-atlas: 1000000000 x 1000000000 = 1000000000000000000 grid cells"
            " is over MAX_CELLS = 1000000\n"
        )

    @pytest.mark.parametrize(
        "argv, what",
        [
            pytest.param(argv, what, id=shlex.join(argv))
            for argv, what in [
                (["curve", "--preset", "example1", "--lambda", "0", "--rho2-range", " 0:1:1000001"],
                 "--rho2-range asks for 1000001 samples"),
                (["integrator", "gain", "--rho2-range", " 0:1:1000000000"],
                 "--rho2-range asks for 1000000000 samples"),
                (["envelope", "--preset", "example1", "--lambda-range", " -4:0:1000000000"],
                 "--lambda-range asks for 1000000000 samples"),
                (["hopf", "--preset", "example1", "--omega-range", " 0:1:1000000000"],
                 "--omega-range asks for 1000000000 samples"),
                (["continuum", "envelope", "--omega-range", " 0.05:40:1000000000"],
                 "--omega-range asks for 1000000000 samples"),
                # each count alone, and their product: 1415 x's give 1000405 pairs,
                # 1000 omegas times 1225 pairs are 1225000 points
                (["continuum", "lemma-check", "--grid", "1000000000"],
                 "lemma-check asks for 2499999997500000000 points"),
                (["continuum", "lemma-check", "--omega-samples", "1000000000"],
                 "lemma-check asks for 190000000000 points"),
                (["continuum", "lemma-check", "--grid", "1415", "--omega-samples", "1"],
                 "lemma-check asks for 1000405 points"),
                (["continuum", "lemma-check", "--grid", "50", "--omega-samples", "1000"],
                 "lemma-check asks for 1225000 points"),
            ]
        ],
    )
    def test_sample_counts_refused_before_allocation(self, argv, what, capsys, monkeypatch):
        # no sample axis, pair index or (omega, x1 < x2) point set over
        # MAX_SAMPLES may be built
        real_linspace, real_triu, real_ratio = np.linspace, np.triu_indices, cli.continuum.quadrant_ratio

        def linspace(start, stop, num=50, **kwargs):
            assert num <= cli.MAX_SAMPLES, f"np.linspace asked for {num} samples"
            return real_linspace(start, stop, num, **kwargs)

        def triu_indices(n, k=0, m=None):
            assert n * (n - 1) // 2 <= cli.MAX_SAMPLES, f"np.triu_indices asked for {n} x {n}"
            return real_triu(n, k, m)

        def quadrant_ratio(spec, oms, x1, x2):
            assert oms.size * x1.size <= cli.MAX_SAMPLES, "quadrant_ratio over MAX_SAMPLES points"
            return real_ratio(spec, oms, x1, x2)

        monkeypatch.setattr(np, "linspace", linspace)
        monkeypatch.setattr(np, "triu_indices", triu_indices)
        monkeypatch.setattr(cli.continuum, "quadrant_ratio", quadrant_ratio)
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"spectral-atlas: {what}, over MAX_SAMPLES = 1000000\n"

    def test_sample_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda a, b, n: n)
        assert cli.MAX_SAMPLES == phase.MAX_CELLS == 10**6
        assert cli.parse_range(" 0:1:1000000") == 1000000
        with pytest.raises(cli.ConfigError, match="over MAX_SAMPLES"):
            cli.parse_range(" 0:1:1000001")


def library_exceptions():
    """Every exception class defined in a spectral_atlas module but ConfigError."""
    found = []
    for info in pkgutil.iter_modules(spectral_atlas.__path__):
        mod = importlib.import_module(f"spectral_atlas.{info.name}")
        found += [
            obj for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__ and obj is not cli.ConfigError
        ]
    return found


@pytest.mark.parametrize(
    "error, code",
    [(e, 3) for e in library_exceptions()]
    + [(ValueError, 2), (cli.ConfigError, 2), (np.linalg.LinAlgError, 3), (OverflowError, 3)],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_exit_code_rule(error, code, capsys, monkeypatch):
    # a ConfigError or a plain ValueError is the input's fault; every other
    # ValueError or ArithmeticError, and so every numeric error class of the
    # library, is a numeric failure
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_decompose", fail)
    got = run(["decompose", "--preset", "example1"], capsys)
    message = "boom" if code == 2 else "numeric failure: boom"
    assert got == (code, "", f"spectral-atlas: {message}\n")


def test_import_leaves_scipy_optimize_unloaded():
    # only the rs commands need scipy, and they import it when they run
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, spectral_atlas.cli; "
        "print('scipy.optimize' in sys.modules, "
        "any(m.split('.')[:2] == ['scipy', 'sparse'] for m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False False []\n"


def readme_commands():
    """The spectral-atlas lines of README.md's "Command line" block, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("    spectral-atlas ")
    ]


class TestReadme:
    def test_every_command_line_runs(self, tmp_path, monkeypatch, capsys):
        # files named with -o land in (and are read back from) tmp_path
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        for argv in commands:
            code, _, err = run(argv, capsys)
            assert code == 0, f"{shlex.join(argv)}: {err}"
        assert {argv[0] for argv in commands} == {
            "decompose", "curve", "envelope", "hopf", "triples", "phase",
            "integrator", "continuum", "rs",
        }

    def test_impulse_example_is_stable(self):
        # a decaying response: the example's operating point has every
        # eigenvalue in the left half plane
        [argv] = [a for a in readme_commands() if a[:2] == ["integrator", "impulse"]]
        args = cli.build_parser().parse_args(argv)
        prob = build_network(args.preset)
        ev = np.linalg.eigvals(perturbed_matrix(prob, args.rho1, args.rho2))
        assert ev.real.max() < 0.0


# ---------------------------------------------------------------------------
# the row writers that the column writers of curve branches replaced


def old_branches_to_csv(branches):
    """The row-by-row curves.branches_to_csv, reading br.points."""
    lines = ["kind,branch,parameter,rho1,rho2"]
    for br in branches:
        lines.append(f"# branch {br.kind}/{br.branch} parameter={br.parameter_name}")
        lines.extend(f"# gap {lo!r} {hi!r}" for lo, hi in br.gaps)
        lines.extend(
            f"{p.kind},{p.branch},{p.parameter!r},{p.rho1!r},{p.rho2!r}" for p in br.points
        )
    return "\n".join(lines) + "\n"


def old_branches_svg(branches, width=640, height=480):
    """The point-by-point cli.branches_svg, reading br.points."""
    pts = [
        (p.rho2, p.rho1)
        for br in branches
        for p in br.points
        if np.isfinite(p.rho1) and np.isfinite(p.rho2)
    ]
    if not pts:
        raise cli.ConfigError("nothing to plot")
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    m = 40

    def sx(x):
        return m + (x - x0) / xspan * (width - 2 * m)

    def sy(y):
        return height - m - (y - y0) / yspan * (height - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m}" y1="{height - m}" x2="{width - m}" y2="{height - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{height - m}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12">rho2 in [{x0:.4g}, {x1:.4g}]</text>',
        f'<text x="8" y="{height // 2}" font-size="12" transform="rotate(-90 12 {height // 2})">'
        f"rho1 in [{y0:.4g}, {y1:.4g}]</text>",
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    for i, br in enumerate(branches):
        gap_starts = {lo for lo, _ in br.gaps}
        segs = [[]]
        prev = None
        for p in br.points:
            if not (np.isfinite(p.rho1) and np.isfinite(p.rho2)):
                segs.append([])
                prev = None
                continue
            if prev in gap_starts:
                segs.append([])
            segs[-1].append((sx(p.rho2), sy(p.rho1)))
            prev = p.parameter
        for seg in segs:
            if len(seg) < 2:
                continue
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
            parts.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def old_emit_branches(branches, parameter, args):
    """cli.emit_branches with the row writers above."""
    if args.format == "csv":
        head = f"# dimensionless (rho1, rho2) curves parametrized by {parameter}\n"
        cli.emit(head + old_branches_to_csv(branches), args)
    elif args.format == "json":
        rep = {
            "parameter": parameter,
            "branches": [
                {
                    "kind": br.kind,
                    "branch": br.branch,
                    "gaps": [list(g) for g in br.gaps],
                    "points": [[p.parameter, p.rho1, p.rho2] for p in br.points],
                }
                for br in branches
            ],
        }
        cli.emit_json(rep, args)
    else:
        cli.emit(old_branches_svg(branches), args)


class TestBranchWriters:
    """The column writers of curve branches print the bytes of the row
    writers they replaced."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--preset", "example1"],
            ["envelope", "--preset", "ag_in", "--lambda-range", " -400:-0.5:300"],
            ["hopf", "--preset", "example1"],
            ["hopf", "--preset", "ag_normal"],
            ["curve", "--preset", "example1", "--lambda", "-1.5"],
            ["curve", "--preset", "example1", "--lambda", "-2", "--rho2-range", " -3:2:11"],
            ["continuum", "envelope", "--omega-range", " 1:14:200"],
            ["continuum", "envelope", "--branch", "hyper", "--omega-range", " 0.05:20:400"],
            # every sample dropped: an empty branch
            ["continuum", "envelope", "--branch", "hyper", "--omega-range", " 100:700:50"],
        ],
        ids=shlex.join,
    )
    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    def test_commands_byte_identical_to_row_writers(self, argv, fmt, capsys, monkeypatch):
        argv = argv + ["--format", fmt]
        got = run(argv, capsys)
        # an empty branch has nothing to plot
        assert got[0] == 0 or (fmt == "svg" and "nothing to plot" in got[2])
        monkeypatch.setattr(cli, "emit_branches", old_emit_branches)
        assert run(argv, capsys) == got

    def test_gaps_and_non_finite_points(self, monkeypatch):
        # hand-made branches: gaps, a break, non-finite values and an empty one
        t = np.linspace(-1.0, 2.0, 13)
        r1 = np.sin(3.0 * t)
        r1[[2, 7]] = [np.nan, np.inf]
        r2 = np.cos(2.0 * t)
        kept = np.ones(13, bool)
        kept[[4, 10]] = False
        breaks = np.zeros(13, bool)
        breaks[8] = True
        brs = [
            curves.grid_branch("k", "a", "p", t, r1, r2, kept, breaks),
            curves.grid_branch("k", "b", "p", t, -r2, r1, kept),
            curves.grid_branch("k", "c", "p", t, r1, r2, np.zeros(13, bool)),
        ]
        assert brs[0].gaps and not brs[2].points
        assert curves.branches_to_csv(brs) == old_branches_to_csv(brs)
        assert cli.branches_svg(brs) == old_branches_svg(brs)
        out = []
        monkeypatch.setattr(cli, "emit", lambda text, args: out.append(text))
        for fmt in ("json", "svg"):
            args = argparse.Namespace(format=fmt, output=None)
            cli.emit_branches(brs, "p", args)
            old_emit_branches(brs, "p", args)
            assert out[-2] == out[-1]


class TestOverflowExits:
    @pytest.mark.parametrize(
        "argv, where",
        [
            (["hopf", "--omega-range", " 1e200:1e201:3", "--format", "json"], "omega = 1e+200"),
            (["curve", "--lambda", "1e300"], "lambda = 1e+300"),
            (["envelope", "--lambda-range", " -1e80:-1e79:5"], "lambda = -1e+80"),
            (["triples", "--lambda-window", " -1e300:1e300"], "lambda = -1e+300"),
        ],
        ids=lambda v: v if isinstance(v, str) else shlex.join(v),
    )
    def test_split_overflow_is_3(self, capsys, argv, where):
        # the split is not finite there: a numeric failure naming the first
        # such parameter value, not NaN output, an empty answer or another reason
        code, out, err = run([argv[0], "--preset", "example1", *argv[1:]], capsys)
        assert (code, out) == (3, "")
        assert f"the split overflows at {where}" in err

    @pytest.mark.parametrize("command", ["decompose", "triples", "envelope"])
    def test_large_scale_input_is_3(self, tmp_path, capsys, command):
        # scale**n overflows: a numeric failure that names n and the scale
        path = tmp_path / "big.json"
        spec = {"M": [[1e200, 0.0], [0.0, 1.0]], "f1": [1.0, 0.0], "g1": [0.0, 1.0]}
        path.write_text(json.dumps({**spec, "f2": [0.0, 1.0], "g2": [1.0, 0.0]}))
        code, out, err = run([command, "--input", str(path)], capsys)
        assert (code, out) == (3, "")
        assert "n = 2" in err and "1e+200" in err

    @pytest.mark.parametrize("s", [1e77, 1e150])
    def test_rank_deficient_fit_is_3_or_exact(self, tmp_path, capsys, s):
        # chebfit's top column norm overflows here: no split missing D's top
        # coefficient, but a numeric failure, or D = x^2 - (s+1) x + s
        path = tmp_path / "big.json"
        spec = {"M": [[s, 0.0], [0.0, 1.0]], "f1": [1.0, 0.0], "g1": [0.0, 1.0]}
        path.write_text(json.dumps({**spec, "f2": [0.0, 1.0], "g2": [1.0, 0.0]}))
        code, out, err = run(["decompose", "--input", str(path)], capsys)
        if code == 3:
            assert out == "" and "n = 2" in err
            return
        assert (code, err) == (0, "")
        D = np.array(json.loads(out)["D"]) * s ** (np.arange(3) - 2.0)
        assert D.size == 3 and np.allclose(D, [1 / s, -(s + 1) / s, 1.0], rtol=0, atol=1e-12)

    def test_hyper_branch_beyond_sinh_overflow(self, capsys):
        # from omega ~ 712 sinh overflows and N1 ^ N2 is inf - inf
        argv = ["continuum", "envelope", "--branch", "hyper", "--omega-range", " 700:2000:2001"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert "nan" not in out and "inf" not in out

        def no_constant(name):
            raise ValueError(f"JSON constant {name}")

        code, out, err = run(argv + ["--format", "json"], capsys)
        assert (code, err) == (0, "")
        rep = json.loads(out, parse_constant=no_constant)
        assert rep["branches"][0]["kind"] == "continuum-envelope-hyper"
