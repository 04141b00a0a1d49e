"""Command line interface: parsing, artifacts, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from spectral_atlas import cli
from spectral_atlas.phase import phase_grid
from spectral_atlas.presets import EXAMPLE1_D, EXAMPLE1_P, EXAMPLE1_Q, example1


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    @pytest.mark.parametrize("command", ["envelope", "hopf"])
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

        exact = allencahn.period_integrals
        rng = np.random.default_rng(0)

        def noisy(*args, **kwargs):
            P, M, R = exact(*args, **kwargs)
            return P + 1e-6 * rng.standard_normal(), M, R

        monkeypatch.setattr(allencahn, "period_integrals", noisy)
        code, out, err = run(["rs", "family", "--k", "0.5", "--steps", "2"], capsys)
        assert code == 3
        assert out == ""
        assert "|P - P0|" in err

    def test_rs_family_without_turning_point_is_3(self, capsys):
        code, _, err = run(["rs", "family", "--k", "0.75", "--steps", "2"], capsys)
        assert code == 3
        assert "turning point" in err
