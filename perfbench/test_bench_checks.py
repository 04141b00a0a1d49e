"""Each output check accepts a correct output and rejects a deliberately
wrong one.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json

import numpy as np
import pytest

import checks
import workloads
from spectral_atlas import allencahn, cli, curves, integrator, lowrank

EX1 = checks.Problem(workloads.example1_spec())


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def replace_row(text: str, index: int, edit) -> str:
    """Apply edit to the fields of the index-th data row of a CSV."""
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if ln[0] != "#"][1:]
    i = data[index]
    lines[i] = ",".join(edit(lines[i].rstrip("\n").split(","))) + "\n"
    return "".join(lines)


def nudge(fields, col, delta):
    fields[col] = repr(float(fields[col]) + delta)
    return fields


def rejects(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_decompose_closed_form_passes_and_a_wrong_coefficient_fails():
    r2 = np.sqrt(2.0)
    p = [4.0 - 2.0 * r2, 4.0 - r2, 1.0]
    rep = {"D": [12.0, 28.0, 23.0, 8.0, 1.0], "P1": p, "P2": p, "Q": [-1.0]}
    samples = np.array([[-1.3, 0.4, -2.0], [0.5, -1.0, 1.5], [-3.0, 2.0, 2.0]])
    checks.check_decompose(json.dumps(rep), EX1, samples)
    rep["P1"] = [p[0], p[1] + 1e-3, p[2]]
    rejects(checks.check_decompose, json.dumps(rep), EX1, samples)


@pytest.mark.parametrize(
    "kind, argv, grid",
    [
        ("envelope", ["--lambda-range", " -4:0:80"], np.linspace(-4, 0, 80)),
        ("hopf", ["--omega-range", " 0.1:6:80"], np.linspace(0.1, 6, 80)),
        ("curve", ["--lambda", "-1.5", "--rho2-range", " -12:2:80"], np.linspace(-12, 2, 80)),
    ],
)
def test_curve_point_moved_by_1e_3_fails(kind, argv, grid):
    text = run_cli([kind, "--preset", "example1", *argv])
    checks.check_curve(text, EX1, kind, grid, -1.5)
    rejects(checks.check_curve, replace_row(text, 7, lambda f: nudge(f, 3, 1e-3)), EX1, kind, grid, -1.5)


def test_curve_parameter_off_the_grid_fails():
    text = run_cli(["envelope", "--preset", "example1", "--lambda-range", " -4:0:80"])
    rejects(checks.check_curve, text, EX1, "envelope", np.linspace(-4, 0, 81))


def test_triple_points_moved_or_missing_fail():
    text = run_cli(["triples", "--preset", "example1"])
    checks.check_triples(text, EX1, (-6.0, 0.0), True)
    pts = json.loads(text)["triple_points"]
    moved = [dict(pts[0], rho1=pts[0]["rho1"] + 1e-3), pts[1]]
    rejects(checks.check_triples, json.dumps({"triple_points": moved}), EX1, (-6.0, 0.0), True)
    rejects(checks.check_triples, json.dumps({"triple_points": pts[:1]}), EX1, (-6.0, 0.0), True)


def test_census_cell_relabelled_fails():
    argv = ["phase", "--preset", "example1", "--window", " -12:2:-12:2", "--grid", "20"]
    text = run_cli(argv)
    grid = np.linspace(-12, 2, 20)
    checks.check_census(text, EX1, grid, grid)
    rejects(checks.check_census, replace_row(text, 0, lambda f: nudge(f, 2, 2.0)), EX1, grid, grid)
    relabel = replace_row(text, 0, lambda f: f[:4] + ["complex_unstable"])
    rejects(checks.check_census, relabel, EX1, grid, grid)


def network(name):
    p = integrator.build_network(preset=name)
    return checks.Problem({"M": p.M, "f1": p.f1, "g1": p.g1, "f2": p.f2, "g2": p.g2})


def test_gain_wrong_value_fails():
    text = run_cli(["integrator", "gain", "--rho2-range", " 0.2:1:6"])
    prob, grid = network("ag_normal"), np.linspace(0.2, 1, 6)
    checks.check_gain(text, prob, workloads.NETWORK_B, -0.05, grid)
    bad = replace_row(text, 2, lambda f: [f[0], f[1], repr(float(f[2]) * 1.001)])
    rejects(checks.check_gain, bad, prob, workloads.NETWORK_B, -0.05, grid)
    off = replace_row(text, 2, lambda f: nudge(f, 1, 1e-3))
    rejects(checks.check_gain, off, prob, workloads.NETWORK_B, -0.05, grid)


def test_impulse_response_scaled_fails():
    argv = ["integrator", "impulse", "--preset", "ag_in", "--rho1", "1.4", "--rho2", "0.5", "--t-end", "0.5"]
    text = run_cli(argv)
    prob = network("ag_in")
    checks.check_impulse(text, prob, workloads.NETWORK_B, 1.4, 0.5, 0.5)
    lines = text.splitlines(keepends=True)
    scaled = lines[:2] + [f"{ln.split(',')[0]},{float(ln.split(',')[1]) * (1 + 1e-5)!r}\n" for ln in lines[2:]]
    rejects(checks.check_impulse, "".join(scaled), prob, workloads.NETWORK_B, 1.4, 0.5, 0.5)


def test_network_checks_pass_on_a_decomposition_computed_apart():
    """The network operations fail because of the program's decomposition.

    A decomposition from numpy.poly of the four basis matrices passes the
    same checks, while decompose_cofactor's does not.
    """
    p = integrator.build_network(preset="ag_normal")
    prob = checks.Problem({"M": p.M, "f1": p.f1, "g1": p.g1, "f2": p.f2, "g2": p.g2})
    d00, d10, d01, d11 = (np.poly(prob.matrices(a, b)[0])[::-1] for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
    apart = lowrank.AKDecomposition(
        D=curves.Poly(d00), P1=curves.Poly(d10 - d00), P2=curves.Poly(d01 - d00),
        Q=curves.Poly(d11 - d10 - d01 + d00),
    )
    grid = np.linspace(-4.0, 0.0, 400)
    checks.check_curve(curves.branches_to_csv(curves.envelope(apart, grid)), prob, "envelope", grid)
    text = curves.branches_to_csv(curves.envelope(lowrank.decompose_cofactor(p), grid))
    rejects(checks.check_curve, text, prob, "envelope", grid)
    rep = {k: getattr(apart, k).coef.tolist() for k in ("D", "P1", "P2", "Q")}
    checks.check_decompose(json.dumps(rep), prob, workloads.NETWORK_DET_SAMPLES)
    rejects(checks.check_decompose, run_cli(["decompose", "--preset", "ag_normal"]), prob,
            workloads.NETWORK_DET_SAMPLES)


@pytest.mark.parametrize("branch", ["trig", "hyper"])
def test_continuum_point_moved_fails(branch):
    lo = 13.0 if branch == "trig" else 0.05
    grid = np.linspace(lo, 30.0, 200)
    text = run_cli(["continuum", "envelope", "--branch", branch, "--omega-range", f" {lo}:30:200"])
    checks.check_continuum_envelope(text, branch, grid)
    rejects(checks.check_continuum_envelope, replace_row(text, 5, lambda f: nudge(f, 3, 1e-3)), branch, grid)


def test_hyperbolic_point_in_first_quadrant_fails(monkeypatch):
    text = run_cli(["continuum", "envelope", "--branch", "hyper", "--omega-range", " 1:2:3"])
    flipped = replace_row(text, 0, lambda f: f[:3] + [repr(abs(float(f[3]))), repr(abs(float(f[4])))])
    monkeypatch.setattr(checks, "CONTINUUM_TOL", np.inf)  # isolate the quadrant rule
    rejects(checks.check_continuum_envelope, flipped, "hyper", np.linspace(1, 2, 3))


def test_lemma_not_all_negative_fails():
    text = run_cli(["continuum", "lemma-check", "--grid", "6", "--omega-samples", "2"])
    checks.check_lemma(text, 6, 2)
    rep = json.loads(text)
    rejects(checks.check_lemma, json.dumps(dict(rep, negative=rep["negative"] - 1, all_negative=False)), 6, 2)


def test_lambda1_and_index_wrong_values_fail():
    checks.check_lambda1(run_cli(["rs", "lambda1", "--k", "0.4"]), 0.4)
    rejects(checks.check_lambda1, json.dumps({"lambda1": allencahn.lambda1(0.4) * (1 + 1e-9)}), 0.4)
    text = run_cli(["rs", "index", "--k", "0.4", "--n", "400"])
    checks.check_index(text, 0.4, 400)
    rep = json.loads(text)
    rejects(checks.check_index, json.dumps(dict(rep, n_plus_perturbed=1)), 0.4, 400)
    rejects(checks.check_index, json.dumps(dict(rep, inner=rep["inner"] * (1 + 1e-6))), 0.4, 400)


def test_family_row_with_P_shifted_fails():
    text = run_cli(["rs", "family", "--k", "0.4", "--steps", "2"])
    checks.check_family(text, 0.4)
    rejects(checks.check_family, replace_row(text, 2, lambda f: nudge(f, 5, 1e-6)), 0.4)
    # a row whose turning points are moved no longer brackets period P
    rejects(checks.check_family, replace_row(text, 1, lambda f: nudge(f, 4, 1e-6)), 0.4)


def test_herglotz_wrong_value_fails():
    op = allencahn.cubic_operator(0.4, n=300)
    lam = complex(-1.0, 0.3)
    h = allencahn.herglotz_h(op, 0.6, lam)
    checks.check_herglotz([h], 0.4, 300, 0.6, [lam])
    rejects(checks.check_herglotz, [h * (1 + 1e-6)], 0.4, 300, 0.6, [lam])
    rejects(checks.check_herglotz, [h.conjugate()], 0.4, 300, 0.6, [lam])
