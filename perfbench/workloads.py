"""The benchmark's workloads: seeded inputs, the jobs that analyse them, and
the independent check of every operation's output.

A job is one complete analysis of one generated input.  It is a fixed list
of operations; an operation is one CLI command (``spectral_atlas.cli.main``
with stdout captured in memory) or, where no command exists, one library
call.  Every job of a workload runs the same operations, so the share of
failed operations does not depend on the seed or on how many jobs a run
completes.

Import it after ``spectral_atlas.cli``: the CLI module passes the thread
cap on to BLAS only if it is imported before numpy.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks

WORKLOADS = ("portrait", "integrators", "fronts")
JOBS_PER_LIST = 42  # jobs drawn from one seed, seven rotations of PORTRAIT_SIZES

# portrait: one of six problem kinds per job, in a fixed rotation so that
# every seed gives the same mix of sizes
PORTRAIT_SIZES = (None, 4, 5, 6, 7, 8)  # None is the four-dimensional benchmark
PORTRAIT_GRID = 70  # census side; the census and its CSV carry most of a job
CURVE_SAMPLES = 400

NETWORKS = ("ag_normal", "ag_in")
NETWORK_B = np.concatenate([np.ones(6), np.zeros(2)])  # input pattern of both presets
GAIN_LAMBDA = -0.05  # the CLI's default operating eigenvalue
IMPULSE_T_END = 1.0
LEMMA_GRID, LEMMA_OMEGAS = 20, 5  # the CLI's lemma-check defaults
# fixed points where the network decompositions are compared with det(...)
NETWORK_DET_SAMPLES = np.column_stack(
    [np.linspace(-400.0, 0.0, 9), np.full(9, 0.5), np.full(9, 0.5)]
)

# the network decompose, envelope and hopf commands: decompose_cofactor
# chops the networks' real coefficients, so they fail their checks every time
KNOWN_FAILING = frozenset(f"{cmd}:{net}" for cmd in ("decompose", "envelope", "hopf") for net in NETWORKS)

INDEX_N = 1000
FAMILY_STEPS = 2
HERGLOTZ_N = 800
HERGLOTZ_POINTS = 4


class OpFailed(Exception):
    """A command exited non-zero or a call raised."""


@dataclass
class Op:
    """One command or call and the check of what it returned."""

    name: str
    run: Callable[[Any], Any]  # gets the program's modules, returns the output
    check: Callable[[Any], None]


# ---------------------------------------------------------------------------
# running one operation


def cli_op(name: str, argv: list[str], check: Callable[[str], None]) -> Op:
    def run(prog):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = prog.cli.main(argv)
        if rc != 0:
            raise OpFailed(f"exit {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(name, run, check)


def rng_range(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def arg_range(a: float, b: float, n: int) -> str:
    """CLI range 'a:b:n'; the leading space protects a negative start."""
    return f" {a!r}:{b!r}:{n}"


# ---------------------------------------------------------------------------
# portrait


def example1_spec() -> dict:
    r2 = np.sqrt(2.0)
    M = [[-2.0, -1.0, 0.0, 0.0], [-1.0, -2.0, 0.0, 0.0], [r2, 1.0, -2.0, 0.0], [1.0, r2, 0.0, -2.0]]
    e = np.eye(4)
    return {"M": M, "f1": (-e[0]).tolist(), "g1": e[3].tolist(), "f2": (-e[1]).tolist(), "g2": e[2].tolist()}


def random_spec(rng, n: int) -> dict:
    """Well-scaled rank-two problem: a stable base matrix near -2 I."""
    M = -2.0 * np.eye(n) + 0.8 * rng.standard_normal((n, n)) / np.sqrt(n)
    f1, g1, f2, g2 = 1.5 * rng.standard_normal((4, n)) / np.sqrt(n)
    return {"M": M.tolist(), "f1": f1.tolist(), "g1": g1.tolist(), "f2": f2.tolist(), "g2": g2.tolist()}


def portrait_job(rng, i: int, workdir: str) -> list[Op]:
    n = PORTRAIT_SIZES[i % len(PORTRAIT_SIZES)]
    spec = example1_spec() if n is None else random_spec(rng, n)
    path = os.path.join(workdir, f"problem-{i:03d}.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    prob = checks.Problem(spec)
    src = ["--input", path]

    samples = np.column_stack(
        [rng.uniform(-5.0, 1.0, 8), rng.uniform(-3.0, 3.0, 8), rng.uniform(-3.0, 3.0, 8)]
    )
    lam_lo, lam_hi = rng_range(rng, -5.0, -4.0), rng_range(rng, -0.5, 0.5)
    om_hi = rng_range(rng, 6.0, 10.0)
    win = (rng_range(rng, -7.0, -5.0), rng_range(rng, -0.5, 0.5))
    lam_c = rng_range(rng, -3.0, -0.5)
    r1lo, r1hi = rng_range(rng, -13.0, -10.0), rng_range(rng, 0.0, 3.0)
    r2lo, r2hi = rng_range(rng, -13.0, -10.0), rng_range(rng, 0.0, 3.0)

    lam_grid = np.linspace(lam_lo, lam_hi, CURVE_SAMPLES)
    om_grid = np.linspace(0.01, om_hi, CURVE_SAMPLES)
    r2_grid = np.linspace(-12.0, 2.0, CURVE_SAMPLES)
    g = PORTRAIT_GRID
    ops = [
        cli_op("decompose", ["decompose", *src], lambda out: checks.check_decompose(out, prob, samples)),
        cli_op(
            "envelope",
            ["envelope", *src, "--lambda-range", arg_range(lam_lo, lam_hi, CURVE_SAMPLES)],
            lambda out: checks.check_curve(out, prob, "envelope", lam_grid),
        ),
        cli_op(
            "hopf",
            ["hopf", *src, "--omega-range", arg_range(0.01, om_hi, CURVE_SAMPLES)],
            lambda out: checks.check_curve(out, prob, "hopf", om_grid),
        ),
        cli_op(
            "triples",
            ["triples", *src, "--lambda-window", f" {win[0]!r}:{win[1]!r}"],
            lambda out: checks.check_triples(out, prob, win, n is None),
        ),
        cli_op(
            "curve",
            ["curve", *src, "--lambda", repr(lam_c), "--rho2-range", arg_range(-12.0, 2.0, CURVE_SAMPLES)],
            lambda out: checks.check_curve(out, prob, "curve", r2_grid, lam_c),
        ),
        cli_op(
            "phase",
            ["phase", *src, "--window", f" {r1lo!r}:{r1hi!r}:{r2lo!r}:{r2hi!r}", "--grid", str(g)],
            lambda out: checks.check_census(
                out, prob, np.linspace(r1lo, r1hi, g), np.linspace(r2lo, r2hi, g)
            ),
        ),
    ]
    return ops


# ---------------------------------------------------------------------------
# integrators


def network_problems() -> dict:
    """The two preset networks, for the checks."""
    from spectral_atlas import integrator

    out = {}
    for name in NETWORKS:
        p = integrator.build_network(preset=name)
        out[name] = checks.Problem({"M": p.M, "f1": p.f1, "g1": p.g1, "f2": p.f2, "g2": p.g2})
    return out


def integrators_job(rng, i: int, probs: dict) -> list[Op]:
    ops = []
    # fixed inputs: these six fail their checks on every job (see README)
    for name in NETWORKS:
        prob = probs[name]
        ops.append(
            cli_op(
                f"decompose:{name}",
                ["decompose", "--preset", name],
                lambda out, prob=prob: checks.check_decompose(out, prob, NETWORK_DET_SAMPLES),
            )
        )
        ops.append(
            cli_op(
                f"envelope:{name}",
                ["envelope", "--preset", name],
                lambda out, prob=prob: checks.check_curve(out, prob, "envelope", np.linspace(-4.0, 0.0, 400)),
            )
        )
        ops.append(
            cli_op(
                f"hopf:{name}",
                ["hopf", "--preset", name],
                lambda out, prob=prob: checks.check_curve(out, prob, "hopf", np.linspace(0.01, 10.0, 400)),
            )
        )

    g_lo, g_hi = rng_range(rng, 0.0, 0.3), rng_range(rng, 0.9, 1.1)
    g_grid = np.linspace(g_lo, g_hi, 40)
    ops.append(
        cli_op(
            "integrator-gain",
            ["integrator", "gain", "--preset", "ag_normal", "--rho2-range", arg_range(g_lo, g_hi, 40)],
            lambda out: checks.check_gain(out, probs["ag_normal"], NETWORK_B, GAIN_LAMBDA, g_grid),
        )
    )
    r1, r2 = rng_range(rng, 0.0, 2.0), rng_range(rng, 0.0, 0.6)
    ops.append(
        cli_op(
            "integrator-impulse",
            ["integrator", "impulse", "--preset", "ag_in", "--rho1", repr(r1), "--rho2", repr(r2),
             "--t-end", repr(IMPULSE_T_END)],
            lambda out: checks.check_impulse(out, probs["ag_in"], NETWORK_B, r1, r2, IMPULSE_T_END),
        )
    )
    # the trig range lies between 4 pi and 6 pi: near the asymptotes at even
    # multiples of pi continuum_envelope loses accuracy (see README)
    for branch, (a0, a1, b0, b1) in (("trig", (13.0, 13.5, 18.0, 18.5)), ("hyper", (0.05, 0.5, 30.0, 40.0))):
        a, b = rng_range(rng, a0, a1), rng_range(rng, b0, b1)
        grid = np.linspace(a, b, 1000)
        ops.append(
            cli_op(
                f"continuum-{branch}",
                ["continuum", "envelope", "--branch", branch, "--omega-range", arg_range(a, b, 1000)],
                lambda out, branch=branch, grid=grid: checks.check_continuum_envelope(out, branch, grid),
            )
        )
    ops.append(
        cli_op(
            "lemma-check",
            ["continuum", "lemma-check", "--grid", str(LEMMA_GRID), "--omega-samples", str(LEMMA_OMEGAS)],
            lambda out: checks.check_lemma(out, LEMMA_GRID, LEMMA_OMEGAS),
        )
    )
    return ops


# ---------------------------------------------------------------------------
# fronts


def fronts_job(rng, i: int) -> list[Op]:
    # up to 0.65: towards k = 0.7 the family drifts off its period (see README)
    k = rng_range(rng, 0.2, 0.65)
    rho = rng_range(rng, 0.2, 1.0)
    lams = [complex(rng_range(rng, -3.0, 1.0), rng_range(rng, 0.05, 1.0)) for _ in range(HERGLOTZ_POINTS)]
    K = repr(k)
    ops = [
        cli_op("rs-lambda1", ["rs", "lambda1", "--k", K], lambda out: checks.check_lambda1(out, k)),
        cli_op(
            "rs-index", ["rs", "index", "--k", K, "--n", str(INDEX_N)],
            lambda out: checks.check_index(out, k, INDEX_N),
        ),
        cli_op(
            "rs-family", ["rs", "family", "--k", K, "--steps", str(FAMILY_STEPS)],
            lambda out: checks.check_family(out, k),
        ),
    ]
    # herglotz_h has no command: one library call per lambda on one operator
    state = {}

    def build(prog):
        state["op"] = prog.allencahn.cubic_operator(k, n=HERGLOTZ_N)
        return state["op"]

    def check_op(op):
        diag, off, _, _ = checks.front_operator(k, HERGLOTZ_N)
        checks.require(
            np.allclose(op.diag, diag, rtol=1e-12, atol=0.0) and np.allclose(op.off, off, rtol=1e-12, atol=0.0),
            "cubic_operator differs from the operator assembled with scipy's ellipj",
        )

    ops.append(Op("cubic-operator", build, check_op))
    for lam in lams:
        ops.append(
            Op(
                "herglotz",
                lambda prog, lam=lam: prog.allencahn.herglotz_h(state["op"], rho, lam),
                lambda val, lam=lam: checks.check_herglotz([val], k, HERGLOTZ_N, rho, [lam]),
            )
        )
    return ops


# ---------------------------------------------------------------------------


def make_jobs(workload: str, seed: int, workdir: str) -> list[list[Op]]:
    """The seed's fixed list of jobs; problem files go to workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    if workload == "portrait":
        return [portrait_job(rng, i, workdir) for i in range(JOBS_PER_LIST)]
    if workload == "integrators":
        probs = network_problems()
        return [integrators_job(rng, i, probs) for i in range(JOBS_PER_LIST)]
    return [fronts_job(rng, i) for i in range(JOBS_PER_LIST)]
