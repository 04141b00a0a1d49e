"""Command line front end.

Subcommands run the library's analyses on built-in presets or on problem
specs read from JSON, and write CSV, JSON, or minimal SVG artifacts.

Exit codes: 0 on success, 2 on configuration errors, 3 on numeric failures.
BLAS worker threads follow OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, which
must be set before Python starts.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import allencahn, continuum, curves, integrator, lowrank, phase, presets
from .kernel import Poly

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    """Bad command line arguments or malformed input files."""


NUMERIC_ERRORS = (
    lowrank.SingularResolventError,
    curves.DegenerateCurveError,
    curves.SymmetricDegeneracyError,
    integrator.DivergentGainError,
    continuum.ResonantFrequencyError,
    allencahn.IndeterminateIndexError,
    allencahn.PoleProximityError,
    allencahn.TurningPointError,
    allencahn.FamilyCorrectorError,
    np.linalg.LinAlgError,
    ZeroDivisionError,
    FloatingPointError,
)


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_range(text: str, name: str = "range"):
    """Inclusive sample range 'a:b:n' -> n equally spaced values.

    A leading space protects a negative lower endpoint from option parsing.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like 'a:b:n', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ConfigError(f"bad {name} {text!r}: {e}") from None
    if n <= 0:
        raise ConfigError(f"{name} needs a positive sample count, got {n}")
    if b < a:
        raise ConfigError(f"{name} endpoints out of order: {a} > {b}")
    return np.linspace(a, b, n)


def parse_window(text: str):
    """Rectangle 'r1lo:r1hi:r2lo:r2hi' in the (rho1, rho2) plane."""
    parts = text.strip().split(":")
    if len(parts) != 4:
        raise ConfigError(f"window must look like 'a:b:c:d', got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"bad window {text!r}: {e}") from None
    if vals[1] <= vals[0] or vals[3] <= vals[2]:
        raise ConfigError(f"window sides out of order in {text!r}")
    return (vals[0], vals[1]), (vals[2], vals[3])


def load_problem(args) -> lowrank.LowRankProblem:
    """Problem from --input JSON or a named --preset."""
    path = getattr(args, "input", None)
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read {path}: {e}") from None
        try:
            return lowrank.LowRankProblem.from_json(text)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{path}: {e}") from None
    name = getattr(args, "preset", None)
    if name is None:
        raise ConfigError("need --preset or --input")
    if name == "example1":
        return presets.example1()
    if name in ("ag_normal", "ag_in"):
        return integrator.build_network(preset=name)
    raise ConfigError(f"unknown preset {name!r}")


def load_decomposition(args) -> lowrank.AKDecomposition:
    """Decomposition from a previously written JSON report, or recomputed."""
    path = getattr(args, "decomposition", None)
    if path:
        try:
            with open(path) as fh:
                rep = json.load(fh)
            return lowrank.AKDecomposition(
                D=Poly(rep["D"]), P1=Poly(rep["P1"]), P2=Poly(rep["P2"]), Q=Poly(rep["Q"])
            )
        except OSError as e:
            raise ConfigError(f"cannot read {path}: {e}") from None
        except (KeyError, ValueError, json.JSONDecodeError) as e:
            raise ConfigError(f"{path}: bad decomposition file: {e}") from None
    return lowrank.decompose_cofactor(load_problem(args))


# ---------------------------------------------------------------------------
# output


def emit(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit_json(obj, args) -> None:
    emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args)


def branches_csv(branches, parameter: str) -> str:
    head = f"# dimensionless (rho1, rho2) curves parametrized by {parameter}\n"
    return head + curves.branches_to_csv(branches)


def table_csv(header: str, comment: str, rows) -> str:
    lines = [f"# {comment}", header]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def branches_svg(branches, width: int = 640, height: int = 480) -> str:
    """Minimal inspection plot: axes plus one polyline per branch segment."""
    pts = [
        (p.rho2, p.rho1)
        for br in branches
        for p in br.points
        if np.isfinite(p.rho1) and np.isfinite(p.rho2)
    ]
    if not pts:
        raise ConfigError("nothing to plot")
    xs, ys = zip(*pts)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    m = 40  # margin

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
        # break the polyline at parameter gaps and non-finite points
        segs: list[list[tuple[float, float]]] = [[]]
        prev = None
        for p in br.points:
            if not (np.isfinite(p.rho1) and np.isfinite(p.rho2)):
                segs.append([])
                prev = None
                continue
            if prev is not None and any(
                prev < lo < p.parameter or prev < hi < p.parameter
                for lo, hi in br.gaps
            ):
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


def emit_branches(branches, parameter: str, args) -> None:
    fmt = getattr(args, "format", "csv")
    if fmt == "csv":
        emit(branches_csv(branches, parameter), args)
    elif fmt == "json":
        emit_json(
            {
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
            },
            args,
        )
    elif fmt == "svg":
        emit(branches_svg(branches), args)
    else:
        raise ConfigError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    prob = load_problem(args)
    dec = lowrank.decompose_cofactor(prob)
    # verify against direct determinants at fixed off-spectrum sample points
    rng = np.random.default_rng(0)
    diff = 0.0
    eye = np.eye(prob.n)
    for _ in range(8):
        r1, r2 = rng.uniform(-2.0, 2.0, 2)
        lam = rng.uniform(-2.0, 2.0)
        det = np.linalg.det(lowrank.perturbed_matrix(prob, r1, r2) - lam * eye)
        val = (
            dec.D(lam)
            + r1 * dec.P1(lam)
            + r2 * dec.P2(lam)
            + r1 * r2 * dec.Q(lam)
        )
        diff = max(diff, abs(det - val) / max(1.0, abs(det)))
    emit_json(
        {
            "D": dec.D.coef.tolist(),
            "P1": dec.P1.coef.tolist(),
            "P2": dec.P2.coef.tolist(),
            "Q": dec.Q.coef.tolist(),
            "max_route_diff": diff,
        },
        args,
    )
    return EXIT_OK


def cmd_curve(args) -> int:
    dec = load_decomposition(args)
    grid = parse_range(args.rho2_range, "--rho2-range")
    br = curves.constant_eigenvalue_curve(dec, args.lam, grid)
    emit_branches([br], "lambda", args)
    return EXIT_OK


def cmd_envelope(args) -> int:
    dec = load_decomposition(args)
    grid = parse_range(args.lambda_range, "--lambda-range")
    emit_branches(curves.envelope(dec, grid), "lambda", args)
    return EXIT_OK


def cmd_hopf(args) -> int:
    dec = load_decomposition(args)
    grid = parse_range(args.omega_range, "--omega-range")
    emit_branches(curves.hopf_curve(dec, grid), "omega", args)
    return EXIT_OK


def cmd_triples(args) -> int:
    dec = load_decomposition(args)
    parts = args.lambda_window.strip().split(":")
    if len(parts) != 2:
        raise ConfigError(f"--lambda-window must look like 'a:b', got {args.lambda_window!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as e:
        raise ConfigError(f"bad --lambda-window: {e}") from None
    if hi <= lo:
        raise ConfigError("--lambda-window endpoints out of order")
    pts = curves.triple_points(dec, (lo, hi))
    emit_json({"triple_points": pts}, args)
    return EXIT_OK


def cmd_phase(args) -> int:
    prob = load_problem(args)
    (r1lo, r1hi), (r2lo, r2hi) = parse_window(args.window)
    if args.grid <= 0:
        raise ConfigError("--grid must be positive")
    r1 = np.linspace(r1lo, r1hi, args.grid)
    r2 = np.linspace(r2lo, r2hi, args.grid)
    g = phase.phase_grid(prob, r1, r2)
    if getattr(args, "format", "csv") == "json":
        census = g.census_counts()
        counts = {f"{nr}:{nh}": c for (nr, nh), c in census.items()}
        named = {
            name: census.get(pair, 0) for name, pair in phase.EXAMPLE1_REGIONS.items()
        }
        emit_json({"counts": counts, "example1_regions": named}, args)
        return EXIT_OK
    emit("# dimensionless phase census parametrized by (rho1, rho2)\n" + g.to_csv(), args)
    return EXIT_OK


def _network(args):
    spec = integrator.preset_spec(args.preset)
    return spec, integrator.build_network(spec)


def cmd_integrator(args) -> int:
    spec, prob = _network(args)
    dec = lowrank.decompose_cofactor(prob)
    if args.mode == "impulse":
        t, series = integrator.impulse_response(prob, args.rho1, args.rho2, spec.b, args.t_end)
        mg = integrator.measured_gain(series, spec.b)
        emit(
            table_csv(
                "t,response",
                f"impulse response parametrized by time t; measured_gain {mg!r}",
                zip(t, series),
            ),
            args,
        )
        return EXIT_OK
    grid = parse_range(args.rho2_range, "--rho2-range")
    rows = []
    for r2 in grid:
        r1 = integrator.constant_tau_rho1(dec, args.lam, r2, prob)
        if args.mode == "gain":
            rows.append((r2, r1, integrator.gain(prob, r1, r2, spec.b)))
        else:
            rows.append((r2, r1))
    if args.mode == "gain":
        emit(
            table_csv(
                "rho2,rho1,gain",
                f"dimensionless gain along the lambda={args.lam} curve, parametrized by rho2",
                rows,
            ),
            args,
        )
    else:
        emit(
            table_csv(
                "rho2,rho1",
                f"dimensionless constant-eigenvalue curve lambda={args.lam}, parametrized by rho2",
                rows,
            ),
            args,
        )
    return EXIT_OK


def cmd_continuum(args) -> int:
    spec = continuum.ContinuumSpec(N=args.cells)
    if args.mode == "envelope":
        grid = parse_range(args.omega_range, "--omega-range")
        br = continuum.continuum_envelope(spec, grid, args.branch)
        emit_branches([br], "omega", args)
        return EXIT_OK
    # lemma-check: sign of the tangency-point ratio over a (x1, x2, omega) grid
    xs = np.linspace(0.05, 0.95, args.grid)
    oms = np.linspace(0.5, 20.0, args.omega_samples)
    total = negative = 0
    worst = -np.inf
    for om in oms:
        for i, x1 in enumerate(xs):
            for x2 in xs[i + 1 :]:
                ratio, _ = continuum.quadrant_sign_check(spec, om, x1, x2)
                total += 1
                negative += int(ratio < 0.0)
                worst = max(worst, ratio)
    emit_json(
        {
            "points": total,
            "negative": negative,
            "all_negative": negative == total,
            "max_ratio": worst,
        },
        args,
    )
    return EXIT_OK


def cmd_rs(args) -> int:
    if args.mode == "lambda1":
        emit_json({"k": args.k, "lambda1": allencahn.lambda1(args.k)}, args)
        return EXIT_OK
    if args.mode == "index":
        op = allencahn.cubic_operator(args.k, n=args.n)
        rep = allencahn.stability_index(op, rho=args.rho)
        emit_json(
            {
                "k": args.k,
                "lambda1": allencahn.lambda1(args.k),
                "n_plus_H": int(rep["n_plus_H"]),
                "inner": float(rep["inner"]),
                "n_plus_perturbed": int(rep["n_plus_perturbed"]),
                "has_kernel": bool(rep["has_kernel"]),
            },
            args,
        )
        return EXIT_OK
    # family: arclength trace of the stationary-solution family from the
    # symmetric cubic profile (E=1/2, kappa=0)
    front = allencahn.CubicFront.from_k(args.k)
    start = allencahn.family_point(front.F, 0.5, 0.0, f=front.f)
    path = allencahn.trace_family(front.F, start, args.steps, args.ds, f=front.f)
    rows = []
    for p in path:
        try:
            t = allencahn.tau(front.F, p.E_const, p.kappa, f=front.f)
        except ZeroDivisionError:
            t = float("nan")
        rows.append((p.s, p.E_const, p.kappa, p.mu_minus, p.mu_plus, p.P, p.M, p.R, t))
    emit(
        table_csv(
            "s,E,kappa,mu_minus,mu_plus,P,M,R,tau",
            "stationary-family trace parametrized by arclength s (dimensionless)",
            rows,
        ),
        args,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spectral-atlas",
        description="Eigenvalue phase portraits of rank-one and rank-two perturbations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="csv"):
        p.add_argument("-o", "--output", help="output file (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "json", "svg"), default=fmt_default
        )

    def problem_opts(p):
        p.add_argument("--preset", choices=("example1", "ag_normal", "ag_in"))
        p.add_argument("--input", help="problem spec JSON (M, f1, g1, optional f2, g2)")

    def dec_opts(p):
        problem_opts(p)
        p.add_argument(
            "--decomposition", help="reuse a decomposition JSON written by 'decompose'"
        )

    p = sub.add_parser("decompose", help="four-polynomial determinant decomposition")
    problem_opts(p)
    common(p, "json")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("curve", help="constant-eigenvalue curve in the rho plane")
    dec_opts(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--rho2-range", default=" -12:2:400")
    common(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("envelope", help="double-eigenvalue (bifurcation) curve")
    dec_opts(p)
    p.add_argument("--lambda-range", default=" -4:0:400")
    common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("hopf", help="imaginary-pair curve")
    dec_opts(p)
    p.add_argument("--omega-range", default=" 0.01:10:400")
    common(p)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("triples", help="triple-eigenvalue points")
    dec_opts(p)
    p.add_argument("--lambda-window", default=" -6:0")
    common(p, "json")
    p.set_defaults(func=cmd_triples)

    p = sub.add_parser("phase", help="region census over a rho-plane window")
    problem_opts(p)
    p.add_argument("--window", default=" -12:2:-12:2", help="rho1lo:rho1hi:rho2lo:rho2hi")
    p.add_argument("--grid", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("integrator", help="line-attractor network analyses")
    p.add_argument("mode", choices=("gain", "impulse", "curve"))
    p.add_argument("--preset", choices=("ag_normal", "ag_in"), default="ag_normal")
    p.add_argument("--lambda", dest="lam", type=float, default=-0.05)
    p.add_argument("--rho2-range", default=" 0:1.2:60")
    p.add_argument("--rho1", type=float, default=0.0)
    p.add_argument("--rho2", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=5.0)
    common(p)
    p.set_defaults(func=cmd_integrator)

    p = sub.add_parser("continuum", help="integral-coupled diffusion eigenbranches")
    p.add_argument("mode", choices=("envelope", "lemma-check"))
    p.add_argument("--cells", type=int, default=12, help="number of coupling cells N")
    p.add_argument("--branch", choices=("trig", "hyper"), default="trig")
    p.add_argument("--omega-range", default=" 0.05:40:2000")
    p.add_argument("--grid", type=int, default=20, help="x-grid side for lemma-check")
    p.add_argument("--omega-samples", type=int, default=5)
    common(p)
    p.set_defaults(func=cmd_continuum)

    p = sub.add_parser("rs", help="nonlocal reaction-diffusion front stability")
    p.add_argument("mode", choices=("lambda1", "index", "family"))
    p.add_argument("--k", type=float, default=0.5, help="elliptic modulus")
    p.add_argument("--n", type=int, default=4000, help="discretization size")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--ds", type=float, default=0.01)
    common(p, "json")
    p.set_defaults(func=cmd_rs)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse already printed the message; normalize its error code
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"spectral-atlas: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_ERRORS as e:
        print(f"spectral-atlas: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
