"""Command line front end.

Subcommands run the library's analyses on built-in presets or on problem
specs read from JSON, and write CSV, JSON, or minimal SVG artifacts.  Each
command, and each mode of integrator, continuum and rs, takes only the options
it reads: exactly one problem source, and --format only where it has a choice.
Each subcommand only parses its arguments, makes one array call into the
library and writes the result; the numerics, tolerances and file formats live
in the library.

Exit codes, by one rule in main(): 0 on success; 2 on a ConfigError or a
plain ValueError (the library's input checks); 3 on any other ValueError or
ArithmeticError, which every numeric error class of the library derives
from.  No range or grid may ask for more than MAX_SAMPLES samples.
BLAS worker threads follow OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, which
must be set before Python starts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import continuum, curves, integrator, lowrank, phase, presets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the most samples a range or the lemma check may ask for, as many as the
# cells of the largest phase grid
MAX_SAMPLES = phase.MAX_CELLS


class ConfigError(Exception):
    """Bad command line arguments or malformed input files."""


# ---------------------------------------------------------------------------
# argument parsing helpers


def finite_float(text: str) -> float:
    """argparse type of every float option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def nonnegative_float(text: str) -> float:
    """argparse type of a finite float option that must be >= 0."""
    value = finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def nonzero_float(text: str) -> float:
    """argparse type of a finite float option that must not be 0."""
    value = finite_float(text)
    if value == 0.0:
        raise argparse.ArgumentTypeError(f"must be nonzero, got {text!r}")
    return value


def positive_int(text: str) -> int:
    """argparse type of every count option: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _finite_floats(parts, name: str, text: str) -> list[float]:
    try:
        values = [float(p) for p in parts]
    except ValueError as e:
        raise ConfigError(f"bad {name} {text!r}: {e}") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite, got {text!r}")
    return values


def parse_range(text: str, name: str = "range"):
    """Inclusive sample range 'a:b:n' -> n equally spaced values.

    A leading space protects a negative lower endpoint from option parsing.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must look like 'a:b:n', got {text!r}")
    a, b = _finite_floats(parts[:2], name, text)
    try:
        n = int(parts[2])
    except ValueError as e:
        raise ConfigError(f"bad {name} {text!r}: {e}") from None
    if n <= 0:
        raise ConfigError(f"{name} needs a positive sample count, got {n}")
    if n > MAX_SAMPLES:
        raise ConfigError(f"{name} asks for {n} samples, over MAX_SAMPLES = {MAX_SAMPLES}")
    if b < a:
        raise ConfigError(f"{name} endpoints out of order: {a} > {b}")
    return np.linspace(a, b, n)


def parse_window(text: str):
    """Rectangle 'r1lo:r1hi:r2lo:r2hi' in the (rho1, rho2) plane."""
    parts = text.strip().split(":")
    if len(parts) != 4:
        raise ConfigError(f"window must look like 'a:b:c:d', got {text!r}")
    vals = _finite_floats(parts, "window", text)
    if vals[1] <= vals[0] or vals[3] <= vals[2]:
        raise ConfigError(f"window sides out of order in {text!r}")
    return (vals[0], vals[1]), (vals[2], vals[3])


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read {path}: {e}") from None


def load_problem(args) -> lowrank.LowRankProblem:
    """Problem from --input JSON or a named --preset."""
    if args.input:
        text = read_text(args.input)
        try:
            return lowrank.LowRankProblem.from_json(text)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{args.input}: {e}") from None
    if args.preset == "example1":
        return presets.example1()
    return integrator.build_network(preset=args.preset)


def load_decomposition(args) -> lowrank.AKDecomposition:
    """Decomposition from a previously written JSON report, or recomputed."""
    if args.decomposition:
        text = read_text(args.decomposition)
        try:
            return lowrank.AKDecomposition.from_json(text)
        except ValueError as e:
            raise ConfigError(f"{args.decomposition}: bad decomposition file: {e}") from None
    return lowrank.decompose_cofactor(load_problem(args))


# ---------------------------------------------------------------------------
# output


def emit(text: str, args) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {args.output}: {e}") from None


def emit_json(obj, args) -> None:
    emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args)


def branches_csv(branches, parameter: str) -> str:
    head = f"# dimensionless (rho1, rho2) curves parametrized by {parameter}\n"
    return head + curves.branches_to_csv(branches)


def table_csv(header: str, comment: str, columns) -> str:
    """CSV of equal-length columns, every value written as repr(float)."""
    cols = [map(repr, np.asarray(c, float).tolist()) for c in columns]
    return "\n".join([f"# {comment}", header, *map(",".join, zip(*cols))]) + "\n"


def branches_svg(branches) -> str:
    """Minimal 640 x 480 inspection plot: axes plus one polyline per branch segment."""
    finite = [np.isfinite(br.rho1) & np.isfinite(br.rho2) for br in branches]
    xs = [x for br, ok in zip(branches, finite) for x in br.rho2[ok].tolist()]
    ys = [y for br, ok in zip(branches, finite) for y in br.rho1[ok].tolist()]
    if not xs:
        raise ConfigError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    width, height, m = 640, 480, 40  # m: margin

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
    for i, (br, ok) in enumerate(zip(branches, finite)):
        sx = m + (br.rho2 - x0) / xspan * (width - 2 * m)
        sy = height - m - (br.rho1 - y0) / yspan * (height - 2 * m)
        # a polyline ends at a non-finite point, which it skips, and after
        # the point whose parameter opens a gap; every gap starts at a kept
        # point (curves.gap_intervals)
        ends = ~ok | np.isin(br.parameter, [lo for lo, _ in br.gaps])
        for seg in np.split(np.arange(ok.size), np.flatnonzero(ends[:-1] | ~ok[1:]) + 1):
            seg = seg[ok[seg]]
            if seg.size < 2:
                continue
            pts = zip(sx[seg].tolist(), sy[seg].tolist())
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path}" fill="none" '
                f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_branches(branches, parameter: str, args) -> None:
    if args.format == "csv":
        emit(branches_csv(branches, parameter), args)
    elif args.format == "json":
        emit_json(
            {
                "parameter": parameter,
                "branches": [
                    {
                        "kind": br.kind,
                        "branch": br.branch,
                        "gaps": [list(g) for g in br.gaps],
                        "points": np.column_stack([br.parameter, br.rho1, br.rho2]).tolist(),
                    }
                    for br in branches
                ],
            },
            args,
        )
    else:
        emit(branches_svg(branches), args)


# ---------------------------------------------------------------------------
# subcommands


def cmd_decompose(args) -> int:
    prob = load_problem(args)
    dec = lowrank.decompose_cofactor(prob)
    # verify against direct determinants at 8 fixed random (rho1, rho2, lambda)
    r1, r2, lam = np.random.default_rng(0).uniform(-2.0, 2.0, (8, 3)).T
    diff = lowrank.det_residual(prob, dec, lam, r1, r2)
    emit(dec.to_json(max_route_diff=diff) + "\n", args)
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
    lo, hi = _finite_floats(parts, "--lambda-window", args.lambda_window)
    if hi <= lo:
        raise ConfigError("--lambda-window endpoints out of order")
    pts = curves.triple_points(dec, (lo, hi))
    emit_json({"triple_points": pts}, args)
    return EXIT_OK


def cmd_phase(args) -> int:
    prob = load_problem(args)
    (r1lo, r1hi), (r2lo, r2hi) = parse_window(args.window)
    phase.grid_cells(args.grid, args.grid)  # before the axes are allocated
    r1 = np.linspace(r1lo, r1hi, args.grid)
    r2 = np.linspace(r2lo, r2hi, args.grid)
    g = phase.phase_grid(prob, r1, r2)
    if args.format == "json":
        census = g.census_counts()
        counts = {f"{nr}:{nh}": c for (nr, nh), c in census.items()}
        named = {
            name: census.get(pair, 0) for name, pair in phase.EXAMPLE1_REGIONS.items()
        }
        emit_json({"counts": counts, "example1_regions": named}, args)
        return EXIT_OK
    emit("# dimensionless phase census parametrized by (rho1, rho2)\n" + g.to_csv(), args)
    return EXIT_OK


def cmd_integrator(args) -> int:
    prob, b = integrator.build_network(args.preset), integrator.INPUT_PATTERN
    if args.mode == "impulse":
        t, series = integrator.impulse_response(prob, args.rho1, args.rho2, b, args.t_end)
        mg = integrator.measured_gain(series, b)
        emit(
            table_csv(
                "t,response",
                f"impulse response parametrized by time t; measured_gain {mg!r}",
                [t, series],
            ),
            args,
        )
        return EXIT_OK
    grid = parse_range(args.rho2_range, "--rho2-range")
    dec = lowrank.decompose_cofactor(prob)
    r1 = integrator.constant_tau_rho1(dec, args.lam, grid, prob)
    header = "rho2,rho1"
    comment = f"dimensionless constant-eigenvalue curve lambda={args.lam}, parametrized by rho2"
    cols = [grid, r1]
    if args.mode == "gain":
        header += ",gain"
        comment = f"dimensionless gain along the lambda={args.lam} curve, parametrized by rho2"
        cols.append(integrator.gain(prob, r1, grid, b))
    emit(table_csv(header, comment, cols), args)
    return EXIT_OK


def cmd_continuum(args) -> int:
    spec = continuum.ContinuumSpec(N=args.cells)
    if args.mode == "envelope":
        grid = parse_range(args.omega_range, "--omega-range")
        br = continuum.continuum_envelope(spec, grid, args.branch)
        emit_branches([br], "omega", args)
        return EXIT_OK
    # lemma-check: sign of the tangency-point ratio over the (omega, x1 < x2) grid
    if args.grid < 2:
        raise ConfigError(f"lemma-check needs --grid >= 2, two x points for a pair x1 < x2; got {args.grid}")
    points = args.omega_samples * (args.grid * (args.grid - 1) // 2)
    if points > MAX_SAMPLES:
        raise ConfigError(f"lemma-check asks for {points} points, over MAX_SAMPLES = {MAX_SAMPLES}")
    xs = np.linspace(0.05, 0.95, args.grid)
    oms = np.linspace(0.5, 20.0, args.omega_samples)
    i, j = np.triu_indices(xs.size, 1)
    ratio = continuum.quadrant_ratio(spec, oms[:, None], xs[i], xs[j])
    negative = int(np.count_nonzero(ratio < 0.0))
    emit_json(
        {
            "points": ratio.size,
            "negative": negative,
            "all_negative": negative == ratio.size,
            "max_ratio": float(np.max(ratio)),
        },
        args,
    )
    return EXIT_OK


def cmd_rs(args) -> int:
    # allencahn is the one module whose solvers (tridiagonal Sturm counts,
    # banded solves) numpy lacks, and its import is most of a cold start; only
    # the rs commands import it
    from . import allencahn

    if args.mode == "lambda1":
        emit_json({"k": args.k, "lambda1": allencahn.lambda1(args.k)}, args)
        return EXIT_OK
    if args.mode == "index":
        # CubicFront.from_k and build_H_discrete check k and n,
        # stability_index checks rho
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
    # family: arclength trace of the stationary-solution family
    front = allencahn.CubicFront.from_k(args.k)
    rows = allencahn.family_table(front, args.steps, args.ds)
    emit(
        table_csv(
            "s,E,kappa,mu_minus,mu_plus,P,M,R,tau",
            "stationary-family trace parametrized by arclength s (dimensionless)",
            rows.T,
        ),
        args,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def command(parent, name: str, help: str, formats=(), source=None) -> argparse.ArgumentParser:
    """Subparser name of parent with -o; with --format (the first of formats
    by default) when it writes more than one format; with exactly one of
    --preset or --input for source "problem", or of --preset, --input or
    --decomposition for source "decomposition"."""
    p = parent.add_parser(name, help=help)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    if source:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--preset", choices=("example1", "ag_normal", "ag_in"))
        group.add_argument("--input", help="problem spec JSON (M, f1, g1, optional f2, g2)")
        if source == "decomposition":
            group.add_argument(
                "--decomposition", help="reuse a decomposition JSON written by 'decompose'"
            )
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Modes are nested subparsers (dest "mode"), and each command or mode
    declares only the options its cmd_* function reads.  parse_args returns
    a fresh Namespace on every call and leaves the parser as it was, so every
    main() call can share it.  The parser holds no command functions: main()
    looks up cmd_<command> at each call, so a replaced cmd_* function takes
    effect as it did with a parser per call.
    """
    ap = argparse.ArgumentParser(
        prog="spectral-atlas",
        description="Eigenvalue phase portraits of rank-one and rank-two perturbations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def modes(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="mode", required=True)

    curve = ("csv", "json", "svg")  # the formats of every curve command
    command(sub, "decompose", "four-polynomial determinant decomposition", source="problem")
    p = command(sub, "curve", "constant-eigenvalue curve in the rho plane", curve, "decomposition")
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--rho2-range", default=" -12:2:400")
    p = command(sub, "envelope", "double-eigenvalue (bifurcation) curve", curve, "decomposition")
    p.add_argument("--lambda-range", default=" -4:0:400")
    p = command(sub, "hopf", "imaginary-pair curve", curve, "decomposition")
    p.add_argument("--omega-range", default=" 0.01:10:400")
    p = command(sub, "triples", "triple-eigenvalue points", (), "decomposition")
    p.add_argument("--lambda-window", default=" -6:0")
    p = command(sub, "phase", "region census over a rho-plane window", ("csv", "json"), "problem")
    p.add_argument("--window", default=" -12:2:-12:2", help="rho1lo:rho1hi:rho2lo:rho2hi")
    p.add_argument("--grid", type=positive_int, default=100)

    integrator_modes = modes("integrator", "line-attractor network analyses")
    network = {"choices": ("ag_normal", "ag_in"), "default": "ag_normal"}
    for mode, help in (("gain", "gain along the --lambda curve"), ("curve", "the --lambda curve")):
        p = command(integrator_modes, mode, help)
        p.add_argument("--preset", **network)
        p.add_argument("--lambda", dest="lam", type=finite_float, default=-0.05)
        p.add_argument("--rho2-range", default=" 0:1.2:60")
    p = command(integrator_modes, "impulse", "impulse response at one (rho1, rho2)")
    p.add_argument("--preset", **network)
    p.add_argument("--rho1", type=finite_float, default=0.0)
    p.add_argument("--rho2", type=finite_float, default=0.0)
    p.add_argument("--t-end", type=nonnegative_float, default=5.0)

    continuum_modes = modes("continuum", "integral-coupled diffusion eigenbranches")
    cells = {"type": positive_int, "default": 12, "help": "number of coupling cells N"}
    p = command(continuum_modes, "envelope", "envelope over omega on one branch", curve)
    p.add_argument("--cells", **cells)
    p.add_argument("--branch", choices=("trig", "hyper"), default="trig")
    p.add_argument("--omega-range", default=" 0.05:40:2000")
    p = command(continuum_modes, "lemma-check", "quadrant lemma over an (omega, x1 < x2) grid")
    p.add_argument("--cells", **cells)
    p.add_argument("--grid", type=positive_int, default=20, help="x-grid side")
    p.add_argument("--omega-samples", type=positive_int, default=5)

    rs_modes = modes("rs", "nonlocal reaction-diffusion front stability")
    modulus = {"type": finite_float, "default": 0.5, "help": "elliptic modulus"}
    p = command(rs_modes, "lambda1", "closed-form front eigenvalue")
    p.add_argument("--k", **modulus)
    p = command(rs_modes, "index", "stability index of the discretized front")
    p.add_argument("--k", **modulus)
    p.add_argument("--n", type=positive_int, default=4000, help="discretization size")
    p.add_argument("--rho", type=finite_float, default=1.0, help="index coupling in (0, 1]")
    p = command(rs_modes, "family", "arclength trace of the stationary family")
    p.add_argument("--k", **modulus)
    p.add_argument("--steps", type=positive_int, default=40)
    p.add_argument("--ds", type=nonzero_float, default=0.01)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse already printed the message; normalize its error code
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ValueError, ArithmeticError) as e:
        if isinstance(e, ConfigError) or type(e) is ValueError:
            print(f"spectral-atlas: {e}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"spectral-atlas: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
