"""Curves in the (rho1, rho2) parameter plane of a perturbed eigenproblem.

Everything here works off the four-polynomial decomposition
F(lambda; rho1, rho2) = D + rho1 P1 + rho2 P2 + rho1 rho2 Q.  For a fixed
lambda (or a fixed imaginary pair +-i omega) the eigenvalue condition is
bilinear in (rho1, rho2); curves are traced by sweeping the spectral
parameter and solving the resulting one- or two-row bilinear systems.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .kernel import Poly, poly_roots, poly_wronskian, poly_wronskian3
from .lowrank import AKDecomposition


class DegenerateCurveError(ValueError):
    """The decomposition is too degenerate for the requested construction."""


@dataclass(frozen=True)
class CurvePoint:
    kind: str
    branch: str
    parameter: float
    rho1: float
    rho2: float


@dataclass
class CurveBranch:
    kind: str
    branch: str
    parameter_name: str
    points: list[CurvePoint] = field(default_factory=list)
    gaps: list[tuple[float, float]] = field(default_factory=list)


def branches_to_csv(branches: list[CurveBranch]) -> str:
    """Serialize curve branches to CSV: kind,branch,parameter,rho1,rho2.

    Gaps appear as comment lines '# gap <lo> <hi>' after the branch header.
    """
    buf = io.StringIO()
    buf.write("kind,branch,parameter,rho1,rho2\n")
    for br in branches:
        buf.write(f"# branch {br.kind}/{br.branch} parameter={br.parameter_name}\n")
        for lo, hi in br.gaps:
            buf.write(f"# gap {lo!r} {hi!r}\n")
        for p in br.points:
            buf.write(f"{p.kind},{p.branch},{p.parameter!r},{p.rho1!r},{p.rho2!r}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# one sweep: grid arrays -> branch


def gap_intervals(t, kept, breaks=None) -> list[tuple[float, float]]:
    """Gaps (t[i-1], t[i]) wherever point i-1 is kept and point i is dropped
    or marks a break (a kept point that must not be joined to the last one)."""
    kept = np.asarray(kept, bool)
    cut = ~kept[1:] if breaks is None else ~kept[1:] | np.asarray(breaks, bool)[1:]
    t = np.asarray(t, float).tolist()
    return [(t[i], t[i + 1]) for i in np.flatnonzero(kept[:-1] & cut).tolist()]


def grid_branch(
    kind: str, branch: str, parameter_name: str, t, rho1, rho2, kept, breaks=None
) -> CurveBranch:
    """Branch of the kept grid points, with the gaps of gap_intervals."""
    t = np.asarray(t, float)
    points = [
        CurvePoint(kind, branch, *v)
        for v in zip(t[kept].tolist(), rho1[kept].tolist(), rho2[kept].tolist())
    ]
    return CurveBranch(kind, branch, parameter_name, points, gap_intervals(t, kept, breaks))


# ---------------------------------------------------------------------------
# bilinear row systems


def _real_quadratic_roots(A, B, C, tol):
    """Real roots of A x^2 + B x + C = 0, lane by lane.

    Returns (roots, count, degenerate): roots[..., :count] are the real
    roots in ascending order (count 0 for a negative discriminant, 1 where A
    vanishes to within tol), and degenerate marks the lanes where A and B
    both vanish.  Every lane is computed; results that do not apply are
    masked.
    """
    linear = np.abs(A) <= tol
    degenerate = linear & (np.abs(B) <= tol)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        disc = B * B - 4.0 * A * C
        s = np.sqrt(disc)
        # stable quadratic formula
        q = np.where(B != 0.0, -0.5 * (B + np.sign(B) * s), 0.5 * s)
        r = np.where((q == 0.0)[..., None], 0.0, np.stack([q / A, C / q], axis=-1))
        r = np.where(linear[..., None], (-C / B)[..., None], r)
    r = np.where((r[..., 1] < r[..., 0])[..., None], r[..., ::-1], r)
    count = np.where(degenerate, 0, np.where(linear, 1, np.where(disc < 0.0, 0, 2)))
    return r, count, degenerate


# relative size below which a row coefficient, a determinant or a quadratic
# coefficient of the bilinear row solver counts as zero
ROW_TOL = 1e-12


def _solve_rows(a, b):
    """Real solutions of the bilinear row pairs a[i], b[i], for (k, 4) arrays.

    Row (c0, c1, c2, c3) encodes c0 + c1 rho1 + c2 rho2 + c3 rho1 rho2 = 0.
    Returns (sol, count, degenerate): sol[i, :count[i]] are the (rho1, rho2)
    solutions of row i in ascending rho1 (a single one is stored twice),
    and degenerate marks the rows too degenerate to solve (count 0).
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    a0, a1, a2, a3 = a.T
    b0, b1, b2, b3 = b.T
    scale = np.maximum(np.maximum(np.max(np.abs(a), axis=1), np.max(np.abs(b), axis=1)), 1.0)
    tol2 = ROW_TOL * scale**2

    # combination e0 + e1 rho1 + e2 rho2 = 0 with no bilinear term: it gives
    # one unknown u in terms of the other, w, which solves a quadratic
    e0, e1, e2 = a0 * b3 - b0 * a3, a1 * b3 - b1 * a3, a2 * b3 - b2 * a3
    c0, c1, c2, c3 = np.where(np.abs(a3) >= np.abs(b3), a.T, b.T)
    w_is_rho1 = np.abs(e2) >= np.abs(e1)
    eu, ew = np.where(w_is_rho1, e2, e1), np.where(w_is_rho1, e1, e2)
    cu, cw = np.where(w_is_rho1, c2, c1), np.where(w_is_rho1, c1, c2)
    w, count, degenerate = _real_quadratic_roots(
        -c3 * ew, cw * eu - cu * ew - c3 * e0, c0 * eu - cu * e0, tol2
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = -(e0[:, None] + ew[:, None] * w) / eu[:, None]
    sol = np.where(w_is_rho1[:, None, None], np.stack([w, u], -1), np.stack([u, w], -1))
    degenerate |= (np.abs(e1) <= tol2) & (np.abs(e2) <= tol2)

    # rows without the bilinear term are a 2x2 linear system
    rows = np.flatnonzero((np.abs(a3) <= ROW_TOL * scale) & (np.abs(b3) <= ROW_TOL * scale))
    A = np.stack([a[rows, 1:3], b[rows, 1:3]], axis=1)
    ok = np.abs(np.linalg.det(A)) > tol2[rows]
    x = np.linalg.solve(A[ok], -np.stack([a0, b0], 1)[rows[ok], :, None])
    sol[rows[ok]] = x.swapaxes(1, 2)
    count[rows], degenerate[rows] = 1, ~ok
    count[degenerate] = 0

    swap = sol[:, 1, 0] < sol[:, 0, 0]
    return np.where(swap[:, None, None], sol[:, ::-1], sol), count, degenerate


def solve_bilinear_rows(a, b):
    """Real solutions of two bilinear equations in (rho1, rho2).

    Each row (c0, c1, c2, c3) encodes c0 + c1 rho1 + c2 rho2 + c3 rho1 rho2 = 0.
    Returns a list of (rho1, rho2) pairs in ascending rho1: two, one, or
    zero (the last when the eliminated quadratic has negative discriminant,
    i.e. a gap).  This is the one-row case of the sweeps' batched solver.
    """
    sol, count, degenerate = _solve_rows(np.atleast_2d(a), np.atleast_2d(b))
    if degenerate[0]:
        raise DegenerateCurveError("bilinear system is degenerate")
    return [(float(r1), float(r2)) for r1, r2 in sol[0, : count[0]]]


# ---------------------------------------------------------------------------
# constant-eigenvalue (zero-set) curves


def graph_rho1(dec: AKDecomposition, lam: float, rho2):
    """rho1 = -(D + rho2 P2) / (P1 + rho2 Q) at lambda, for a scalar or array rho2.

    Returns (rho1, kept, den): kept is False at a pole of the graph, where
    the denominator den = dF/drho1 vanishes to within 1e-12 of the
    polynomial values (relative to rho2 as well); rho1 is inf or nan there.
    This is the one pole rule of every constant-eigenvalue graph.
    """
    d, p1, p2, q = dec.D(lam), dec.P1(lam), dec.P2(lam), dec.Q(lam)
    scale = max(abs(d), abs(p1), abs(p2), abs(q), 1.0)
    r2 = np.asarray(rho2, float)
    den = p1 + r2 * q
    kept = ~(np.abs(den) <= 1e-12 * scale * np.maximum(1.0, np.abs(r2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = -(d + r2 * p2) / den
    return r1, kept, den


def constant_eigenvalue_curve(
    dec: AKDecomposition, lam: float, rho2_grid, kind: str = "constant"
) -> CurveBranch:
    """Locus where lambda stays an eigenvalue: rho1 as a graph over rho2.

    The graph is graph_rho1's; a pole of the graph is recorded as a gap.
    """
    r2 = np.asarray(rho2_grid, float)
    r1, kept, _ = graph_rho1(dec, lam, r2)
    return grid_branch(kind, "graph", "rho2", r2, r1, r2, kept)


def zero_curve(dec: AKDecomposition, rho2_grid) -> CurveBranch:
    """Stationary-instability boundary: zero held as an eigenvalue."""
    return constant_eigenvalue_curve(dec, 0.0, rho2_grid, kind="zero")


# ---------------------------------------------------------------------------
# envelope


def _envelope_rows(dec: AKDecomposition, lam):
    """Rows (F, dF/dlambda) at each lambda: arrays of shape lam.shape + (4,)."""
    polys = (dec.D, dec.P1, dec.P2, dec.Q)
    a = np.stack([p(lam) for p in polys], axis=-1)
    b = np.stack([p.deriv()(lam) for p in polys], axis=-1)
    return a, b


def envelope_point(dec: AKDecomposition, lam: float):
    """Solve F = 0, dF/dlambda = 0 at a single lambda; 0, 1 or 2 points."""
    return solve_bilinear_rows(*_envelope_rows(dec, lam))


def envelope(dec: AKDecomposition, lam_grid) -> list[CurveBranch]:
    """Double-eigenvalue locus swept over a lambda grid.

    Returns two branches ('+' takes the larger rho1 at each lambda); grid
    intervals where the discriminant goes negative are recorded as gaps on
    both branches.
    """
    return _sweep(dec, lam_grid, _envelope_rows, "envelope", "lambda")


def _sweep(dec, grid, rows, kind: str, parameter_name: str) -> list[CurveBranch]:
    """'+' and '-' branches of the bilinear system rows(dec, grid).

    '+' takes the larger rho1 at each grid value (a single solution lies on
    both); grid values without a real solution, degenerate rows included,
    leave gaps on both branches.  DegenerateCurveError when every row is
    degenerate, as on a rank-one problem.
    """
    t = np.asarray(grid, float)
    sol, count, degenerate = _solve_rows(*rows(dec, t))
    if t.size and degenerate.all():
        raise DegenerateCurveError(
            f"the {kind} system is degenerate at every grid value, "
            "as on a rank-one problem (P2 = Q = 0)"
        )
    return [
        grid_branch(kind, br, parameter_name, t, sol[:, j, 0], sol[:, j, 1], count > 0)
        for br, j in (("+", 1), ("-", 0))
    ]


# ---------------------------------------------------------------------------
# singular pieces


# relative size below which Q(lambda) and D Q - P1 P2 count as zero
SINGULAR_TOL = 1e-9


def singular_piece(dec: AKDecomposition, lam: float):
    """Line decomposition of F(lambda; .) = 0 at a degenerate lambda.

    When the derivative row vanishes identically the zero set of the bilinear
    form is itself a curve component.  It splits into the two axis-parallel
    lines rho1 = -P2/Q and rho2 = -P1/Q exactly when D Q = P1 P2 at lambda.
    Returns a dict with the two line levels, or raises if the form is
    irreducible (a genuine hyperbola) or Q vanishes.
    """
    d, p1, p2, q = dec.D(lam), dec.P1(lam), dec.P2(lam), dec.Q(lam)
    scale = max(abs(d), abs(p1), abs(p2), abs(q), 1.0)
    if abs(q) <= SINGULAR_TOL * scale:
        raise DegenerateCurveError("singular piece needs Q(lambda) != 0")
    if abs(d * q - p1 * p2) > SINGULAR_TOL * scale**2:
        raise DegenerateCurveError(
            "bilinear form does not factor into lines at this lambda"
        )
    return {"rho1_line": float(-p2 / q), "rho2_line": float(-p1 / q)}


# ---------------------------------------------------------------------------
# Hopf curve


def _hopf_rows(dec: AKDecomposition, omega):
    """Rows (Re F, Im F) at lambda = i omega: arrays of shape omega.shape + (4,)."""
    z = 1j * np.asarray(omega)
    v = np.stack([p(z) for p in (dec.D, dec.P1, dec.P2, dec.Q)], axis=-1)
    return v.real, v.imag


def hopf_point(dec: AKDecomposition, omega: float):
    """Solve F(i omega) = 0 (real and imaginary parts) for (rho1, rho2)."""
    return solve_bilinear_rows(*_hopf_rows(dec, omega))


def hopf_curve(dec: AKDecomposition, omega_grid) -> list[CurveBranch]:
    """Imaginary-pair locus +-i omega swept over a positive-omega grid."""
    return _sweep(dec, omega_grid, _hopf_rows, "hopf", "omega")


# ---------------------------------------------------------------------------
# triple points


class SymmetricDegeneracyError(ValueError):
    """The triple-point condition vanishes identically.

    Happens for decompositions with an exact exchange symmetry, where the
    triple locus is a continuum and needs problem-specific treatment, and on
    a rank-one problem (P2 = Q = 0).
    """


def _envelope_discriminant(dec: AKDecomposition) -> Poly:
    w = poly_wronskian
    t = w(dec.P1, dec.P2) - w(dec.D, dec.Q)
    return t * t - 4.0 * w(dec.D, dec.P1) * w(dec.P2, dec.Q)


# triple_points: Newton steps of the polish at most; candidate roots of G
# within this relative distance of each other (and of the real axis) merge;
# singular values of the linear screen below this relative size are zero
NEWTON_ITERS = 40
CLUSTER_TOL = 1e-3
RANK_RCOND = 1e-8


def _triple_newton(dec: AKDecomposition, lam, rho1, rho2):
    """Polish (lambda, rho1, rho2) on F = F' = F'' = 0 by damped Newton."""
    scale = max(dec.D.norm, dec.P1.norm, dec.P2.norm, dec.Q.norm, 1.0)
    x = np.array([lam, rho1, rho2], float)
    for _ in range(NEWTON_ITERS):
        lam, r1, r2 = x
        F = dec.charpoly(r1, r2)
        dr1 = dec.P1 + r2 * dec.Q
        dr2 = dec.P2 + r1 * dec.Q
        res = np.array([F(lam), F.deriv()(lam), F.deriv(2)(lam)])
        if np.max(np.abs(res)) <= 1e-12 * scale:
            break
        J = np.array(
            [
                [F.deriv()(lam), dr1(lam), dr2(lam)],
                [F.deriv(2)(lam), dr1.deriv()(lam), dr2.deriv()(lam)],
                [F.deriv(3)(lam), dr1.deriv(2)(lam), dr2.deriv(2)(lam)],
            ]
        )
        step, *_ = np.linalg.lstsq(J, -res, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            return None
        x = x + step
        if np.max(np.abs(step)) <= 1e-14 * max(1.0, np.max(np.abs(x))):
            break
    lam, r1, r2 = x
    F = dec.charpoly(r1, r2)
    res = np.array([F(lam), F.deriv()(lam), F.deriv(2)(lam)])
    if np.max(np.abs(res)) > 1e-8 * scale:
        return None
    return float(lam), float(r1), float(r2)


def triple_points(dec: AKDecomposition, lam_window: tuple[float, float]):
    """Parameter points where lambda is a triple eigenvalue.

    Candidate lambdas are roots (inside the window) of the derivative-
    determinant compatibility condition
        G = W3(P1,P2,Q) W3(P1,P2,D) - W3(D,P2,Q) W3(P1,D,Q),
    which typically carries them with multiplicity, so nearly-real root
    clusters are merged.  Each candidate is screened by solving
    F = F' = F'' = 0 as a linear system in (rho1, rho2, rho1 rho2) with the
    product constraint enforced, polished by Newton iteration on the full
    nonlinear system, and finally filtered by the sign of the envelope
    discriminant (a genuine triple point sits where two double-eigenvalue
    branches meet, not at a complex-pair pinch).

    Returns a list of dicts with keys 'lam', 'rho1', 'rho2'.
    """
    w3 = poly_wronskian3
    G = w3(dec.P1, dec.P2, dec.Q) * w3(dec.P1, dec.P2, dec.D) - w3(
        dec.D, dec.P2, dec.Q
    ) * w3(dec.P1, dec.D, dec.Q)
    G = G.chop(1e-10 * max(G.norm, 1.0))
    if G.is_zero:
        if dec.P2.is_zero and dec.Q.is_zero:
            raise SymmetricDegeneracyError(
                "the triple-point condition vanishes at every lambda, "
                "as on a rank-one problem (P2 = Q = 0)"
            )
        raise SymmetricDegeneracyError(
            "triple-point condition is identically zero; the configuration "
            "has an exact symmetry and the locus is not isolated"
        )
    if G.degree == 0:
        return []

    # multiple roots scatter as complex clusters of radius eps^(1/m); accept
    # a generous imaginary tolerance and merge the real parts
    roots = poly_roots(G)
    lo, hi = lam_window
    pad = CLUSTER_TOL * max(1.0, abs(lo), abs(hi))
    real = sorted(
        float(r.real)
        for r in roots
        if abs(r.imag) <= CLUSTER_TOL * max(1.0, abs(r))
        and lo - pad <= r.real <= hi + pad
    )
    cands: list[list[float]] = []
    for r in real:
        if cands and abs(r - cands[-1][-1]) <= CLUSTER_TOL * max(1.0, abs(r)):
            cands[-1].append(r)
        else:
            cands.append([r])
    lams = [float(np.mean(c)) for c in cands]

    disc = _envelope_discriminant(dec)
    disc_tol = 1e-8 * max(disc.norm, 1.0)

    out = []
    for lam in lams:
        A = np.array(
            [
                [dec.P1(lam), dec.P2(lam), dec.Q(lam)],
                [dec.P1.deriv()(lam), dec.P2.deriv()(lam), dec.Q.deriv()(lam)],
                [dec.P1.deriv(2)(lam), dec.P2.deriv(2)(lam), dec.Q.deriv(2)(lam)],
            ]
        )
        rhs = -np.array([dec.D(lam), dec.D.deriv()(lam), dec.D.deriv(2)(lam)])
        s = np.linalg.svd(A, compute_uv=False)
        rank = int(np.sum(s > RANK_RCOND * max(s[0], 1.0)))
        starts = []
        if rank == 3:
            x = np.linalg.solve(A, rhs)
            scale = max(1.0, abs(x[0]), abs(x[1]), abs(x[2]))
            if abs(x[0] * x[1] - x[2]) <= 1e-4 * scale:
                starts.append((x[0], x[1]))
        elif rank == 2:
            x0, *_ = np.linalg.lstsq(A, rhs, rcond=RANK_RCOND)
            _, _, Vt = np.linalg.svd(A)
            nv = Vt[-1]
            # (x0 + t n) must satisfy x1 x2 = x3: quadratic in t
            qa = nv[0] * nv[1]
            qb = x0[0] * nv[1] + x0[1] * nv[0] - nv[2]
            qc = x0[0] * x0[1] - x0[2]
            ts, count, _ = _real_quadratic_roots(qa, qb, qc, 1e-14 * max(1.0, abs(qa)))
            for t in ts[:count]:
                x = x0 + t * nv
                starts.append((x[0], x[1]))
        # rank <= 1: underdetermined beyond repair, skip
        for r1, r2 in starts:
            polished = _triple_newton(dec, lam, r1, r2)
            if polished is None:
                continue
            plam, pr1, pr2 = polished
            if not (lo <= plam <= hi):
                continue
            if disc(plam) < -disc_tol:
                continue
            if any(
                abs(plam - o["lam"]) <= 1e-6
                and abs(pr1 - o["rho1"]) <= 1e-6
                and abs(pr2 - o["rho2"]) <= 1e-6
                for o in out
            ):
                continue
            out.append({"lam": plam, "rho1": pr1, "rho2": pr2})
    return out
