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

    def rho_arrays(self):
        r1 = np.array([p.rho1 for p in self.points])
        r2 = np.array([p.rho2 for p in self.points])
        return r1, r2


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
# bilinear row systems


def solve_bilinear_rows(a, b, tol: float = 1e-12):
    """Real solutions of two bilinear equations in (rho1, rho2).

    Each row (c0, c1, c2, c3) encodes c0 + c1 rho1 + c2 rho2 + c3 rho1 rho2 = 0.
    Returns a list of (rho1, rho2) pairs: two, one, or zero (the last when
    the eliminated quadratic has negative discriminant, i.e. a gap).
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    if abs(a[3]) <= tol * scale and abs(b[3]) <= tol * scale:
        A = np.array([[a[1], a[2]], [b[1], b[2]]])
        rhs = -np.array([a[0], b[0]])
        if abs(np.linalg.det(A)) <= tol * scale**2:
            raise DegenerateCurveError("linear bilinear system is rank deficient")
        r1, r2 = np.linalg.solve(A, rhs)
        return [(float(r1), float(r2))]

    # combination e0 + e1 rho1 + e2 rho2 = 0 with no bilinear term
    e = np.array(
        [
            a[0] * b[3] - b[0] * a[3],
            a[1] * b[3] - b[1] * a[3],
            a[2] * b[3] - b[2] * a[3],
        ]
    )
    c = a if abs(a[3]) >= abs(b[3]) else b
    if max(abs(e[1]), abs(e[2])) <= tol * scale**2:
        raise DegenerateCurveError("bilinear elimination degenerates to a constant")

    sols = []
    if abs(e[2]) >= abs(e[1]):
        # rho2 = -(e0 + e1 rho1) / e2, quadratic in rho1
        A2 = -c[3] * e[1]
        B2 = c[1] * e[2] - c[2] * e[1] - c[3] * e[0]
        C2 = c[0] * e[2] - c[2] * e[0]
        for r1 in _real_quadratic_roots(A2, B2, C2, tol * scale**2):
            r2 = -(e[0] + e[1] * r1) / e[2]
            sols.append((float(r1), float(r2)))
    else:
        # rho1 = -(e0 + e2 rho2) / e1, quadratic in rho2
        A2 = -c[3] * e[2]
        B2 = c[2] * e[1] - c[1] * e[2] - c[3] * e[0]
        C2 = c[0] * e[1] - c[1] * e[0]
        for r2 in _real_quadratic_roots(A2, B2, C2, tol * scale**2):
            r1 = -(e[0] + e[2] * r2) / e[1]
            sols.append((float(r1), float(r2)))
    return sols


def _real_quadratic_roots(A, B, C, tol):
    if abs(A) <= tol:
        if abs(B) <= tol:
            raise DegenerateCurveError("quadratic degenerates to a constant")
        return [-C / B]
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    s = np.sqrt(disc)
    # stable quadratic formula
    q = -0.5 * (B + np.sign(B) * s) if B != 0.0 else 0.5 * s
    if q == 0.0:
        return [0.0, 0.0]
    r1, r2 = q / A, C / q
    return sorted([r1, r2])


# ---------------------------------------------------------------------------
# constant-eigenvalue (zero-set) curves


def constant_eigenvalue_curve(
    dec: AKDecomposition, lam: float, rho2_grid, kind: str = "constant"
) -> CurveBranch:
    """Locus where lambda stays an eigenvalue: rho1 as a graph over rho2.

    rho1 = -(D + rho2 P2) / (P1 + rho2 Q) at the given lambda; a pole of the
    graph is recorded as a gap.
    """
    d, p1, p2, q = dec.D(lam), dec.P1(lam), dec.P2(lam), dec.Q(lam)
    scale = max(abs(d), abs(p1), abs(p2), abs(q), 1.0)
    br = CurveBranch(kind=kind, branch="graph", parameter_name="rho2")
    rho2_grid = np.asarray(rho2_grid, float)
    prev_ok = None
    for r2 in rho2_grid:
        den = p1 + r2 * q
        if abs(den) <= 1e-12 * scale * max(1.0, abs(r2)):
            if prev_ok is not None:
                br.gaps.append((prev_ok, float(r2)))
            prev_ok = None
            continue
        r1 = -(d + r2 * p2) / den
        br.points.append(CurvePoint(kind, "graph", float(r2), float(r1), float(r2)))
        prev_ok = float(r2)
    return br


def zero_curve(dec: AKDecomposition, rho2_grid) -> CurveBranch:
    """Stationary-instability boundary: zero held as an eigenvalue."""
    return constant_eigenvalue_curve(dec, 0.0, rho2_grid, kind="zero")


# ---------------------------------------------------------------------------
# envelope


def _envelope_rows(dec: AKDecomposition, lam: float):
    a = np.array([dec.D(lam), dec.P1(lam), dec.P2(lam), dec.Q(lam)])
    b = np.array(
        [
            dec.D.deriv()(lam),
            dec.P1.deriv()(lam),
            dec.P2.deriv()(lam),
            dec.Q.deriv()(lam),
        ]
    )
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
    """'+' and '-' branches of the bilinear system rows(dec, t) over a grid.

    '+' takes the larger rho1 at each grid value; intervals without a real
    solution are recorded as gaps on both branches.
    """
    plus = CurveBranch(kind=kind, branch="+", parameter_name=parameter_name)
    minus = CurveBranch(kind=kind, branch="-", parameter_name=parameter_name)
    prev_ok = None
    for t in np.asarray(grid, float):
        try:
            sols = solve_bilinear_rows(*rows(dec, t))
        except DegenerateCurveError:
            sols = []
        if not sols:
            if prev_ok is not None:
                for br in (plus, minus):
                    br.gaps.append((prev_ok, float(t)))
            prev_ok = None
            continue
        if len(sols) == 1:
            sols = [sols[0], sols[0]]
        lo, hi = sorted(sols, key=lambda s: s[0])
        plus.points.append(CurvePoint(kind, "+", float(t), hi[0], hi[1]))
        minus.points.append(CurvePoint(kind, "-", float(t), lo[0], lo[1]))
        prev_ok = float(t)
    return [plus, minus]


def envelope_q_zero(dec: AKDecomposition, lam: float):
    """Envelope point when Q vanishes identically (rank-one-like coupling).

    With Q = 0 the system F = F' = 0 is linear; by Cramer's rule
      rho1 = (P2 ^ D) / (P1 ^ P2),  rho2 = -(P1 ^ D) / (P1 ^ P2)
    where ^ is the derivative wedge f g' - f' g evaluated at lambda.
    """
    w12 = poly_wronskian(dec.P1, dec.P2)(lam)
    if w12 == 0.0:
        raise DegenerateCurveError("P1 ^ P2 vanishes at this lambda")
    r1 = poly_wronskian(dec.P2, dec.D)(lam) / w12
    r2 = -poly_wronskian(dec.P1, dec.D)(lam) / w12
    return float(r1), float(r2)


# ---------------------------------------------------------------------------
# genericity and singular pieces


def genericity_check(dec: AKDecomposition, lam: float, rank_tol: float = 1e-9) -> str:
    """Classify the envelope system at lambda.

    Returns one of:
      'generic'       - the two-row system has full rank in (P1, P2, Q)
      'inconsistent'  - F = F' = 0 has no solution at this lambda
      'C1'            - both rows of (D, P1, P2, Q) are dependent (the
                        derivative condition is vacuous; the zero set of F
                        itself is the singular piece)
      'C2'            - P2 proportional to Q with matching D, P1 relations
      'C3'            - mirror of C2 with the roles of P1 and P2 swapped
    """
    a, b = _envelope_rows(dec, lam)
    M3 = np.vstack([a[1:], b[1:]])
    M4 = np.vstack([a, b])

    def rank(M):
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > rank_tol * max(s[0], 1.0)))

    r3, r4 = rank(M3), rank(M4)
    if r4 < 2:
        return "C1"
    if r3 < r4:
        return "inconsistent"

    w = lambda f, g: poly_wronskian(f, g)(lam)
    scale = max(dec.D.norm, dec.P1.norm, dec.P2.norm, dec.Q.norm, 1.0) ** 2
    tol = rank_tol * scale
    if (
        abs(w(dec.P1, dec.Q)) > tol
        and abs(w(dec.P2, dec.Q)) <= tol
        and abs(w(dec.D, dec.P1)) <= tol
        and abs(w(dec.P1, dec.P2) - w(dec.D, dec.Q)) <= tol
    ):
        return "C2"
    if (
        abs(w(dec.P2, dec.Q)) > tol
        and abs(w(dec.P1, dec.Q)) <= tol
        and abs(w(dec.D, dec.P2)) <= tol
        and abs(w(dec.P1, dec.P2) - w(dec.D, dec.Q)) <= tol
    ):
        return "C3"
    return "generic"


def singular_piece(dec: AKDecomposition, lam: float, tol: float = 1e-9):
    """Line decomposition of F(lambda; .) = 0 at a degenerate lambda.

    When the derivative row vanishes identically the zero set of the bilinear
    form is itself a curve component.  It splits into the two axis-parallel
    lines rho1 = -P2/Q and rho2 = -P1/Q exactly when D Q = P1 P2 at lambda.
    Returns a dict with the two line levels, or raises if the form is
    irreducible (a genuine hyperbola) or Q vanishes.
    """
    d, p1, p2, q = dec.D(lam), dec.P1(lam), dec.P2(lam), dec.Q(lam)
    scale = max(abs(d), abs(p1), abs(p2), abs(q), 1.0)
    if abs(q) <= tol * scale:
        raise DegenerateCurveError("singular piece needs Q(lambda) != 0")
    if abs(d * q - p1 * p2) > tol * scale**2:
        raise DegenerateCurveError(
            "bilinear form does not factor into lines at this lambda"
        )
    return {"rho1_line": float(-p2 / q), "rho2_line": float(-p1 / q)}


# ---------------------------------------------------------------------------
# Hopf curve


def _hopf_rows(dec: AKDecomposition, omega: float):
    z = 1j * omega
    a = np.array([dec.D(z).real, dec.P1(z).real, dec.P2(z).real, dec.Q(z).real])
    b = np.array([dec.D(z).imag, dec.P1(z).imag, dec.P2(z).imag, dec.Q(z).imag])
    return a, b


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

    Happens for decompositions with an exact exchange symmetry; the triple
    locus is then a continuum and needs problem-specific treatment.
    """


def _envelope_discriminant(dec: AKDecomposition) -> Poly:
    w = poly_wronskian
    t = w(dec.P1, dec.P2) - w(dec.D, dec.Q)
    return t * t - 4.0 * w(dec.D, dec.P1) * w(dec.P2, dec.Q)


def _triple_newton(dec: AKDecomposition, lam, rho1, rho2, iters: int = 40):
    """Polish (lambda, rho1, rho2) on F = F' = F'' = 0 by damped Newton."""
    scale = max(dec.D.norm, dec.P1.norm, dec.P2.norm, dec.Q.norm, 1.0)
    x = np.array([lam, rho1, rho2], float)
    for _ in range(iters):
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


def triple_points(
    dec: AKDecomposition,
    lam_window: tuple[float, float],
    cluster_tol: float = 1e-3,
    rcond: float = 1e-8,
):
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
    pad = cluster_tol * max(1.0, abs(lo), abs(hi))
    real = sorted(
        float(r.real)
        for r in roots
        if abs(r.imag) <= cluster_tol * max(1.0, abs(r))
        and lo - pad <= r.real <= hi + pad
    )
    cands: list[list[float]] = []
    for r in real:
        if cands and abs(r - cands[-1][-1]) <= cluster_tol * max(1.0, abs(r)):
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
        rank = int(np.sum(s > rcond * max(s[0], 1.0)))
        starts = []
        if rank == 3:
            x = np.linalg.solve(A, rhs)
            scale = max(1.0, abs(x[0]), abs(x[1]), abs(x[2]))
            if abs(x[0] * x[1] - x[2]) <= 1e-4 * scale:
                starts.append((x[0], x[1]))
        elif rank == 2:
            x0, *_ = np.linalg.lstsq(A, rhs, rcond=rcond)
            _, _, Vt = np.linalg.svd(A)
            nv = Vt[-1]
            # (x0 + t n) must satisfy x1 x2 = x3: quadratic in t
            qa = nv[0] * nv[1]
            qb = x0[0] * nv[1] + x0[1] * nv[0] - nv[2]
            qc = x0[0] * x0[1] - x0[2]
            try:
                ts = _real_quadratic_roots(qa, qb, qc, 1e-14 * max(1.0, abs(qa)))
            except DegenerateCurveError:
                ts = []
            for t in ts:
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
