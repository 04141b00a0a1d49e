"""Curves in the (rho1, rho2) parameter plane of a perturbed eigenproblem.

Everything here works off the four-polynomial decomposition
F(lambda; rho1, rho2) = D + rho1 P1 + rho2 P2 + rho1 rho2 Q.  For a fixed
lambda (or a fixed imaginary pair +-i omega) the eigenvalue condition is
bilinear in (rho1, rho2); curves are traced by sweeping the spectral
parameter and solving the resulting one- or two-row bilinear systems.
Triple points are the cusps of the envelope, found on its sweep.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .kernel import Poly, derivative, horner  # noqa: F401  (the benchmark builds with curves.Poly)
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


@dataclass(eq=False)
class CurveBranch:
    """One curve branch: its kept grid values as three float columns, and
    the gaps of the sweep."""

    kind: str
    branch: str
    parameter_name: str
    parameter: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    gaps: list[tuple[float, float]] = field(default_factory=list)

    @property
    def points(self) -> list[CurvePoint]:
        """The kept grid values as CurvePoints, built from the columns."""
        return [
            CurvePoint(self.kind, self.branch, *v)
            for v in zip(self.parameter.tolist(), self.rho1.tolist(), self.rho2.tolist())
        ]


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
        head = f"{br.kind},{br.branch},"
        cols = (br.parameter.tolist(), br.rho1.tolist(), br.rho2.tolist())
        buf.writelines(f"{head}{t!r},{r1!r},{r2!r}\n" for t, r1, r2 in zip(*cols))
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
    gaps = gap_intervals(t, kept, breaks)
    return CurveBranch(kind, branch, parameter_name, t[kept], rho1[kept], rho2[kept], gaps)


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


def _jet(dec: AKDecomposition, order: int) -> np.ndarray:
    """Ascending coefficients of D, P1, P2, Q and of their first `order`
    derivatives: shape (m, 4 (order + 1)), the derivative order outermost.
    Every row of the split that a curve reads is evaluated from these columns."""
    polys = (dec.D, dec.P1, dec.P2, dec.Q)
    m = max(p.coef.size for p in polys)
    jet = np.zeros((m, order + 1, 4))
    for k, p in enumerate(polys):
        jet[: p.coef.size, 0, k] = p.coef
    for k in range(order):
        jet[: max(m - 1, 1), k + 1] = derivative(jet[:, k])
    return jet.reshape(m, -1)


def _values(c, t, name: str = "lambda", imaginary: bool = False):
    """The columns of c, ascending in lambda, at lambda = t (i t if imaginary),
    shape (columns,) + t.shape.  FloatingPointError names the first value of
    the parameter t, called name, at which the split is not finite."""
    t = np.asarray(t, float)
    with np.errstate(over="ignore", invalid="ignore"):
        v = horner(c.reshape(c.shape + (1,) * t.ndim), 1j * t if imaginary else t)
    bad = ~np.isfinite(v.reshape(len(v), -1)).all(axis=0)
    if bad.any():
        at = float(t.flat[bad.argmax()])
        raise FloatingPointError(f"the split overflows at {name} = {at!r}")
    return v


# ---------------------------------------------------------------------------
# constant-eigenvalue (zero-set) curves


def graph_rho1(dec: AKDecomposition, lam: float, rho2):
    """rho1 = -(D + rho2 P2) / (P1 + rho2 Q) at lambda, for a scalar or array rho2.

    Returns (rho1, kept, den): kept is False at a pole of the graph, where
    the denominator den = dF/drho1 vanishes to within 1e-12 of the
    polynomial values (relative to rho2 as well); rho1 is inf or nan there.
    This is the one pole rule of every constant-eigenvalue graph.
    """
    d, p1, p2, q = _values(_jet(dec, 0), lam)
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
    v = _values(_jet(dec, 1), lam).T
    return v[..., :4], v[..., 4:]


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
    d, p1, p2, q = _values(_jet(dec, 0), lam)
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
    v = _values(_jet(dec, 0), omega, "omega", imaginary=True).T
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
    """The envelope system F = F' = 0 is degenerate at every lambda of the
    window, so no envelope branch has cusps; as on a rank-one problem."""


# triple_points: lambdas of the envelope sweep over the window; parts each
# bracket is cut into per refinement step; singular values of the linear
# screen below this relative size are zero
TRIPLE_GRID = 2001
TRIPLE_SPLIT = 16
RANK_RCOND = 1e-8


def _cusp_function(jet, lam):
    """h = F''(lambda; rho) / (1 + |rho|^2) at both envelope points rho.

    The envelope points solve F = F' = 0, in ascending rho1 (a single one
    is both).  The divisor keeps the zeros of F'' and makes a pole of rho,
    where F'' changes sign through infinity, a zero too.  Returns (h, size,
    degenerate): h and size = max(|rho1|, |rho2|) per lambda and point, nan
    where there is none, and the rows the bilinear solver cannot solve.
    """
    rows = _values(jet, lam).reshape(3, 4, -1)  # F, F', F''; lambda last
    sol, count, degenerate = _solve_rows(rows[0].T, rows[1].T)
    sol[count == 0] = np.nan
    r1, r2 = sol[..., 0], sol[..., 1]
    c0, c1, c2, c3 = rows[2, :, :, None]
    with np.errstate(invalid="ignore", over="ignore"):
        h = (c0 + c1 * r1 + c2 * r2 + c3 * r1 * r2) / (1.0 + r1 * r1 + r2 * r2)
    return h, np.max(np.abs(sol), axis=-1), degenerate


def _triple_screen(rows):
    """Candidates (lane, rho1, rho2) for F = F' = F'' = 0, linear in
    x = (rho1, rho2, rho1 rho2): at full rank the solution if x3 = x1 x2 to
    within 1e-4, at rank two the points of the line of solutions where
    x3 = x1 x2, at a lower rank none."""
    U, s, Vt = np.linalg.svd(rows[:, :, 1:])
    keep = s > RANK_RCOND * np.maximum(s[:, :1], 1.0)
    rank = keep.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.where(keep, np.einsum("kji,kj->ki", U, -rows[:, :, 0]) / s, 0.0)
    x = np.einsum("kji,kj->ki", Vt, y)  # least squares on the kept singular values
    scale = np.maximum(1.0, np.max(np.abs(x), axis=1))
    full = (rank == 3) & (np.abs(x[:, 0] * x[:, 1] - x[:, 2]) <= 1e-4 * scale)
    v = Vt[:, 2]  # the line x + t v: x1 x2 = x3 is a quadratic in t
    qa = v[:, 0] * v[:, 1]
    qb = x[:, 0] * v[:, 1] + x[:, 1] * v[:, 0] - v[:, 2]
    qc = x[:, 0] * x[:, 1] - x[:, 2]
    t, count, _ = _real_quadratic_roots(qa, qb, qc, 1e-14 * np.maximum(1.0, np.abs(qa)))
    count = np.where(rank == 2, count, 0)
    lane = np.concatenate([np.flatnonzero(m) for m in (full, count > 0, count > 1)])
    t = np.concatenate([np.zeros(full.sum()), t[count > 0, 0], t[count > 1, 1]])
    rho = x[lane, :2] + t[:, None] * v[lane, :2]
    return lane, rho[:, 0], rho[:, 1]


def _sign_changes(h0, h1):
    """Sign changes from h0 to h1: a zero counts as negative, nan brackets nothing."""
    return ((h0 <= 0.0) != (h1 <= 0.0)) & ~np.isnan(h0 + h1)


def _refine(h, a, b, ha, hb, sa, sb):
    """Narrow the brackets (a, b) of zeros of a scalar swept along a branch, in
    place, and return the regula falsi points of the final brackets.

    h(t, live) gives the scalar and the size of rho at the points t, one row
    of t per live bracket, whose indices into a and b are live; ha, hb are
    the scalar at the ends and sa, sb the sizes there.  Each step evaluates
    every live bracket in one call: at the points that cut it into
    TRIPLE_SPLIT parts, and at its regula falsi point x and x +- d for d from
    a TRIPLE_SPLIT**2-th of the bracket down to tol/2, TRIPLE_SPLIT-fold
    apart.  The first part on which the scalar changes sign is kept.  Where
    it is smooth it hugs the zero and x converges superlinearly; where only
    its sign is reliable it is a cut wide.  A bracket is done when narrower
    than tol = 1e-10 max(1, |x|), and dropped when no part changes sign or
    when rho at an end of the part kept is over twice its size at the
    bracket's ends: on the envelope rho runs off to a pole there, while at a
    cusp rho' = 0.  Sizes that are all zero turn that test off, as they must
    where rho diverges at the zeros sought.
    """
    cuts = np.arange(1, TRIPLE_SPLIT) / TRIPLE_SPLIT
    rungs = float(TRIPLE_SPLIT) ** -np.arange(2, 11)
    live = np.arange(a.size)
    while live.size:
        al, bl, hal, hbl = a[live], b[live], ha[live], hb[live]
        x = bl - hbl * (bl - al) / (hbl - hal)
        tol = 1e-10 * np.maximum(1.0, np.abs(x))
        d = np.maximum((bl - al)[:, None] * rungs, tol[:, None] / 2)
        t = al[:, None] + (bl - al)[:, None] * cuts
        t = np.column_stack([t, x[:, None] - d, x, x[:, None] + d])
        t = np.sort(np.clip(t, al[:, None], bl[:, None]), axis=1)
        ht, st = h(t, live)
        ht = np.column_stack([hal, ht, hbl])
        st = np.column_stack([sa[live], st, sb[live]])
        t = np.column_stack([al, t, bl])
        change = _sign_changes(ht[:, :-1], ht[:, 1:])
        r, k = np.arange(live.size), np.argmax(change, axis=1)
        kept = (t[r, k], t[r, k + 1], ht[r, k], ht[r, k + 1], st[r, k], st[r, k + 1])
        runs_off = np.maximum(kept[4], kept[5]) > 2.0 * np.maximum(sa[live], sb[live])
        ok = change.any(axis=1) & ~runs_off
        live, open_ = live[ok], (kept[1] - kept[0] > tol)[ok]
        a[live], b[live], ha[live], hb[live], sa[live], sb[live] = (e[ok] for e in kept)
        live = live[open_]
    return b - hb * (b - a) / (hb - ha)


def triple_points(dec: AKDecomposition, lam_window: tuple[float, float]):
    """Parameter points where lambda is a triple eigenvalue.

    A triple point is a cusp of the envelope, where F'' vanishes along a
    branch rho(lambda) of F = F' = 0.  The envelope sweep over TRIPLE_GRID
    lambdas spanning the window brackets every sign change of h
    (_cusp_function) on each of its two branches, and _refine narrows all
    brackets in the same batched calls.  At each refined lambda the linear
    screen gives (rho1, rho2), and a point is kept when F, F' and F'' there
    are below 1e-8 of the sum of the magnitudes of their terms; that also
    rejects what is left of the sign changes that are no zeros.  Two triple
    points less than a grid step apart on one branch cancel in the sign test.

    Returns dicts with keys 'lam', 'rho1', 'rho2' in ascending lambda.
    SymmetricDegeneracyError when the envelope system is degenerate at every
    grid lambda, as on a rank-one problem.
    """
    lo, hi = lam_window
    jet = _jet(dec, 2)
    lam = np.linspace(lo, hi, TRIPLE_GRID)
    h, size, degenerate = _cusp_function(jet, lam)
    if degenerate.all():
        raise SymmetricDegeneracyError(
            "the envelope system is degenerate at every lambda, "
            "as on a rank-one problem (P2 = Q = 0)"
        )
    # where the two points swap their rho1 order, h jumps from one to the
    # other: the pair is continuous crosswise, and the sign change no zero
    straight = np.abs(h[1:] - h[:-1]).sum(axis=1, keepdims=True)
    crossed = np.abs(h[1:, ::-1] - h[:-1]).sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        flips = (np.sign(h[:-1]) * np.sign(h[1:]) < 0) & ~(crossed < 0.5 * straight)
    i, branch = np.nonzero(flips)
    a, b, ha, hb = lam[i], lam[i + 1], h[i, branch], h[i + 1, branch]

    def cusp(t, live):
        # h and the size on each bracket's own branch
        ht, st, _ = _cusp_function(jet, t.ravel())
        pick = (np.arange(live.size)[:, None], np.arange(t.shape[1]), branch[live, None])
        return ht.reshape(t.shape + (2,))[pick], st.reshape(t.shape + (2,))[pick]

    x = _refine(cusp, a, b, ha, hb, size[i, branch], size[i + 1, branch])

    rows = _values(jet, x).reshape(3, 4, -1)
    lane, r1, r2 = _triple_screen(rows.transpose(2, 0, 1))
    lam = x[lane]
    mono = np.array([np.ones_like(r1), r1, r2, r1 * r2])
    res = np.einsum("ikm,km->im", rows[..., lane], mono)
    terms = _values(np.abs(jet), np.abs(lam)).reshape(3, 4, -1)
    terms = np.einsum("ikm,km->im", terms, np.abs(mono))
    keep = np.all(np.abs(res) <= 1e-8 * terms, axis=0) & (lo <= lam) & (lam <= hi)
    out = []
    for p in sorted(zip(lam[keep].tolist(), r1[keep].tolist(), r2[keep].tolist())):
        q = {"lam": p[0], "rho1": p[1], "rho2": p[2]}
        if all(max(abs(q[key] - o[key]) for key in q) > 1e-6 for o in out):
            out.append(q)
    return out
