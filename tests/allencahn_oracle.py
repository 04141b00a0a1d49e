"""Oracles for the Allen-Cahn tests that the library itself does not use.

perturbed_eigs_near finds eigenvalues of Htilde_rho by ARPACK shift-invert,
and direct_inner solves H y = 1 with a sparse LU and exact residuals.  Both
routes are independent of the inertia counts and banded solves with which
allencahn.stability_index decides the index.  lame_spectrum gives the five
explicit top eigenpairs of H for the cubic front, and restricted_matrix the
perturbed operator on span{1, sn^2}, whose nonzero eigenvalue is
allencahn.lambda1.  tau_richardson takes the derivatives of the period
integrals by finite differences, apart from period_jet's exact Jacobian.
descending_period_jet is period_jet as it was when it evaluated descending
coefficient lists with a Horner loop of its own, before kernel.horner.
banded_solve is DiscretizedOperator.solve through scipy's solve_banded, the
route whose bits the direct gtsv call keeps.  eigvals_turning_points is
turning_points through np.linalg.eigvals, and four_count_stability_index
stability_index with one Sturm count more: the routes whose results the
direct geev call and the three-count index keep.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from spectral_atlas.allencahn import (
    DiscretizedOperator,
    IndeterminateIndexError,
    PoleProximityError,
    TurningPointError,
    _gauss_rule,
    _Q_coef,
    period_jet,
    turning_points,
)
from spectral_atlas.kernel import Poly, derivative, elliptic_K_E, horner, jacobi_sn_cn_dn

from kernel_oracle import poly_roots


def perturbed_eigs_near(
    op: DiscretizedOperator, rho: float, sigma: float, k: int = 2
) -> np.ndarray:
    """The k eigenvalues of Htilde closest to sigma.

    Shift-invert through the Woodbury identity: (H - sigma) is a banded
    solve and the rank-one feedback costs two extra solves, so the whole
    inverse application stays O(n).
    """
    c = rho * op.h / (2.0 * op.L)
    ones = np.ones(op.n)
    y_ones = op.solve(ones, sigma)
    denom = 1.0 - c * (op.fp @ y_ones)
    if abs(denom) < 1e-14:
        raise PoleProximityError("shift sits on a perturbed eigenvalue")

    # Woodbury: (A - c u v^T)^{-1} b = y + y_u * c (v.y) / (1 - c v.y_u)
    def apply_inv(b):
        y = op.solve(b, sigma)
        return y + y_ones * (c * (op.fp @ y) / denom)

    def matvec(v):
        return (
            op.diag * v
            + np.concatenate([op.off * v[1:], [0.0]])
            + np.concatenate([[0.0], op.off * v[:-1]])
            - c * ones * (op.fp @ v)
        )

    A = scipy.sparse.linalg.LinearOperator((op.n, op.n), matvec=matvec)
    Minv = scipy.sparse.linalg.LinearOperator(
        (op.n, op.n), matvec=apply_inv
    )
    vals = scipy.sparse.linalg.eigs(
        A, k=k, sigma=sigma, OPinv=Minv, return_eigenvectors=False
    )
    return vals


def direct_inner(op: DiscretizedOperator) -> float:
    """<1, H^{-1} 1> by spsolve and two steps of iterative refinement.

    Near a zero eigenvalue H is ill-conditioned (about 5e9 at k = 0.98 and
    n = 4000), where a plain double-precision LU solve is off by 1e-8
    relative.  The residual 1 - H y of each refinement step is computed
    exactly in rationals, which brings y to full double precision.
    """
    H = scipy.sparse.diags([op.off, op.diag, op.off], [-1, 0, 1], format="csc")
    diag = [Fraction(v) for v in op.diag.tolist()]
    # a zero appended to off and to y stands for the missing neighbour of
    # both end rows (index n - 1 on the right, index -1 on the left)
    off = [Fraction(v) for v in op.off.tolist()] + [Fraction(0)]
    y = scipy.sparse.linalg.spsolve(H, np.ones(op.n))
    for _ in range(2):
        yf = [Fraction(v) for v in y.tolist()] + [Fraction(0)]
        res = [
            1 - diag[i] * yf[i] - off[i] * yf[i + 1] - off[i - 1] * yf[i - 1]
            for i in range(op.n)
        ]
        y = y + scipy.sparse.linalg.spsolve(H, np.array([float(r) for r in res]))
    return float(op.h * np.sum(y))


def lame_spectrum(k: float):
    """The five explicit top eigenpairs of H = d_xx + (1+k^2) - 6 k^2 sn^2.

    Returns (eigenvalue, eigenfunction, bc) triples ordered by decreasing
    eigenvalue; bc records whether the mode satisfies a Neumann or a
    Dirichlet condition at +-K(k).
    """
    if not 0.0 < k < 1.0:
        raise ValueError("elliptic modulus must lie in (0,1)")
    a = float(np.sqrt(1.0 - k**2 + k**4))
    k2 = k * k

    def sn2_shift(shift):
        def phi(x):
            sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, float), k)
            return k2 * sn**2 - shift
        return phi

    def cn_dn(x):
        _, cn, dn = jacobi_sn_cn_dn(np.asarray(x, float), k)
        return cn * dn

    def sn_dn(x):
        sn, _, dn = jacobi_sn_cn_dn(np.asarray(x, float), k)
        return sn * dn

    def cn_sn(x):
        sn, cn, _ = jacobi_sn_cn_dn(np.asarray(x, float), k)
        return cn * sn

    return [
        (-(1.0 + k2 - 2.0 * a), sn2_shift((1.0 + k2 + a) / 3.0), "N"),
        (0.0, cn_dn, "D"),
        (-3.0 * k2, sn_dn, "N"),
        (-3.0, cn_sn, "D"),
        (-(1.0 + k2 + 2.0 * a), sn2_shift((1.0 + k2 - a) / 3.0), "N"),
    ]


def restricted_matrix(k: float):
    """Perturbed operator restricted to span{1, sn^2} (the even Neumann pair).

    Returns (2x2 matrix, eigenvalues); the eigenvalues are exactly
    {0, lambda1(k)}: the zero comes from mass conservation along the family
    of stationary profiles.
    """
    (K, E), k2 = elliptic_K_E(k), k * k
    M = np.array(
        [
            [6.0 * (K - E) / K, 3.0 * (1.0 + k2) * (K - E) / (k2 * K)],
            [-6.0 * k2, -3.0 * (1.0 + k2)],
        ]
    )
    return M, np.linalg.eigvals(M)


def tau_richardson(F, E_const: float, kappa: float) -> float:
    """(M_E P_k - M_k P_E) / (R_E P_k - R_k P_E): dM/dR along the family.

    Central differences with one step of Richardson refinement; the sign of
    tau reproduces the sign of <1, H^{-1} 1> (they differ by the positive
    factor 2L).
    """

    def vals(E, k):
        return np.array(period_jet(F, E, k)[1])

    def partials(step):
        dE = (vals(E_const + step, kappa) - vals(E_const - step, kappa)) / (
            2.0 * step
        )
        dk = (vals(E_const, kappa + step) - vals(E_const, kappa - step)) / (
            2.0 * step
        )
        return dE, dk

    h0 = 1e-5 * max(1.0, abs(E_const), abs(kappa))
    dE1, dk1 = partials(h0)
    dE2, dk2 = partials(h0 / 2.0)
    P_E, M_E, R_E = (4.0 * dE2 - dE1) / 3.0
    P_k, M_k, R_k = (4.0 * dk2 - dk1) / 3.0
    den = R_E * P_k - R_k * P_E
    if abs(den) < 1e-12 * max(1.0, abs(M_E * P_k), abs(M_k * P_E)):
        raise ZeroDivisionError("fold of the family: dR/ds vanishes")
    return float((M_E * P_k - M_k * P_E) / den)


def _horner_desc(c, x):
    y = 0.0
    for a in c:
        y = y * x + a
    return y


def _deriv_desc(c):
    n = len(c) - 1
    return [(n - i) * a for i, a in enumerate(c[:-1])]


def descending_period_jet(F, E_const: float, kappa: float):
    """period_jet's ((mu_-, mu_+), (P, M, R), J) on descending lists."""
    mu_m, mu_p = turning_points(F, E_const, kappa)
    c = _Q_coef(F, E_const, kappa)[::-1]
    dq = _deriv_desc(c)
    dc = [(0.0, 0.0)] * len(c)
    dc[-1], dc[-2] = (2.0, 0.0), (0.0, 2.0)
    dmu = []
    for r in (mu_m, mu_p):
        slope = _horner_desc(dq, r)
        dr = (-2.0 / slope, -2.0 * r / slope)
        dmu.append(dr)
        for i in range(1, len(c)):
            c[i] += r * c[i - 1]
            dc[i] = tuple(a + b * c[i - 1] + r * e for a, b, e in zip(dc[i], dr, dc[i - 1]))
        c.pop()
        dc.pop()
    w, s2 = _gauss_rule(200)
    u = mu_m + (mu_p - mu_m) * s2
    W = -_horner_desc(c, u)
    base = 2.0 / np.sqrt(W)
    f = _deriv_desc(F.coef.tolist()[::-1])
    fu = _horner_desc(f, u)
    P = float(w @ base)
    M = float(w @ (base * u))
    R = float(w @ (base * fu))
    dm, dp = np.array(dmu)
    du = s2[:, None] * (dp - dm) + dm
    dW = -(_horner_desc(np.array(dc), u[:, None]) + _horner_desc(_deriv_desc(c), u)[:, None] * du)
    wb = w * base
    wh = 0.5 * wb / W
    J = -(np.array([wh, wh * u, wh * fu]) @ dW)
    J[1:] += np.array([wb, wb * _horner_desc(_deriv_desc(f), u)]) @ du
    return (mu_m, mu_p), (P, M, R), J


def banded_solve(op: DiscretizedOperator, b, shift: complex = 0.0) -> np.ndarray:
    """(H - shift I)^{-1} b through scipy.linalg.solve_banded's (1, 1) band."""
    ab = np.zeros((3, op.n), np.result_type(float, shift))
    ab[0, 1:] = op.off
    ab[1] = op.diag - shift
    ab[2, :-1] = op.off
    return scipy.linalg.solve_banded((1, 1), ab, b)


def eigvals_turning_points(F, E_const: float, kappa: float):
    """turning_points with Q's roots from np.linalg.eigvals on the companion
    matrix (kernel_oracle.poly_roots), failures worded as turning_points
    words them."""
    where = f" at E = {E_const!r}, kappa = {kappa!r}"
    q = _Q_coef(F, E_const, kappa)
    if q[0] <= 0.0:
        raise TurningPointError("no admissible interval: Q(0) <= 0" + where)
    lead = next(a for a in reversed(q) if a != 0.0)
    if not all(np.isfinite(a / lead) for a in q):
        raise TurningPointError("Q's monic coefficients are not finite" + where)
    real = [z.real for z in poly_roots(q).tolist() if z.imag == 0.0]
    below = [r for r in real if r < 0.0]
    above = [r for r in real if r > 0.0]
    if not (below and above):
        raise TurningPointError("no turning point on one side of 0" + where)
    mu = (max(below), min(above))
    tol = 1e-6 * max(1.0, abs(E_const), abs(kappa))
    if min(abs(horner(derivative(q), r)) for r in mu) < tol:
        raise TurningPointError("turning point is not simple (separatrix)" + where)
    return mu


def four_count_stability_index(op: DiscretizedOperator, rho: float = 1.0) -> dict:
    """stability_index as it was when two counts, (1, 2||H||_inf] and
    (-1, 2||H||_inf], placed lambda_max before tol was set, and a fourth
    counted n_plus(H) after the check at 0."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("need rho in (0,1]")
    above = 2.0 * op.norm
    if op.count_eigvals(1.0, above) == 0 and op.count_eigvals(-1.0, above) > 0:
        top = 1.0
    else:
        top = max(1.0, abs(op._ends[1]))
    tol = max(1e-9 * top, 8.0 * np.finfo(float).eps * op.norm)
    if op.count_eigvals(-tol, tol) > 0:
        raise IndeterminateIndexError(
            f"H has an eigenvalue within {tol:.3g} of 0; index not decided"
        )
    n_plus_H = op.count_eigvals(tol, above)
    ones = np.ones(op.n)
    y = op.solve(ones)
    inner = float(op.h * (ones @ y))
    if rho < 1.0:
        return {
            "n_plus_H": n_plus_H,
            "inner": inner,
            "n_plus_perturbed": n_plus_H,
            "has_kernel": False,
        }
    if abs(inner) < 1e-10 * max(1.0, 2.0 * op.L):
        raise IndeterminateIndexError(
            "<1, H^{-1} 1> is numerically zero; index not decided"
        )
    s_neg = [np.sum(op.solve(ones, mu)) < 0.0 for mu in (tol, -tol)]
    others = int(s_neg[1]) - int(s_neg[0])
    g0 = 1.0 - op.h * (op.fp @ y) / (2.0 * op.L)
    return {
        "n_plus_H": n_plus_H,
        "inner": inner,
        "n_plus_perturbed": n_plus_H - (1 if inner > 0 else 0),
        "has_kernel": bool(others == 0 and abs(2.0 * op.L * g0 / inner) < tol),
    }
