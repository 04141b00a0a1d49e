"""Stability of fronts in a mass-conserving (nonlocal) Allen-Cahn equation.

The linearization about a stationary profile u is a rank-one perturbation of
the self-adjoint operator H v = v_xx + f'(u) v with Neumann ends:

    Htilde v = H v - (rho / 2L) <f'(u), v> 1,    rho = 1 physically.

Because H 1 = f'(u), Htilde = (I - (rho/2L) 1 <1, .>) H, and the perturbed
spectrum is controlled by H's and by the resolvent sum
s(lam) = (1/2L) <1, (H - lam)^{-1} 1>: eigenvalues are real for rho in [0,1]
(a Herglotz argument), for rho < 1 Htilde has H's inertia (Sylvester's law),
a kernel appears only at rho = 1, and there the positive-eigenvalue count
drops by one exactly when <1, H^{-1} 1> > 0.  For the cubic
f(u) = (1+k^2)u - 2k^2 u^3 the front is sn(x,k) on [-K(k), K(k)] and
everything is explicit through the two-gap Lame spectrum.  A one-parameter
family of stationary profiles (parametrized by mass) gives an equivalent
criterion through period-type integrals P, M, R of the quadrature; F is a
polynomial there, so the turning points are roots of Q and the quadrature
divides them out exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .kernel import Poly, derivative, elliptic_K_E, horner, jacobi_sn_cn_dn


class IndeterminateIndexError(ArithmeticError):
    """H is numerically singular, or <1, H^{-1} 1> is numerically zero at
    rho = 1: the index count is not decided."""


class PoleProximityError(ArithmeticError):
    """Requested evaluation point sits on (or next to) a spectral pole."""


class TurningPointError(ValueError):
    """The turning points of the period quadrature are missing or not simple."""


class FamilyCorrectorError(ArithmeticError):
    """The family trace cannot go on: the corrector did not bring the period
    back to its start value, or the period gradient vanished."""


@dataclass(frozen=True)
class CubicFront:
    """sn(x,k) front of the cubic nonlinearity on [-K(k), K(k)]."""

    k: float
    K: float

    @classmethod
    def from_k(cls, k: float) -> "CubicFront":
        if not 0.0 < k < 1.0:
            raise ValueError("elliptic modulus must lie in (0,1)")
        return cls(k=float(k), K=elliptic_K_E(k)[0])

    def profile(self, x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, float), self.k)
        return sn

    @functools.cached_property
    def F(self) -> Poly:
        """(1+k^2) u^2/2 - k^2 u^4/2, the potential of f."""
        k2 = self.k**2
        return Poly([0.0, 0.0, 0.5 * (1.0 + k2), 0.0, -0.5 * k2])

    def f_prime(self, u):
        u = np.asarray(u, float)
        return (1.0 + self.k**2) - 6.0 * self.k**2 * u**2


def lambda1(k: float) -> float:
    """((3-3k^2)K - 6E)/K: the nonzero eigenvalue of the perturbed operator
    restricted to span{1, sn^2}, the even Neumann pair.

    Strictly negative on [0,1): the front is spectrally stable against
    mass-conserving perturbations.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("need k in [0,1)")
    if k == 0.0:
        return -3.0
    K, E = elliptic_K_E(k)
    return ((3.0 - 3.0 * k**2) * K - 6.0 * E) / K


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class DiscretizedOperator:
    """Second-order cell-centered discretization of H = d_xx + f'(u).

    Neumann ends enter through ghost-node reflection, which keeps the exact
    discrete identity H 1 = fp (row sums of the difference block vanish).
    Inner products carry the cell weight h.

    Immutable: the arrays are read-only, so what is computed from them is
    computed once, on first use, and shared by every later call.  The index
    and the pole guard ask only for eigenvalue counts (Sturm counts, O(n)
    each) and the row-sum norm, which bounds the spectrum; no eigenvalue is
    located unless its value is needed.
    """

    n: int
    h: float
    L: float
    fp: np.ndarray  # f'(u) at the cell centers
    diag: np.ndarray
    off: np.ndarray

    def matrix(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.off, 1)
            + np.diag(self.off, -1)
        )

    @functools.cached_property
    def _eigvals(self) -> np.ndarray:
        ev = scipy.linalg.eigvalsh_tridiagonal(self.diag, self.off)
        ev.flags.writeable = False
        return ev

    def eigvals(self) -> np.ndarray:
        """Ascending eigenvalues of H (read-only, computed once)."""
        return self._eigvals

    @functools.cached_property
    def norm(self) -> float:
        """||H||_inf, the largest row sum of |H|: the Gershgorin bound on
        |lambda|, O(n) and computed once."""
        rows = np.abs(self.diag)
        rows[:-1] += np.abs(self.off)
        rows[1:] += np.abs(self.off)
        return float(rows.max())

    @functools.cached_property
    def _ends(self) -> tuple[float, float]:
        """Lowest and highest eigenvalue of H, by bisection."""
        return tuple(
            float(
                scipy.linalg.eigvalsh_tridiagonal(
                    self.diag, self.off, select="i", select_range=(i, i)
                )[0]
            )
            for i in (0, self.n - 1)
        )

    def count_eigvals(self, lo: float, hi: float) -> int:
        """Number of eigenvalues of H in (lo, hi]; 0 when lo >= hi.

        A pure count: the Sturm counts of LAPACK's stebz at lo and hi, O(n)
        each.  Its tolerance is hi - lo, so the bisection stops after its
        first midpoint and locates no eigenvalue; the count itself comes from
        the Sturm counts and is exact whatever the tolerance.  stebz is called
        directly (range 1: by value), as eigvalsh_tridiagonal would call it
        without re-checking both arrays.  ValueError if an end is not finite.
        """
        for name, end in (("lo", lo), ("hi", hi)):
            if not math.isfinite(end):
                raise ValueError(f"interval end {name} = {end} is not finite")
        if lo >= hi:
            return 0
        d, e = self.diag, self.off
        m, _, _, _, info = scipy.linalg.lapack.dstebz(d, e, 1, lo, hi, 1, 1, hi - lo, "E")
        if info != 0:
            raise np.linalg.LinAlgError(f"stebz failed with info = {info} on ({lo}, {hi}]")
        return int(m)

    def eig(self):
        """Eigenvalues and Euclidean-orthonormal eigenvectors (columns)."""
        return scipy.linalg.eigh_tridiagonal(self.diag, self.off)

    def solve(self, b: np.ndarray, shift: complex = 0.0) -> np.ndarray:
        """(H - shift I)^{-1} b by LAPACK's tridiagonal gtsv, complex (zgtsv)
        for a complex shift or b.

        gtsv is called directly, as solve_banded would call it for this
        (1, 1) band, with the same bits.  ValueError if the shifted diagonal
        or b is not finite (the off-diagonal is finite when the diagonal is);
        LinAlgError if the matrix is singular (gtsv's info > 0).
        """
        d = self.diag - shift
        if not (np.isfinite(d).all() and np.isfinite(b).all()):
            raise ValueError("solve: the shifted diagonal or b is not finite")
        lapack = scipy.linalg.lapack
        gtsv = lapack.zgtsv if np.iscomplexobj(d) or np.iscomplexobj(b) else lapack.dgtsv
        x, info = gtsv(self.off, d, self.off, b, overwrite_d=1)[3:]
        if info != 0:
            raise np.linalg.LinAlgError(f"singular matrix: gtsv failed with info = {info}")
        return x

    def perturbed_matrix(self, rho: float) -> np.ndarray:
        """Htilde = H - (rho h / 2L) 1 fp^T (dense)."""
        A = self.matrix()
        A -= (rho * self.h / (2.0 * self.L)) * np.outer(
            np.ones(self.n), self.fp
        )
        return A


# most cells build_H_discrete assembles: each array of the operator, and
# each solve, takes 8 n bytes
MAX_CELLS = 10**6


def build_H_discrete(f_prime, L: float, n: int = 4000) -> DiscretizedOperator:
    """Assemble H on n cells of [-L, L]; f_prime is a callable of x or samples.

    ValueError, before anything is allocated, for n below 16 or above
    MAX_CELLS.
    """
    if n < 16:
        raise ValueError("grid too coarse")
    if n > MAX_CELLS:
        raise ValueError(f"n = {n} cells is over MAX_CELLS = {MAX_CELLS}")
    h = 2.0 * L / n
    x = -L + (np.arange(n) + 0.5) * h
    fp = np.array(f_prime(x) if callable(f_prime) else f_prime, float)
    if fp.shape != (n,):
        raise ValueError("f_prime samples must have length n")
    if not np.all(np.isfinite(fp)):
        raise ValueError("f_prime samples must be finite")
    diag = fp - 2.0 / h**2
    diag[0] += 1.0 / h**2  # ghost reflection at the ends
    diag[-1] += 1.0 / h**2
    off = np.full(n - 1, 1.0 / h**2)
    for arr in (fp, diag, off):
        arr.flags.writeable = False
    return DiscretizedOperator(n=n, h=h, L=L, fp=fp, diag=diag, off=off)


def cubic_operator(k: float, n: int = 4000) -> DiscretizedOperator:
    fr = CubicFront.from_k(k)

    def fprime_of_x(x):
        return fr.f_prime(fr.profile(x))

    return build_H_discrete(fprime_of_x, fr.K, n)


def inner_H_inv_one(op: DiscretizedOperator) -> float:
    """<1, H^{-1} 1> with the cell-weighted inner product, one banded solve.

    This is 2L s(0) for the resolvent sum s(lam) = (h/2L) 1^T (H - lam)^{-1} 1
    that herglotz_h evaluates.  H must be nonsingular; stability_index checks
    that by a Sturm count before it solves.
    """
    ones = np.ones(op.n)
    return float(op.h * (ones @ op.solve(ones)))


def stability_index(op: DiscretizedOperator, rho: float = 1.0) -> dict:
    """Positive-eigenvalue count of Htilde_rho from H's inertia and s(lam).

    Because H 1 = fp, Htilde_rho = S H with S = I - (rho h/2L) 1 1^T, and
    s(lam) = (h/2L) 1^T (H - lam)^{-1} 1 is one banded solve per lam.

    For rho in (0,1), S is positive definite, so Htilde_rho is similar to
    S^(1/2) H S^(1/2) and Sylvester's law of inertia gives n_plus(Htilde_rho)
    = n_plus(H) and no kernel.  At rho = 1, S projects onto 1-perp: Htilde_1
    has the eigenvalue 0 (eigenvector H^{-1} 1), which arrives from the right
    half-line exactly when <1, H^{-1} 1> > 0, so the count drops by one then.
    Its other eigenvalues are those of H compressed to 1-perp, which
    interlace H's: the compression has N(mu) - [s(mu) < 0] eigenvalues below
    mu, N(mu) being H's count.  has_kernel asks that it have none in
    (-tol, tol], and that the Newton estimate g(0)/g'(0) of the zero
    eigenvalue lie within tol of 0, where g(lam) = 1 - (h/2L) fp^T (H - lam)^{-1} 1
    and g'(0) = -<1, H^{-1} 1>/2L.

    Counts are Sturm counts and each s a banded solve, so the index costs
    O(n).  n_plus(H) counts eigenvalues above tol = max(1e-9 top,
    8 eps ||H||_inf) with top = max(1, |lambda_max|): the top of the spectrum
    sets the scale of the answer, the O(1/h^2) Laplacian tail in the row-sum
    norm only the rounding of the counts (stebz rounds on the same norm).
    Counts place lambda_max first: none in (1, 2||H||_inf] and some in
    (tol_1, 2||H||_inf], with tol_1 = max(1e-9, 8 eps ||H||_inf), put it in
    (tol_1, 1], so top = 1 and that second count is n_plus(H) (a front's
    index takes three counts in all); none above tol_1 but some above -1 put
    it in (-1, tol_1], top = 1 again.  Only a lambda_max above 1 or at most
    -1 is bisected.  An eigenvalue of H in (-tol, tol], or at rho = 1 a
    numerically zero <1, H^{-1} 1>, raises IndeterminateIndexError; rho
    outside (0,1] raises ValueError.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("need rho in (0,1]")
    # clear of the spectrum whatever the rounding of the row sums
    above = 2.0 * op.norm
    rounding = 8.0 * np.finfo(float).eps * op.norm
    tol = max(1e-9, rounding)  # the tol at top = 1
    # nothing above 1: lambda_max lies in (tol, 1] if this count, n_plus(H),
    # is positive, and in (-1, tol] if it is 0 but something lies above -1
    n_plus_H = op.count_eigvals(tol, above) if op.count_eigvals(1.0, above) == 0 else None
    if n_plus_H is None or n_plus_H == 0 and op.count_eigvals(-1.0, above) == 0:
        # lambda_max above 1, or at most -1 (n_plus_H is 0 then): bisect it
        tol = max(1e-9 * max(1.0, abs(op._ends[1])), rounding)
    if op.count_eigvals(-tol, tol) > 0:
        raise IndeterminateIndexError(
            f"H has an eigenvalue within {tol:.3g} of 0; index not decided"
        )
    if n_plus_H is None:
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
    # eigenvalues of the compression in (-tol, tol], by interlacing, where H
    # has none (checked above); s(mu) has the sign of 1^T (H - mu)^{-1} 1
    s_neg = [np.sum(op.solve(ones, mu)) < 0.0 for mu in (tol, -tol)]
    others = int(s_neg[1]) - int(s_neg[0])
    g0 = 1.0 - op.h * (op.fp @ y) / (2.0 * op.L)
    return {
        "n_plus_H": n_plus_H,
        "inner": inner,
        "n_plus_perturbed": n_plus_H - (1 if inner > 0 else 0),
        "has_kernel": bool(others == 0 and abs(2.0 * op.L * g0 / inner) < tol),
    }


def herglotz_h(op: DiscretizedOperator, rho: float, lam: complex) -> complex:
    """(1/2L) sum <1,v_i>^2/(lambda_i - lam) - (1-rho)/(rho lam).

    Real zeros of h are the 'moving' eigenvalues of Htilde_rho (those whose
    eigenvectors see the feedback); h maps the upper half-plane to itself
    for rho in (0,1], which is what pins the perturbed spectrum to the real
    axis.

    The spectral sum is the resolvent form (h/2L) 1^T (H - lam)^{-1} 1, one
    banded solve.  The pole guard (an eigenvalue of H within
    delta = 1e-12 max(1, ||H||_inf) of lam) is a Sturm count over the real
    interval where the disc of radius delta about lam meets the axis, made
    only when that disc reaches the axis, so each call is O(n).  ValueError
    for a non-finite lam.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("need rho in (0,1]")
    z = complex(lam)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"lambda = {z} is not finite")
    delta = 1e-12 * max(1.0, op.norm)
    if abs(z.imag) < delta:
        r = np.sqrt(delta**2 - z.imag**2)
        if op.count_eigvals(z.real - r, z.real + r) > 0:
            raise PoleProximityError("lambda sits on the unperturbed spectrum")
    if lam == 0.0 and rho != 1.0:
        raise PoleProximityError("lambda = 0 is the explicit pole of h")
    out = op.h * np.sum(op.solve(np.ones(op.n), lam)) / (2.0 * op.L)
    if rho != 1.0:
        out = out - (1.0 - rho) / (rho * lam)
    return complex(out)


# ---------------------------------------------------------------------------
# the quadrature family and period integrals


@dataclass(frozen=True)
class FamilyPoint:
    """A point of the stationary family with its period integrals.

    jac is the 3x2 Jacobian of (P, M, R) in (E_const, kappa), from the same
    quadrature as the values.
    """

    E_const: float
    kappa: float
    mu_minus: float
    mu_plus: float
    P: float
    M: float
    R: float
    jac: np.ndarray = field(compare=False, repr=False)
    s: float = 0.0

    @property
    def tau(self) -> float:
        """(M_E P_k - M_k P_E) / (R_E P_k - R_k P_E): dM/dR along the family.

        ZeroDivisionError at a fold of the family, where dR/ds vanishes.  Its
        sign is that of <1, H^{-1} 1> (they differ by the positive factor 2L).
        """
        (P_E, P_k), (M_E, M_k), (R_E, R_k) = self.jac.tolist()
        den = R_E * P_k - R_k * P_E
        if abs(den) < 1e-12 * max(1.0, abs(M_E * P_k), abs(M_k * P_E)):
            raise ZeroDivisionError("fold of the family: dR/ds vanishes")
        return (M_E * P_k - M_k * P_E) / den


def _Q_coef(F: Poly, E_const: float, kappa: float) -> list[float]:
    """Ascending coefficients of Q(u) = 2E + 2 kappa u - 2F(u)."""
    q = [-2.0 * c for c in F.coef.tolist()] + [0.0] * (2 - F.coef.size)
    q[0] += 2.0 * E_const
    q[1] += 2.0 * kappa
    return q


def _turning_error(what: str, E_const: float, kappa: float) -> TurningPointError:
    return TurningPointError(f"{what} at E = {E_const!r}, kappa = {kappa!r}")


def _turning(F: Poly, E_const: float, kappa: float):
    """turning_points with what period_jet reuses: Q's ascending coefficient
    list q, the pair (mu_-, mu_+) and the slopes Q'(mu_-), Q'(mu_+)."""
    q = _Q_coef(F, E_const, kappa)
    if q[0] <= 0.0:
        raise _turning_error("no admissible interval: Q(0) <= 0", E_const, kappa)
    n = len(q) - 1  # degree once trailing zeros are trimmed; q[0] > 0
    while q[n] == 0.0:
        n -= 1
    monic = [a / q[n] for a in q[: n + 1]]
    if not all(map(math.isfinite, monic)):
        raise _turning_error("Q's monic coefficients are not finite", E_const, kappa)
    real = []
    if n > 0:
        # the companion matrix of q / q[n], eigenvalues only
        C = np.eye(n, k=-1, order="F")
        C[:, -1] = [-a for a in monic[:n]]
        wr, wi, _, _, info = scipy.linalg.lapack.dgeev(
            C, compute_vl=0, compute_vr=0, overwrite_a=1
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"geev failed with info = {info}")
        real = [r for r, i in zip(wr.tolist(), wi.tolist()) if i == 0.0]
    below = [r for r in real if r < 0.0]
    above = [r for r in real if r > 0.0]
    if not (below and above):
        raise _turning_error("no turning point on one side of 0", E_const, kappa)
    mu = (max(below), min(above))
    # simplicity: Q' must not vanish at the endpoints
    dq = derivative(q)
    slopes = [horner(dq, r) for r in mu]
    if min(map(abs, slopes)) < 1e-6 * max(1.0, abs(E_const), abs(kappa)):
        raise _turning_error("turning point is not simple (separatrix)", E_const, kappa)
    return q, mu, slopes


def turning_points(F: Poly, E_const: float, kappa: float):
    """The real roots of Q(u) = 2E + 2 kappa u - 2F(u) nearest 0 on each side.

    Q must be positive at 0, its monic coefficients finite and both roots
    simple; the returned pair brackets the classical oscillation interval of
    the quadrature.  The roots are the eigenvalues of the companion matrix of
    Q / Q's leading coefficient (trailing zeros trimmed) with a zero
    imaginary part, from LAPACK's geev called directly, without vectors, as
    count_eigvals calls stebz; LinAlgError if geev fails.
    """
    return _turning(F, E_const, kappa)[1]


@functools.lru_cache(maxsize=None)
def _gauss_rule(nodes: int):
    """Gauss-Legendre weights and sin^2(theta) nodes for theta in [0, pi/2].

    Built on first use, read-only, shared by every period quadrature.
    """
    th, w = np.polynomial.legendre.leggauss(nodes)
    th = 0.25 * np.pi * (th + 1.0)
    w = w * 0.25 * np.pi
    s2 = np.sin(th) ** 2
    w.flags.writeable = False
    s2.flags.writeable = False
    return w, s2


def period_jet(F: Poly, E_const: float, kappa: float):
    """Turning points, period integrals (P, M, R) and their exact 3x2 Jacobian
    in (E_const, kappa), all from one quadrature.

    P integrates du/sqrt(Q), M weights by u, R by f(u) = F'(u).  The
    substitution u = mu_- + (mu_+ - mu_-) sin^2(theta) removes the
    inverse-square-root endpoint singularities, and Q = (u - mu_-)(mu_+ - u) W
    with W the exact polynomial quotient (the remainder of the division by
    the computed roots is dropped), so the integrands 2/sqrt(W), 2u/sqrt(W)
    and 2f(u)/sqrt(W) are smooth and fixed Gauss-Legendre quadrature
    converges spectrally.

    The Jacobian differentiates those integrands at fixed theta.  The
    turning points, roots of Q, move by dmu/dE = -2/Q'(mu) and
    dmu/dkappa = -2 mu/Q'(mu), and the nodes u with them; W's coefficients
    are differentiated through the two synthetic divisions in forward mode.

    Returns ((mu_-, mu_+), (P, M, R), J) with J[i] = (dX/dE, dX/dkappa) for
    X = P, M, R.
    """
    c, (mu_m, mu_p), slopes = _turning(F, E_const, kappa)
    # c = -W: Q (ascending) divided by u - mu_m, then by u - mu_p, by
    # synthetic division from the top; each remainder, the constant term
    # (zero up to rounding), is dropped.  dc carries the derivatives
    # (d/dE, d/dkappa) of every coefficient: dQ/dE = 2, dQ/dkappa = 2u
    dc = [(0.0, 0.0)] * len(c)
    dc[0], dc[1] = (2.0, 0.0), (0.0, 2.0)
    dmu = []
    for r, slope in zip((mu_m, mu_p), slopes):
        dr = (-2.0 / slope, -2.0 * r / slope)
        dmu.append(dr)
        for i in range(len(c) - 2, -1, -1):
            c[i] += r * c[i + 1]
            # d(c[i] + r c[i+1]) = dc[i] + dr c[i+1] + r dc[i+1]
            dc[i] = tuple(
                a + b * c[i + 1] + r * e for a, b, e in zip(dc[i], dr, dc[i + 1])
            )
        del c[0], dc[0]
    w, s2 = _gauss_rule(200)
    u = mu_m + (mu_p - mu_m) * s2
    W = -horner(c, u)
    if np.any(W <= 0.0):
        raise TurningPointError("integrand not positive inside the turning interval")
    base = 2.0 / np.sqrt(W)
    f = derivative(F.coef.tolist())  # F'
    fu = horner(f, u)
    P = float(w @ base)
    M = float(w @ (base * u))
    R = float(w @ (base * fu))
    # at fixed theta the nodes move by du = dmu_- + (dmu_+ - dmu_-) sin^2(theta)
    # (one column per parameter), W by dW = -(dc(u) + c'(u) du), and
    # d(2/sqrt(W)) = -(base/2W) dW
    dm, dp = np.array(dmu)
    du = s2[:, None] * (dp - dm) + dm
    dW = -(horner(np.array(dc), u[:, None]) + horner(derivative(c), u)[:, None] * du)
    wb = w * base
    wh = 0.5 * wb / W
    J = -(np.array([wh, wh * u, wh * fu]) @ dW)
    J[1:] += np.array([wb, wb * horner(derivative(f), u)]) @ du
    return (mu_m, mu_p), (P, M, R), J


def family_point(F: Poly, E_const: float, kappa: float, s: float = 0.0) -> FamilyPoint:
    """The family point at (E_const, kappa): one period_jet."""
    (mu_m, mu_p), (P, M, R), J = period_jet(F, E_const, kappa)
    return FamilyPoint(E_const, kappa, mu_m, mu_p, P, M, R, J, s)


def trace_family(
    F: Poly, start: FamilyPoint, steps: int, ds: float
) -> list[FamilyPoint]:
    """Arclength continuation of the constant-period family P(E, kappa) = P0.

    Predictor along the rotated gradient (-P_kappa, P_E)/|grad P|, the
    gradient taken from the previous point's Jacobian.  The corrector then
    solves P = P0 on the line through the predicted point along that
    gradient, by Newton steps whose slope comes from each new point's
    Jacobian, until |P - P0| < 1e-12 max(1, P0); FamilyCorrectorError if
    that takes more than 50 iterations.  The last corrector quadrature is
    the accepted point's, so a step costs one quadrature per corrector
    iteration and no more.  FamilyCorrectorError, naming s, where the
    period gradient vanishes (|grad P| < 1e-10), since no direction along
    the family is defined there.
    """
    P0 = start.P
    out = [start]
    prev_dir = None
    for _ in range(steps):
        p = out[-1]
        P_E, P_k = p.jac[0].tolist()
        norm = float(np.hypot(P_E, P_k))
        if norm < 1e-10:
            raise FamilyCorrectorError(
                f"period gradient vanishes at s = {p.s:.6g} "
                f"(|grad P| = {norm:.3g}): no direction to continue"
            )
        d = (-P_k / norm, P_E / norm)
        if prev_dir is not None and d[0] * prev_dir[0] + d[1] * prev_dir[1] < 0.0:
            d = (-d[0], -d[1])
        prev_dir = d
        E, kap = p.E_const + ds * d[0], p.kappa + ds * d[1]
        # correct back onto P = P0 along the gradient g
        g = (P_E / norm, P_k / norm)
        for _ in range(50):
            q = family_point(F, E, kap, s=p.s + ds)
            r = q.P - P0
            if abs(r) < 1e-12 * max(1.0, P0):
                break
            slope = float(q.jac[0] @ g)
            E -= r * g[0] / slope
            kap -= r * g[1] / slope
        else:
            raise FamilyCorrectorError(
                f"corrector left |P - P0| = {abs(r):.3g} after 50 iterations"
            )
        out.append(q)
    return out


def family_table(front: CubicFront, steps: int, ds: float) -> np.ndarray:
    """The front's stationary family traced from the symmetric profile
    (E = 1/2, kappa = 0) by trace_family.

    One row (s, E, kappa, mu_minus, mu_plus, P, M, R, tau) per point, each
    from that point's one quadrature; tau is nan at a fold of the family,
    where it is undefined.
    """
    start = family_point(front.F, 0.5, 0.0)
    rows = []
    for p in trace_family(front.F, start, steps, ds):
        try:
            t = p.tau
        except ZeroDivisionError:
            t = float("nan")
        rows.append((p.s, p.E_const, p.kappa, p.mu_minus, p.mu_plus, p.P, p.M, p.R, t))
    return np.array(rows)
