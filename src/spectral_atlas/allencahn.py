"""Stability of fronts in a mass-conserving (nonlocal) Allen-Cahn equation.

The linearization about a stationary profile u is a rank-one perturbation of
the self-adjoint operator H v = v_xx + f'(u) v with Neumann ends:

    Htilde v = H v - (rho / 2L) <f'(u), v> 1,    rho = 1 physically.

Because H 1 = f'(u), the perturbed spectrum is controlled by the unperturbed
one: eigenvalues are real for rho in [0,1] (a Herglotz argument), a kernel
appears only at rho = 1, and the positive-eigenvalue count drops by one
exactly when <1, H^{-1} 1> > 0.  For the cubic f(u) = (1+k^2)u - 2k^2 u^3
the front is sn(x,k) on [-K(k), K(k)] and everything is explicit through the
two-gap Lame spectrum.  A one-parameter family of stationary profiles
(parametrized by mass) gives an equivalent criterion through period-type
integrals P, M, R of the quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg

from .kernel import elliptic_K_E, jacobi_sn_cn_dn


class IndeterminateIndexError(ArithmeticError):
    """<1, H^{-1} 1> is numerically zero: the index count is not decided."""


class PoleProximityError(ArithmeticError):
    """Requested evaluation point sits on (or next to) a spectral pole."""


class TurningPointError(ValueError):
    """The turning points of the period quadrature are missing or not simple."""


class FamilyCorrectorError(ArithmeticError):
    """The family corrector did not bring the period back to its start value."""


def a_of_k(k: float) -> float:
    return float(np.sqrt(1.0 - k**2 + k**4))


@dataclass(frozen=True)
class CubicFront:
    """sn(x,k) front of the cubic nonlinearity on [-K(k), K(k)]."""

    k: float
    K: float
    E: float
    a: float

    @classmethod
    def from_k(cls, k: float) -> "CubicFront":
        if not 0.0 < k < 1.0:
            raise ValueError("elliptic modulus must lie in (0,1)")
        K, E = elliptic_K_E(k)
        return cls(k=float(k), K=K, E=E, a=a_of_k(k))

    @classmethod
    def from_length(cls, L: float) -> "CubicFront":
        """Invert sqrt(1+k^2) K(k) = L for the modulus."""
        if L <= np.pi / 2:
            raise ValueError("need L > pi/2 for a front to exist")

        def g(k):
            return np.sqrt(1.0 + k**2) * elliptic_K_E(k)[0] - L

        k = scipy.optimize.brentq(g, 1e-12, 1.0 - 1e-14, xtol=1e-14)
        return cls.from_k(k)

    @property
    def half_length(self) -> float:
        return np.sqrt(1.0 + self.k**2) * self.K

    def profile(self, x):
        sn, _, _ = jacobi_sn_cn_dn(np.asarray(x, float), self.k)
        return sn

    def f(self, u):
        u = np.asarray(u, float)
        return (1.0 + self.k**2) * u - 2.0 * self.k**2 * u**3

    def f_prime(self, u):
        u = np.asarray(u, float)
        return (1.0 + self.k**2) - 6.0 * self.k**2 * u**2

    def F(self, u):
        u = np.asarray(u, float)
        return 0.5 * (1.0 + self.k**2) * u**2 - 0.5 * self.k**2 * u**4


def lame_spectrum(k: float):
    """The five explicit top eigenpairs of H = d_xx + (1+k^2) - 6 k^2 sn^2.

    Returns (eigenvalue, eigenfunction, bc) triples ordered by decreasing
    eigenvalue; bc records whether the mode satisfies a Neumann or a
    Dirichlet condition at +-K(k).
    """
    if not 0.0 < k < 1.0:
        raise ValueError("elliptic modulus must lie in (0,1)")
    a = a_of_k(k)
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
    fr = CubicFront.from_k(k)
    K, E, k2 = fr.K, fr.E, k * k
    M = np.array(
        [
            [6.0 * (K - E) / K, 3.0 * (1.0 + k2) * (K - E) / (k2 * K)],
            [-6.0 * k2, -3.0 * (1.0 + k2)],
        ]
    )
    return M, np.linalg.eigvals(M)


def lambda1(k: float) -> float:
    """((3-3k^2)K - 6E)/K: the nonzero eigenvalue of the restricted pair.

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
    and the pole guard ask only for the ends of the spectrum and eigenvalue
    counts, which LAPACK bisection (Sturm counts, O(n) each) answers without
    a full eigensolve.
    """

    n: int
    h: float
    L: float
    x: np.ndarray
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

        LAPACK bisection: two Sturm counts, O(n) each, plus the bisection of
        the eigenvalues found, so a short interval costs O(n) and no full
        eigensolve.
        """
        if lo >= hi:
            return 0
        return len(
            scipy.linalg.eigvalsh_tridiagonal(
                self.diag, self.off, select="v", select_range=(lo, hi)
            )
        )

    def eig(self):
        """Eigenvalues and Euclidean-orthonormal eigenvectors (columns)."""
        return scipy.linalg.eigh_tridiagonal(self.diag, self.off)

    def solve(self, b: np.ndarray, shift: complex = 0.0) -> np.ndarray:
        """(H - shift I)^{-1} b via a banded solve, complex for a complex shift."""
        ab = np.zeros((3, self.n), np.result_type(float, shift))
        ab[0, 1:] = self.off
        ab[1] = self.diag - shift
        ab[2, :-1] = self.off
        return scipy.linalg.solve_banded((1, 1), ab, b)

    def perturbed_matrix(self, rho: float) -> np.ndarray:
        """Htilde = H - (rho h / 2L) 1 fp^T (dense)."""
        A = self.matrix()
        A -= (rho * self.h / (2.0 * self.L)) * np.outer(
            np.ones(self.n), self.fp
        )
        return A


def build_H_discrete(f_prime, L: float, n: int = 4000) -> DiscretizedOperator:
    """Assemble H on n cells of [-L, L]; f_prime is a callable of x or samples."""
    if n < 16:
        raise ValueError("grid too coarse")
    h = 2.0 * L / n
    x = -L + (np.arange(n) + 0.5) * h
    fp = np.array(f_prime(x) if callable(f_prime) else f_prime, float)
    if fp.shape != (n,):
        raise ValueError("f_prime samples must have length n")
    diag = fp - 2.0 / h**2
    diag[0] += 1.0 / h**2  # ghost reflection at the ends
    diag[-1] += 1.0 / h**2
    off = np.full(n - 1, 1.0 / h**2)
    for arr in (x, fp, diag, off):
        arr.flags.writeable = False
    return DiscretizedOperator(n=n, h=h, L=L, x=x, fp=fp, diag=diag, off=off)


def cubic_operator(k: float, n: int = 4000) -> DiscretizedOperator:
    fr = CubicFront.from_k(k)

    def fprime_of_x(x):
        return fr.f_prime(fr.profile(x))

    return build_H_discrete(fprime_of_x, fr.K, n)


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


def inner_H_inv_one(op: DiscretizedOperator) -> float:
    """<1, H^{-1} 1> with the cell-weighted inner product.

    Falls back to a least-squares (pseudo-inverse) solve when H is flagged
    singular, that is when an eigenvalue lies within 1e-8 of zero relative to
    the spectrum's scale; 1 is in the range of H whenever a stationary family
    exists.  The singular test is one bisection count, O(n).
    """
    delta = 1e-8 * max(map(abs, op._ends))
    ones = np.ones(op.n)
    if op.count_eigvals(-delta, delta) > 0:
        A = scipy.sparse.diags(
            [op.off, op.diag, op.off], [-1, 0, 1], format="csr"
        )
        y = scipy.sparse.linalg.lsmr(A, ones, atol=1e-12, btol=1e-12)[0]
    else:
        y = op.solve(ones)
    return float(op.h * (ones @ y))


def stability_index(op: DiscretizedOperator, rho: float = 1.0) -> dict:
    """Positive-eigenvalue count of the perturbed operator, by the homotopy rule.

    n_plus(Htilde) = n_plus(H) minus one exactly when <1, H^{-1} 1> > 0 (the
    zero crossing at rho = 1 arrives from the right half-line).  Also checks
    that the rho = 1 operator has a simple kernel.

    n_plus(H) is a bisection count above a tolerance and the scales come from
    the ends of the spectrum, so the index costs O(n) and no full eigensolve.
    """
    highest = op._ends[1]
    tol = 1e-9 * max(1.0, *map(abs, op._ends))
    # scales refer to the top of the spectrum (the bottom is the O(1/h^2)
    # Laplacian tail)
    top = max(1.0, abs(highest))
    n_plus_H = op.count_eigvals(tol, highest + top)
    inner = inner_H_inv_one(op)
    if abs(inner) < 1e-10 * max(1.0, 2.0 * op.L):
        raise IndeterminateIndexError(
            "<1, H^{-1} 1> is numerically zero; index not decided"
        )
    n_plus_pert = n_plus_H - (1 if inner > 0 else 0)
    # kernel simplicity at the physical coupling rho = 1
    near0 = np.sort(np.abs(perturbed_eigs_near(op, 1.0, sigma=1e-3 * top)))
    kernel_tol = 1e-3 * top
    has_kernel = bool(near0[0] < kernel_tol and near0[1] > kernel_tol)
    return {
        "n_plus_H": n_plus_H,
        "inner": inner,
        "n_plus_perturbed": n_plus_pert,
        "has_kernel": has_kernel,
    }


def herglotz_h(op: DiscretizedOperator, rho: float, lam: complex) -> complex:
    """(1/2L) sum <1,v_i>^2/(lambda_i - lam) - (1-rho)/(rho lam).

    Real zeros of h are the 'moving' eigenvalues of Htilde_rho (those whose
    eigenvectors see the feedback); h maps the upper half-plane to itself
    for rho in (0,1], which is what pins the perturbed spectrum to the real
    axis.

    The spectral sum is the resolvent form (h/2L) 1^T (H - lam)^{-1} 1, one
    banded solve.  The pole guard (an eigenvalue of H within delta of lam)
    is a bisection count over the real interval where the disc of radius
    delta about lam meets the axis, so each call is O(n) once the ends of
    the spectrum, which set delta, are known.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("need rho in (0,1]")
    delta = 1e-12 * max(1.0, *map(abs, op._ends))
    z = complex(lam)
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
    E_const: float
    kappa: float
    mu_minus: float
    mu_plus: float
    P: float
    M: float
    R: float
    s: float = 0.0


def turning_points(F, E_const: float, kappa: float, u_inner: float = 0.0):
    """Adjacent simple roots of Q(u) = 2E + 2 kappa u - 2F(u) around u_inner.

    Q must be positive at u_inner; the returned pair brackets the classical
    oscillation interval of the quadrature.
    """

    def Q(u):
        return 2.0 * E_const + 2.0 * kappa * u - 2.0 * F(u)

    if Q(u_inner) <= 0.0:
        raise TurningPointError("no admissible interval: Q(u_inner) <= 0")

    def march(direction):
        step = 1e-3
        u = u_inner
        for _ in range(200):
            nxt = u + direction * step
            if Q(nxt) <= 0.0:
                lo, hi = (u, nxt) if direction > 0 else (nxt, u)
                return scipy.optimize.brentq(Q, lo, hi, xtol=1e-15)
            u = nxt
            step *= 1.5
        raise TurningPointError("no turning point found in the search range")

    mu_minus = march(-1.0)
    mu_plus = march(+1.0)
    # simplicity: Q' must not vanish at the endpoints
    d = 1e-7 * max(1.0, abs(mu_plus - mu_minus))
    for mu in (mu_minus, mu_plus):
        dq = (Q(mu + d) - Q(mu - d)) / (2.0 * d)
        if abs(dq) < 1e-6 * max(1.0, abs(E_const), abs(kappa)):
            raise TurningPointError("turning point is not simple (separatrix)")
    return mu_minus, mu_plus


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


def period_integrals(
    F,
    E_const: float,
    kappa: float,
    f=None,
    nodes: int = 200,
    u_inner: float = 0.0,
    mu: tuple[float, float] | None = None,
):
    """Period-type integrals (P, M, R) over one oscillation of the quadrature.

    P integrates du/sqrt(Q), M weights by u, R by f(u).  The substitution
    u = mu_- + (mu_+ - mu_-) sin^2(theta) removes the inverse-square-root
    endpoint singularities for simple turning points, after which fixed
    Gauss-Legendre quadrature converges spectrally.  mu passes turning
    points already found by turning_points for the same (E_const, kappa).
    """
    if f is None:
        def f(u):
            d = 1e-6 * np.maximum(1.0, np.abs(u))
            return (F(u + d) - F(u - d)) / (2.0 * d)

    mu_m, mu_p = turning_points(F, E_const, kappa, u_inner) if mu is None else mu

    def Q(u):
        return 2.0 * E_const + 2.0 * kappa * u - 2.0 * F(u)

    w, s2 = _gauss_rule(nodes)
    u = mu_m + (mu_p - mu_m) * s2
    # Q(u) = (u - mu_m)(mu_p - u) W(u) with W smooth and positive
    W = Q(u) / ((u - mu_m) * (mu_p - u))
    if np.any(W <= 0.0):
        raise ValueError("integrand not positive inside the turning interval")
    base = 2.0 / np.sqrt(W)
    P = float(w @ base)
    M = float(w @ (base * u))
    R = float(w @ (base * f(u)))
    return P, M, R


def tau(F, E_const: float, kappa: float, f=None, u_inner: float = 0.0) -> float:
    """(M_E P_k - M_k P_E) / (R_E P_k - R_k P_E): dM/dR along the family.

    Central differences with one step of Richardson refinement; the sign of
    tau reproduces the sign of <1, H^{-1} 1> (they differ by the positive
    factor 2L).
    """

    def vals(E, k):
        return np.array(period_integrals(F, E, k, f=f, u_inner=u_inner))

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


def family_point(
    F, E_const: float, kappa: float, f=None, s: float = 0.0, u_inner: float = 0.0
) -> FamilyPoint:
    mu_m, mu_p = turning_points(F, E_const, kappa, u_inner)
    P, M, R = period_integrals(F, E_const, kappa, f=f, mu=(mu_m, mu_p))
    return FamilyPoint(E_const, kappa, mu_m, mu_p, P, M, R, s)


def trace_family(
    F,
    start: FamilyPoint,
    steps: int,
    ds: float,
    f=None,
    u_inner: float = 0.0,
) -> list[FamilyPoint]:
    """Arclength continuation of the constant-period family P(E, kappa) = P0.

    Predictor along the rotated gradient (-P_kappa, P_E)/|grad P|, then a
    Newton correction back onto the constraint along grad P until
    |P - P0| < 1e-12 max(1, P0); FamilyCorrectorError if that takes more than
    50 iterations.  Stops with the points found so far if a fold (vanishing
    gradient) is reached.
    """
    P0 = start.P
    out = [start]
    E, kap, s = start.E_const, start.kappa, start.s
    prev_dir = None
    for _ in range(steps):
        step = 1e-6 * max(1.0, abs(E), abs(kap))

        def Pof(E_, k_):
            return period_integrals(F, E_, k_, f=f, u_inner=u_inner)[0]

        P_E = (Pof(E + step, kap) - Pof(E - step, kap)) / (2.0 * step)
        P_k = (Pof(E, kap + step) - Pof(E, kap - step)) / (2.0 * step)
        norm = float(np.hypot(P_E, P_k))
        if norm < 1e-10:
            break  # fold: gradient of the period vanishes
        d = np.array([-P_k, P_E]) / norm
        if prev_dir is not None and d @ prev_dir < 0.0:
            d = -d
        prev_dir = d
        E_new, k_new = E + ds * d[0], kap + ds * d[1]
        # correct back onto P = P0 along the gradient
        g = np.array([P_E, P_k]) / norm
        for _ in range(50):
            r = Pof(E_new, k_new) - P0
            if abs(r) < 1e-12 * max(1.0, P0):
                break
            E_new -= r * g[0] / norm
            k_new -= r * g[1] / norm
        else:
            raise FamilyCorrectorError(
                f"corrector left |P - P0| = {abs(r):.3g} after 50 iterations"
            )
        E, kap, s = E_new, k_new, s + ds
        out.append(family_point(F, E, kap, f=f, s=s, u_inner=u_inner))
    return out
