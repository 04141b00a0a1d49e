"""Oracles for the low-rank tests that the library itself does not use.

decompose_spectral builds the four polynomials from the eigenbasis of a
symmetric base matrix, and ak_value evaluates the eigenvalue condition in
resolvent form by an LU solve.  Neither goes through the determinant
interpolation with which lowrank.decompose_cofactor builds them.  charpoly
sums the split at one (rho1, rho2) into a numpy Polynomial.

decompose_per_basis is the reference for the bits of decompose_cofactor:
the same interpolation, one determinant call, one chebfit and one numpy
cheb2poly per basis setting.
"""

import numpy as np
import numpy.polynomial.chebyshev as npc
import numpy.polynomial.polynomial as npp
import scipy.linalg

from spectral_atlas.kernel import Poly
from spectral_atlas.lowrank import (
    AKDecomposition,
    LowRankProblem,
    perturbed_matrix,
    vectors_parallel,
)


class SingularResolventError(ValueError):
    """lambda hits the spectrum of the base matrix within tolerance."""


def decompose_spectral(
    p: LowRankProblem, sym_tol: float = 1e-10, parallel_tol: float = 1e-10
) -> AKDecomposition:
    """Decomposition through the eigenbasis of a self-adjoint base matrix.

    P_i(lambda) = sum_j <f_i, phi_j><g_i, phi_j> prod_{l != j} (lambda_l - lambda)
    and Q is the corresponding antisymmetrized double sum.
    """
    M = p.M
    if np.linalg.norm(M - M.T, np.inf) > sym_tol * max(1.0, np.linalg.norm(M, np.inf)):
        raise ValueError("decompose_spectral requires a symmetric base matrix")
    n = p.n
    lam, V = np.linalg.eigh(M)
    sign_full = (-1.0) ** n

    # prod_j (lambda_j - x) = (-1)^n prod_j (x - lambda_j)
    D = Poly(sign_full * npp.polyfromroots(lam))

    def excl(idx):
        keep = [lam[j] for j in range(n) if j not in idx]
        return npp.polyfromroots(keep)

    a1 = V.T @ p.f1
    b1 = V.T @ p.g1
    P1 = [0.0]
    sign1 = (-1.0) ** (n - 1)
    for j in range(n):
        w = a1[j] * b1[j]
        if w != 0.0:
            P1 = npp.polyadd(P1, (sign1 * w) * excl({j}))

    if p.rank == 1:
        return AKDecomposition(D, Poly(P1), Poly([0.0]), Poly([0.0]))

    a2 = V.T @ p.f2
    b2 = V.T @ p.g2
    P2 = [0.0]
    for j in range(n):
        w = a2[j] * b2[j]
        if w != 0.0:
            P2 = npp.polyadd(P2, (sign1 * w) * excl({j}))

    Q = [0.0]
    if not (
        vectors_parallel(p.g1, p.g2, parallel_tol)
        or vectors_parallel(p.f1, p.f2, parallel_tol)
    ):
        sign2 = (-1.0) ** (n - 2)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                w = a1[i] * b1[i] * a2[j] * b2[j] - a1[i] * b2[i] * a2[j] * b1[j]
                if w != 0.0:
                    Q = npp.polyadd(Q, (sign2 * w) * excl({i, j}))
    return AKDecomposition(D, Poly(P1), Poly(P2), Poly(Q))


def charpoly(dec: AKDecomposition, rho1: float, rho2: float) -> np.polynomial.Polynomial:
    """F = D + rho1 P1 + rho2 P2 + rho1 rho2 Q at one (rho1, rho2)."""
    D, P1, P2, Q = (np.polynomial.Polynomial(p.coef) for p in (dec.D, dec.P1, dec.P2, dec.Q))
    return D + rho1 * P1 + rho2 * P2 + (rho1 * rho2) * Q


def ak_value(
    p: LowRankProblem, rho1: float, rho2: float, lam: complex, cond_cap: float = 1e12
):
    """Resolvent form of the eigenvalue condition.

    Returns 1 + rho1 <g1,R f1> + rho2 <g2,R f2>
              + rho1 rho2 (<g1,R f1><g2,R f2> - <g1,R f2><g2,R f1>)
    with R = (M - lambda I)^{-1}; zero exactly when lambda is an eigenvalue
    of the perturbed matrix (for lambda outside spec(M)).
    """
    A = p.M - lam * np.eye(p.n)
    if np.linalg.cond(A) > cond_cap:
        raise SingularResolventError(
            f"lambda={lam} is within tolerance of spec(M); resolvent is singular"
        )
    lu = scipy.linalg.lu_factor(A)
    x1 = scipy.linalg.lu_solve(lu, p.f1)
    r11 = np.dot(p.g1, x1)
    out = 1.0 + rho1 * r11
    if p.f2 is not None:
        x2 = scipy.linalg.lu_solve(lu, p.f2)
        r22 = np.dot(p.g2, x2)
        r12 = np.dot(p.g1, x2)
        r21 = np.dot(p.g2, x1)
        out = out + rho2 * r22 + rho1 * rho2 * (r11 * r22 - r12 * r21)
    return out


def _det_charpoly_one(A: np.ndarray, radius: float) -> np.ndarray:
    """Ascending coefficients of det(A - lambda I) by Chebyshev interpolation."""
    n = A.shape[0]
    nodes = np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
    xs = radius * nodes
    ys = np.linalg.det(A - xs[:, None, None] * np.eye(n))
    cheb = npc.chebfit(xs, ys, n)
    return npc.cheb2poly(cheb)


def decompose_per_basis(p: LowRankProblem) -> AKDecomposition:
    """decompose_cofactor's interpolation with one call chain per basis
    setting; each difference has its coefficients at most the chop zeroed."""
    n = p.n
    radius = 2.0 * p.scale + 1.0
    chop = 1e-13 * max(1.0, p.scale) ** n * (n + 1)

    def chopped(c):
        return Poly(np.where(np.abs(c) <= chop, 0.0, c))

    d00 = _det_charpoly_one(perturbed_matrix(p, 0.0, 0.0), radius)
    d10 = _det_charpoly_one(perturbed_matrix(p, 1.0, 0.0), radius)
    D = Poly(d00)
    P1 = chopped(d10 - d00)
    if p.rank == 1:
        return AKDecomposition(D, P1, Poly([0.0]), Poly([0.0]))
    d01 = _det_charpoly_one(perturbed_matrix(p, 0.0, 1.0), radius)
    d11 = _det_charpoly_one(perturbed_matrix(p, 1.0, 1.0), radius)
    P2 = chopped(d01 - d00)
    Q = chopped(d11 - d10 - d01 + d00)
    if vectors_parallel(p.g1, p.g2) or vectors_parallel(p.f1, p.f2):
        Q = Poly([0.0])
    return AKDecomposition(D, P1, P2, Q)
