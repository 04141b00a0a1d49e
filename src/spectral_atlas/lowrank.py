"""Rank-one/rank-two perturbed eigenproblems and their four-polynomial split.

For  Mt = M + rho1 f1 g1^T + rho2 f2 g2^T  the characteristic determinant
factors as

    det(Mt - lambda I) = D + rho1 P1 + rho2 P2 + rho1 rho2 Q

with D the unperturbed characteristic polynomial, deg Pi <= N-1 and
deg Q <= N-2.  Q vanishes identically when the g's (or the f's) are
linearly dependent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npc
import scipy.linalg

from .kernel import Poly


class SingularResolventError(ValueError):
    """lambda hits the spectrum of the base matrix within tolerance."""


@dataclass(frozen=True)
class LowRankProblem:
    M: np.ndarray
    f1: np.ndarray
    g1: np.ndarray
    f2: np.ndarray | None = None
    g2: np.ndarray | None = None

    def __init__(self, M, f1, g1, f2=None, g2=None):
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"base matrix must be square, got {M.shape}")
        n = M.shape[0]
        vecs = {"f1": f1, "g1": g1, "f2": f2, "g2": g2}
        if (f2 is None) != (g2 is None):
            raise ValueError("f2 and g2 must be given together or not at all")
        for name, v in vecs.items():
            if v is None:
                continue
            v = np.asarray(v, dtype=float)
            if v.shape != (n,):
                raise ValueError(f"{name} has length {v.shape}, expected ({n},)")
            vecs[name] = v
        object.__setattr__(self, "M", M)
        for name, v in vecs.items():
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def rank(self) -> int:
        return 1 if self.f2 is None else 2

    @property
    def scale(self) -> float:
        s = max(1.0, float(np.linalg.norm(self.M, np.inf)))
        s = max(s, float(np.linalg.norm(self.f1) * np.linalg.norm(self.g1)))
        if self.f2 is not None:
            s = max(s, float(np.linalg.norm(self.f2) * np.linalg.norm(self.g2)))
        return s

    # -- serialization ---------------------------------------------------
    def to_json(self) -> str:
        d = {"M": self.M.tolist(), "f1": self.f1.tolist(), "g1": self.g1.tolist()}
        if self.f2 is not None:
            d["f2"] = self.f2.tolist()
            d["g2"] = self.g2.tolist()
        return json.dumps(d, indent=2)

    @staticmethod
    def from_json(text: str) -> "LowRankProblem":
        """Problem from a JSON object with keys M, f1, g1 and optionally f2, g2."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(
                f"malformed JSON at line {e.lineno}, column {e.colno}"
            ) from e
        if not isinstance(d, dict):
            raise ValueError("problem spec must be a JSON object")
        for key in ("M", "f1", "g1"):
            if key not in d:
                raise ValueError(f"problem spec missing required key '{key}'")
        prob = LowRankProblem(d["M"], d["f1"], d["g1"], d.get("f2"), d.get("g2"))
        for key in ("M", "f1", "g1", "f2", "g2"):
            v = getattr(prob, key)
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"problem spec key '{key}' holds NaN or Infinity")
        return prob


@dataclass(frozen=True)
class AKDecomposition:
    D: Poly
    P1: Poly
    P2: Poly
    Q: Poly

    def charpoly(self, rho1: float, rho2: float) -> Poly:
        return self.D + rho1 * self.P1 + rho2 * self.P2 + (rho1 * rho2) * self.Q

    def evaluate(self, lam, rho1: float, rho2: float):
        return (
            self.D(lam)
            + rho1 * self.P1(lam)
            + rho2 * self.P2(lam)
            + rho1 * rho2 * self.Q(lam)
        )


def perturbed_matrix(p: LowRankProblem, rho1: float, rho2: float) -> np.ndarray:
    A = p.M + rho1 * np.outer(p.f1, p.g1)
    if p.f2 is not None:
        A = A + rho2 * np.outer(p.f2, p.g2)
    return A


def vectors_parallel(u, v, tol: float = 1e-10) -> bool:
    """Numerical linear dependence of two vectors, relative tolerance."""
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return True
    uh, vh = u / nu, v / nv
    # sine of the angle: norm of v with its u-component removed
    rej = vh - np.dot(uh, vh) * uh
    return bool(np.linalg.norm(rej) <= tol)


def _det_charpoly(A: np.ndarray, radius: float) -> np.ndarray:
    """Ascending coefficients of det(A - lambda I) by Chebyshev interpolation."""
    n = A.shape[0]
    nodes = np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
    xs = radius * nodes
    ys = np.array([np.linalg.det(A - x * np.eye(n)) for x in xs])
    cheb = npc.chebfit(xs, ys, n)
    return npc.cheb2poly(cheb)


def decompose_cofactor(p: LowRankProblem, parallel_tol: float = 1e-10) -> AKDecomposition:
    """Four-polynomial decomposition via determinant interpolation.

    det(Mt - lambda I) is sampled at N+1 Chebyshev nodes for each of the
    basis settings (rho1, rho2) in {(0,0),(1,0),(0,1),(1,1)} and the four
    polynomials are recovered by differencing the interpolants.
    """
    n = p.n
    radius = 2.0 * p.scale + 1.0
    chop = 1e-13 * max(1.0, p.scale) ** n * (n + 1)

    d00 = _det_charpoly(perturbed_matrix(p, 0.0, 0.0), radius)
    d10 = _det_charpoly(perturbed_matrix(p, 1.0, 0.0), radius)
    D = Poly(d00)
    P1 = Poly(d10 - d00)
    if p.rank == 1:
        return AKDecomposition(D, P1.chop(chop), Poly.zero(), Poly.zero())
    d01 = _det_charpoly(perturbed_matrix(p, 0.0, 1.0), radius)
    d11 = _det_charpoly(perturbed_matrix(p, 1.0, 1.0), radius)
    P2 = Poly(d01 - d00)
    Q = Poly(d11 - d10 - d01 + d00)
    if vectors_parallel(p.g1, p.g2, parallel_tol) or vectors_parallel(
        p.f1, p.f2, parallel_tol
    ):
        Q = Poly.zero()
    return AKDecomposition(D, P1.chop(chop), P2.chop(chop), Q.chop(chop))


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
    D = sign_full * Poly.from_roots(lam)

    def excl(idx):
        keep = [lam[j] for j in range(n) if j not in idx]
        return Poly.from_roots(keep)

    a1 = V.T @ p.f1
    b1 = V.T @ p.g1
    P1 = Poly.zero()
    sign1 = (-1.0) ** (n - 1)
    for j in range(n):
        w = a1[j] * b1[j]
        if w != 0.0:
            P1 = P1 + (sign1 * w) * excl({j})

    if p.rank == 1:
        return AKDecomposition(D, P1, Poly.zero(), Poly.zero())

    a2 = V.T @ p.f2
    b2 = V.T @ p.g2
    P2 = Poly.zero()
    for j in range(n):
        w = a2[j] * b2[j]
        if w != 0.0:
            P2 = P2 + (sign1 * w) * excl({j})

    Q = Poly.zero()
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
                    Q = Q + (sign2 * w) * excl({i, j})
    return AKDecomposition(D, P1, P2, Q)


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
    r11 = np.dot(p.g1, scipy.linalg.lu_solve(lu, p.f1))
    out = 1.0 + rho1 * r11
    if p.f2 is not None:
        x2 = scipy.linalg.lu_solve(lu, p.f2)
        r22 = np.dot(p.g2, x2)
        r12 = np.dot(p.g1, x2)
        r21 = np.dot(p.g2, scipy.linalg.lu_solve(lu, p.f1))
        out = out + rho2 * r22 + rho1 * rho2 * (r11 * r22 - r12 * r21)
    return out
