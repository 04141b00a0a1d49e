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
import math
import sys
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as npc

from .kernel import Poly


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
        d = _json_object(text, "problem spec", ("M", "f1", "g1"))
        prob = LowRankProblem(d["M"], d["f1"], d["g1"], d.get("f2"), d.get("g2"))
        for key in ("M", "f1", "g1", "f2", "g2"):
            v = getattr(prob, key)
            if v is not None and not np.all(np.isfinite(v)):
                raise ValueError(f"problem spec key '{key}' holds NaN or Infinity")
        return prob


_POLY_KEYS = ("D", "P1", "P2", "Q")


def _json_object(text: str, what: str, keys) -> dict:
    """The JSON object in text, which must hold every key in keys."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"malformed JSON at line {e.lineno}, column {e.colno}"
        ) from e
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} missing required key '{key}'")
    return d


@dataclass(frozen=True)
class AKDecomposition:
    D: Poly
    P1: Poly
    P2: Poly
    Q: Poly

    def charpoly(self, rho1: float, rho2: float) -> Poly:
        return self.D + rho1 * self.P1 + rho2 * self.P2 + (rho1 * rho2) * self.Q

    def evaluate(self, lam, rho1, rho2):
        return (
            self.D(lam)
            + rho1 * self.P1(lam)
            + rho2 * self.P2(lam)
            + rho1 * rho2 * self.Q(lam)
        )

    # -- serialization ---------------------------------------------------
    def to_json(self, **extra) -> str:
        """Ascending coefficients under keys D, P1, P2, Q; extra keys ride along."""
        d = {k: getattr(self, k).coef.tolist() for k in _POLY_KEYS}
        return json.dumps({**d, **extra}, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AKDecomposition":
        """Decomposition from a JSON object whose keys D, P1, P2, Q hold finite
        1-D coefficient lists; other keys are ignored."""
        d = _json_object(text, "decomposition", _POLY_KEYS)
        polys = {}
        for key in _POLY_KEYS:
            try:
                c = np.asarray(d[key], dtype=float)
            except (TypeError, ValueError):
                c = np.empty((0,))
            if c.ndim != 1 or c.size == 0:
                raise ValueError(f"decomposition key '{key}' is not a list of numbers")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"decomposition key '{key}' holds NaN or Infinity")
            polys[key] = Poly(c)
        return AKDecomposition(**polys)


def perturbed_matrix(p: LowRankProblem, rho1, rho2) -> np.ndarray:
    """M + rho1 f1 g1^T + rho2 f2 g2^T; array rho's give a stack of matrices."""
    rho1 = np.asarray(rho1, float)[..., None, None]
    A = p.M + rho1 * np.outer(p.f1, p.g1)
    if p.f2 is not None:
        A = A + np.asarray(rho2, float)[..., None, None] * np.outer(p.f2, p.g2)
    return A


def det_residual(p: LowRankProblem, dec: AKDecomposition, lam, rho1, rho2) -> float:
    """Largest relative gap between det(Mt - lambda I) and the decomposition.

    max |det - F| / max(1, |det|) over the sample points (lam[i], rho1[i],
    rho2[i]), with one stacked determinant call.
    """
    lam = np.asarray(lam, float)
    det = np.linalg.det(perturbed_matrix(p, rho1, rho2) - lam[..., None, None] * np.eye(p.n))
    F = dec.evaluate(lam, rho1, rho2)
    return float(np.max(np.abs(det - F) / np.maximum(1.0, np.abs(det))))


# sine of the angle below which two vectors count as parallel; Q is zero then
PARALLEL_TOL = 1e-10


def vectors_parallel(u, v, tol: float = PARALLEL_TOL) -> bool:
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


def _cheb2poly_rows(c: np.ndarray) -> np.ndarray:
    """npc.cheb2poly of each row of c, (k, N) -> (k, N), in one recurrence.

    It performs numpy's operations in numpy's order (the polymulx shift
    with c[0]*0 in front, the *2, then polyadd and polysub on the entries
    the two operands share), so each row gets the bits cheb2poly gives it.
    cheb2poly trims zero leading coefficients off its input and off every
    intermediate.  Here the last column, det(A - lambda I)'s leading
    coefficient times 2**(1-n), is nonzero; then no intermediate has a zero
    leading entry, and there is nothing to trim.
    """
    N = c.shape[1]
    if N < 3:
        return c.copy()

    def mulx(v):
        return np.concatenate([v[:, :1] * 0, v], axis=1)

    c0, c1 = c[:, N - 2 : N - 1], c[:, N - 1 :]
    for i in range(N - 1, 1, -1):
        tmp, c0 = c0, -c1
        c0[:, 0] += c[:, i - 2]
        c1 = mulx(c1) * 2
        c1[:, : tmp.shape[1]] += tmp
    out = mulx(c1)
    out[:, : c0.shape[1]] += c0
    return out


def _det_charpoly(A: np.ndarray, radius: float) -> np.ndarray:
    """Ascending coefficients of det(A - lambda I) by Chebyshev interpolation.

    A is one matrix or a stack (..., n, n); the result has shape (..., n+1).
    Every matrix is sampled at the n+1 Chebyshev nodes in one determinant
    call, and each row of samples is fitted on its own: one chebfit per row
    gives the same bits as one per matrix, where one least-squares call
    over all rows does not.  When a sample is not finite every coefficient
    is nan and no fit is made: LAPACK's least squares fails on such rows.
    """
    n = A.shape[-1]
    nodes = np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
    xs = radius * nodes
    with np.errstate(over="ignore", invalid="ignore"):
        ys = np.linalg.det(A[..., None, :, :] - xs[:, None, None] * np.eye(n))
    if not np.all(np.isfinite(ys)):
        return np.full(ys.shape, np.nan)
    cheb = np.array([npc.chebfit(xs, y, n) for y in ys.reshape(-1, n + 1)])
    return _cheb2poly_rows(cheb).reshape(ys.shape)


def _fit_overflows(n: int, radius: float) -> bool:
    """Whether chebfit's column norms over _det_charpoly's n+1 nodes may
    overflow, in O(1) and with no Vandermonde built.

    The top column, T_n at the nodes, is the largest.  At the outermost node
    x0 = radius cos(pi/(2n+2)) > 1 (radius >= 3), T_n(x0) = cosh(n acosh x0) <= e^(n acosh x0),
    so its squared norm is at most (n+1) e^(2n acosh x0).  An overflowing
    norm scales the top columns to zero and the fit drops the top
    coefficients, or LAPACK fails on the scaled matrix.
    """
    x0 = radius * math.cos(math.pi / (2 * (n + 1)))
    return math.log(n + 1) + 2 * n * math.acosh(x0) >= math.log(sys.float_info.max)


# basis settings (rho1, rho2) of the interpolated determinants d00, d10,
# d01, d11; a rank-one problem takes the first two
_BASIS_RHO = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])


def decompose_cofactor(p: LowRankProblem) -> AKDecomposition:
    """Four-polynomial decomposition via determinant interpolation.

    det(Mt - lambda I) is sampled at N+1 Chebyshev nodes for each of the
    basis settings (rho1, rho2) in {(0,0),(1,0),(0,1),(1,1)}, all in one
    stacked determinant call, and the four polynomials are recovered by
    differencing the interpolants.

    FloatingPointError when scale**N, a sample or a coefficient is not
    finite, or when the fit's Vandermonde column norms may overflow.
    """
    n, scale = p.n, p.scale
    overflow = FloatingPointError(
        f"determinant interpolation overflows for n = {n} at scale {scale:.6g}"
    )
    radius = 2.0 * scale + 1.0
    try:
        chop = 1e-13 * max(1.0, scale) ** n * (n + 1)
    except OverflowError:
        raise overflow from None
    if _fit_overflows(n, radius):
        raise overflow
    d = _det_charpoly(perturbed_matrix(p, *_BASIS_RHO[:, :2 * p.rank]), radius)
    if not np.all(np.isfinite(d)):
        raise overflow

    d00, d10 = d[0], d[1]
    D = Poly(d00)
    P1 = Poly(d10 - d00)
    if p.rank == 1:
        return AKDecomposition(D, P1.chop(chop), Poly.zero(), Poly.zero())
    d01, d11 = d[2], d[3]
    P2 = Poly(d01 - d00)
    Q = Poly(d11 - d10 - d01 + d00)
    if vectors_parallel(p.g1, p.g2) or vectors_parallel(p.f1, p.f2):
        Q = Poly.zero()
    return AKDecomposition(D, P1.chop(chop), P2.chop(chop), Q.chop(chop))
