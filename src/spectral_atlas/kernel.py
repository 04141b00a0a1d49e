"""Foundation numerics: dense eigensolves, polynomial algebra, elliptic functions.

Polynomials are stored as dense ascending coefficient vectors; degrees stay
small (bounded by matrix dimension) so no sparse representation is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp
import scipy.linalg


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues plus (optionally) right and left/adjoint eigenvectors.

    ``right[:, i]`` satisfies  A v = lambda v;  ``left[:, i]`` satisfies
    A^T f = lambda f  (the adjoint eigenvector, possibly complex).
    """

    values: np.ndarray
    right: np.ndarray | None = None
    left: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.values)


def eig_dense(A, vectors: bool = False) -> Spectrum:
    """Eigen-decomposition of a dense real matrix.

    Backed by LAPACK's balanced Hessenberg + shifted-QR path (via scipy);
    non-convergence surfaces as LinAlgError rather than being swallowed.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"eig_dense needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("eig_dense: non-finite entries")
    if not vectors:
        return Spectrum(scipy.linalg.eigvals(A))
    w, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    # scipy returns vl with vl^H A = w vl^H; conjugate gives A^T f = w f
    return Spectrum(w, right=vr, left=np.conj(vl))


# ---------------------------------------------------------------------------
# polynomial algebra


@dataclass(frozen=True)
class Poly:
    """Real polynomial, ascending coefficients.  Zero polynomial <-> coef=[0]."""

    coef: np.ndarray

    def __init__(self, coef):
        c = np.atleast_1d(np.asarray(coef, dtype=float))
        c = npp.polytrim(c)
        object.__setattr__(self, "coef", c)

    # -- queries ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.coef.size == 1 and self.coef[0] == 0.0

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else self.coef.size - 1

    @property
    def norm(self) -> float:
        return float(np.max(np.abs(self.coef)))

    def __call__(self, x):
        return npp.polyval(x, self.coef)

    # -- algebra ---------------------------------------------------------
    def deriv(self, m: int = 1) -> "Poly":
        return Poly(npp.polyder(self.coef, m))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(npp.polyadd(self.coef, _coef(other)))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(npp.polysub(self.coef, _coef(other)))

    def __mul__(self, other) -> "Poly":
        if np.isscalar(other):
            return Poly(self.coef * other)
        return Poly(npp.polymul(self.coef, _coef(other)))

    __rmul__ = __mul__

    def __neg__(self) -> "Poly":
        return Poly(-self.coef)

    def chop(self, tol: float) -> "Poly":
        """Zero out coefficients below an absolute threshold."""
        c = np.where(np.abs(self.coef) <= tol, 0.0, self.coef)
        return Poly(c)

    @staticmethod
    def from_roots(roots) -> "Poly":
        return Poly(npp.polyfromroots(roots).real)

    @staticmethod
    def zero() -> "Poly":
        return Poly([0.0])


def _coef(p):
    return p.coef if isinstance(p, Poly) else np.atleast_1d(np.asarray(p, float))


def poly_wronskian(f: Poly, g: Poly) -> Poly:
    """f ∧ g = f g' - f' g."""
    return f * g.deriv() - f.deriv() * g


def poly_wronskian3(f: Poly, g: Poly, h: Poly) -> Poly:
    """3x3 determinant of [f g h; f' g' h'; f'' g'' h'']."""
    f1, g1, h1 = f.deriv(), g.deriv(), h.deriv()
    f2, g2, h2 = f1.deriv(), g1.deriv(), h1.deriv()
    return (
        f * (g1 * h2 - h1 * g2)
        - g * (f1 * h2 - h1 * f2)
        + h * (f1 * g2 - g1 * f2)
    )


def poly_roots(p: Poly) -> np.ndarray:
    """All complex roots via companion-matrix eigensolve."""
    if p.is_zero:
        raise ValueError("poly_roots: zero polynomial")
    c = p.coef
    n = len(c) - 1
    if n == 0:
        return np.array([], dtype=complex)
    # monic companion matrix, ascending input
    monic = c / c[-1]
    C = np.zeros((n, n))
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -monic[:-1]
    return eig_dense(C).values


def resultant(p: Poly, q: Poly) -> float:
    """Sylvester-determinant resultant; zero iff p and q share a root."""
    if p.is_zero or q.is_zero:
        raise ValueError("resultant: zero polynomial input")
    m, n = p.degree, q.degree
    if m == 0 and n == 0:
        return 1.0
    # Sylvester matrix is (m+n) x (m+n); rows carry shifted coefficients
    S = np.zeros((m + n, m + n))
    pc = p.coef[::-1]  # descending
    qc = q.coef[::-1]
    for i in range(n):
        S[i, i : i + m + 1] = pc
    for i in range(m):
        S[n + i, i : i + n + 1] = qc
    # det sums log|pivot|; a zero pivot that LAPACK leaves unflagged (seen with
    # a subnormal coefficient) takes log(0) and warns, though det = 0 is exact
    with np.errstate(divide="ignore"):
        return float(np.linalg.det(S))


# ---------------------------------------------------------------------------
# elliptic functions (modulus convention: k, not the parameter m = k^2)

_AGM_TOL = 1e-15


def elliptic_K_E(k: float) -> tuple[float, float]:
    """Complete elliptic integrals K(k), E(k) by the arithmetic-geometric mean."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_K_E: modulus k={k} outside [0,1)")
    a, b, c = 1.0, float(np.sqrt(1.0 - k * k)), float(k)
    csum = 0.5 * c * c  # 2^{n-1} c_n^2 accumulator, n = 0 term
    pow2 = 0.5
    while abs(c) > _AGM_TOL:
        a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return float(K), float(E)


def jacobi_sn_cn_dn(x, k: float):
    """Jacobi sn, cn, dn via the descending Landen (Gauss) transformation."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"jacobi_sn_cn_dn: modulus k={k} outside [0,1)")
    x = np.asarray(x, dtype=float)
    if k == 0.0:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    else:
        a, b, c = 1.0, float(np.sqrt(1.0 - k * k)), float(k)
        aa, cc = [a], [c]
        while abs(c) > _AGM_TOL:
            a, b, c = 0.5 * (a + b), float(np.sqrt(a * b)), 0.5 * (a - b)
            aa.append(a)
            cc.append(c)
        n = len(aa) - 1
        phi = (2.0**n) * aa[n] * x
        for i in range(n, 0, -1):
            phi = 0.5 * (phi + np.arcsin(np.clip(cc[i] / aa[i] * np.sin(phi), -1, 1)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(np.clip(1.0 - (k * sn) ** 2, 0.0, None))
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
