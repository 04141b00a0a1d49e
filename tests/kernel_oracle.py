"""Oracles for the kernel tests that the library itself does not use.

resultant decides whether two polynomials share a root by the determinant of
their Sylvester matrix, without computing any root.  poly_wronskian is the
derivative wedge that the curve oracles build their Cramer solutions from,
formed with numpy.polynomial's algebra.
poly_roots is the companion-matrix root finder that kernel held while the
front's turning points took their roots from np.linalg.eigvals;
poly_roots_of_poly is the same route as it was when it took a Poly, whose
bits the coefficient-list route keeps.  clipped_sn_cn_dn is
kernel.jacobi_sn_cn_dn as it was with clipped arcsin and square-root
arguments and an arcsin at every Landen stage, whose bits the direct route
keeps.  loop_K_E is kernel.elliptic_K_E as it was with its own AGM loop,
whose bits the shared AGM keeps.
"""

import math

import numpy as np
import numpy.polynomial.polynomial as npp

from spectral_atlas.kernel import _AGM_TOL, Poly


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


def poly_wronskian(f: Poly, g: Poly) -> Poly:
    """f ∧ g = f g' - f' g."""
    f, g = f.coef, g.coef
    return Poly(npp.polysub(npp.polymul(f, npp.polyder(g)), npp.polymul(npp.polyder(f), g)))


def poly_roots_of_poly(p: Poly) -> np.ndarray:
    """All complex roots of a Poly via its monic companion matrix."""
    if p.is_zero:
        raise ValueError("poly_roots: zero polynomial")
    c = p.coef
    n = len(c) - 1
    if n == 0:
        return np.array([], dtype=complex)
    monic = c / c[-1]
    C = np.zeros((n, n))
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -monic[:-1]
    return np.linalg.eigvals(C)


def poly_roots(c) -> np.ndarray:
    """All complex roots of the polynomial with ascending coefficients c (a
    list or an array), by a companion-matrix eigensolve.

    Trailing zeros are trimmed first, as Poly trims them, and the companion
    matrix is built from c / c[-1]; a constant has no roots.  ValueError for
    the zero polynomial.
    """
    c = np.asarray(c, dtype=float)
    n = c.size - 1  # degree once trailing zeros are trimmed
    while n >= 0 and c[n] == 0.0:
        n -= 1
    if n < 0:
        raise ValueError("poly_roots: zero polynomial")
    if n == 0:
        return np.array([], dtype=complex)
    # monic companion matrix, ascending input
    C = np.zeros((n, n))
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -(c[:n] / c[n])
    return np.linalg.eigvals(C)


def clipped_sn_cn_dn(x, k: float):
    """Jacobi sn, cn, dn via the descending Landen (Gauss) transformation,
    with np.sqrt on the AGM steps and every argument clipped."""
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


def loop_K_E(k: float) -> tuple[float, float]:
    """Complete elliptic integrals K(k), E(k), summing 2^(n-1) c_n^2 inside
    the arithmetic-geometric mean loop."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_K_E: modulus k={k} outside [0,1)")
    a, b, c = 1.0, math.sqrt(1.0 - k * k), float(k)
    csum = 0.5 * c * c  # 2^{n-1} c_n^2 accumulator, n = 0 term
    pow2 = 0.5
    while abs(c) > _AGM_TOL:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    K = np.pi / (2.0 * a)
    E = K * (1.0 - csum)
    return float(K), float(E)
