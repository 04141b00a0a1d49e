"""Oracles for the kernel tests that the library itself does not use.

resultant decides whether two polynomials share a root by the determinant of
their Sylvester matrix, without computing any root.  poly_wronskian is the
derivative wedge that the curve oracles build their Cramer solutions from.
poly_roots_of_poly is kernel.poly_roots as it was when it took a Poly, whose
bits the coefficient-list route keeps.
"""

import numpy as np

from spectral_atlas.kernel import Poly


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
    return f * g.deriv() - f.deriv() * g


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
