"""Foundation numerics: polynomial values and derivatives; elliptic functions.

Polynomials are stored as dense ascending coefficient vectors; degrees stay
small (bounded by matrix dimension) so no sparse representation is needed.
`horner` and `derivative` are the package's one evaluator and derivative rule;
they take ascending coefficient lists or arrays.  `Poly` is only the value in
which the split's polynomials are stored and serialised: the library forms no
sums or products of polynomials, so it has no algebra.  The one polynomial
root finder in the package, the front's turning points, calls LAPACK's geev on
a companion matrix itself (allencahn.turning_points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp


# ---------------------------------------------------------------------------
# polynomials


def horner(c, x):
    """The polynomial with ascending coefficients c (a list, or rows along
    the first axis that broadcast against a real or complex x) at x, in
    npp.polyval's order: y = c[-1] + 0 x, then y = y x + c[k] down to k = 0."""
    y = c[-1] + x * 0
    for a in c[-2::-1]:
        y *= x
        y += a
    return y


def derivative(c):
    """The list of k c[k], k >= 1, the derivative's ascending coefficients
    (rows) as npp.polyder computes them; a constant's is one zero."""
    return [k * c[k] for k in range(1, len(c))] or [0.0 * c[0]]


@dataclass(frozen=True)
class Poly:
    """One polynomial of the split, trimmed ascending coefficients.  Zero <-> coef=[0]."""

    coef: np.ndarray

    def __init__(self, coef):
        c = np.atleast_1d(np.asarray(coef, dtype=float))
        c = npp.polytrim(c)
        object.__setattr__(self, "coef", c)

    @property
    def is_zero(self) -> bool:
        return self.coef.size == 1 and self.coef[0] == 0.0

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else self.coef.size - 1

    def __call__(self, x):
        return horner(self.coef, np.asarray(x) if isinstance(x, (list, tuple)) else x)


# ---------------------------------------------------------------------------
# elliptic functions (modulus convention: k, not the parameter m = k^2)

_AGM_TOL = 1e-15


def _agm(k: float) -> tuple[list[float], list[float]]:
    """The arithmetic-geometric mean of 1 and sqrt(1 - k^2): the lists of
    its a_i and of c_i = (a_{i-1} - b_{i-1})/2, from c_0 = k to the first
    |c_i| <= _AGM_TOL."""
    a, b, c = 1.0, math.sqrt(1.0 - k * k), float(k)
    aa, cc = [a], [c]
    while abs(c) > _AGM_TOL:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        aa.append(a)
        cc.append(c)
    return aa, cc


def elliptic_K_E(k: float) -> tuple[float, float]:
    """Complete elliptic integrals K(k), E(k) by the arithmetic-geometric mean."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"elliptic_K_E: modulus k={k} outside [0,1)")
    aa, cc = _agm(k)
    csum = 0.5 * cc[0] * cc[0]  # the sum of 2^{i-1} c_i^2, in order of i
    pow2 = 0.5
    for c in cc[1:]:
        pow2 *= 2.0
        csum += pow2 * c * c
    K = np.pi / (2.0 * aa[-1])
    E = K * (1.0 - csum)
    return float(K), float(E)


def jacobi_sn_cn_dn(x, k: float):
    """Jacobi sn, cn, dn via the descending Landen (Gauss) transformation.

    No clipping is needed: each stage's arcsin argument is at most
    c_i/a_i < 1 in size, and 1 - k^2 sn^2 >= 1 - k^2 > 0.  A stage with
    c_i/a_i <= 2^-56 only halves phi: its arcsin term is below a quarter ulp
    of phi, so phi plus that term rounds to phi.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"jacobi_sn_cn_dn: modulus k={k} outside [0,1)")
    x = np.asarray(x, dtype=float)
    if k == 0.0:
        sn, cn, dn = np.sin(x), np.cos(x), np.ones_like(x)
    else:
        aa, cc = _agm(k)
        n = len(aa) - 1
        phi = (2.0**n) * aa[n] * x
        for i in range(n, 0, -1):
            r = cc[i] / aa[i]
            if r <= 2.0**-56:
                phi = 0.5 * phi
            else:
                phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(1.0 - (k * sn) ** 2)
    if sn.ndim == 0:
        return float(sn), float(cn), float(dn)
    return sn, cn, dn
