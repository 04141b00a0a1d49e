"""Oracles for the curve tests that the library itself does not use.

envelope_q_zero solves the envelope system by Cramer's rule when Q = 0,
and genericity_check classifies the envelope system at one lambda by the
ranks of its rows and by Wronskian identities.  Neither goes through the
batched bilinear row solver with which curves.envelope sweeps.
"""

import numpy as np

from spectral_atlas.curves import DegenerateCurveError
from spectral_atlas.kernel import poly_wronskian
from spectral_atlas.lowrank import AKDecomposition


def envelope_q_zero(dec: AKDecomposition, lam: float):
    """Envelope point when Q vanishes identically (rank-one-like coupling).

    With Q = 0 the system F = F' = 0 is linear; by Cramer's rule
      rho1 = (P2 ^ D) / (P1 ^ P2),  rho2 = -(P1 ^ D) / (P1 ^ P2)
    where ^ is the derivative wedge f g' - f' g evaluated at lambda.
    """
    w12 = poly_wronskian(dec.P1, dec.P2)(lam)
    if w12 == 0.0:
        raise DegenerateCurveError("P1 ^ P2 vanishes at this lambda")
    r1 = poly_wronskian(dec.P2, dec.D)(lam) / w12
    r2 = -poly_wronskian(dec.P1, dec.D)(lam) / w12
    return float(r1), float(r2)


def genericity_check(dec: AKDecomposition, lam: float, rank_tol: float = 1e-9) -> str:
    """Classify the envelope system at lambda.

    Returns one of:
      'generic'       - the two-row system has full rank in (P1, P2, Q)
      'inconsistent'  - F = F' = 0 has no solution at this lambda
      'C1'            - both rows of (D, P1, P2, Q) are dependent (the
                        derivative condition is vacuous; the zero set of F
                        itself is the singular piece)
      'C2'            - P2 proportional to Q with matching D, P1 relations
      'C3'            - mirror of C2 with the roles of P1 and P2 swapped
    """
    polys = (dec.D, dec.P1, dec.P2, dec.Q)
    a = np.array([p(lam) for p in polys])
    b = np.array([p.deriv()(lam) for p in polys])
    M3 = np.vstack([a[1:], b[1:]])
    M4 = np.vstack([a, b])

    def rank(M):
        s = np.linalg.svd(M, compute_uv=False)
        return int(np.sum(s > rank_tol * max(s[0], 1.0)))

    r3, r4 = rank(M3), rank(M4)
    if r4 < 2:
        return "C1"
    if r3 < r4:
        return "inconsistent"

    w = lambda f, g: poly_wronskian(f, g)(lam)
    scale = max(dec.D.norm, dec.P1.norm, dec.P2.norm, dec.Q.norm, 1.0) ** 2
    tol = rank_tol * scale
    if (
        abs(w(dec.P1, dec.Q)) > tol
        and abs(w(dec.P2, dec.Q)) <= tol
        and abs(w(dec.D, dec.P1)) <= tol
        and abs(w(dec.P1, dec.P2) - w(dec.D, dec.Q)) <= tol
    ):
        return "C2"
    if (
        abs(w(dec.P2, dec.Q)) > tol
        and abs(w(dec.P1, dec.Q)) <= tol
        and abs(w(dec.D, dec.P2)) <= tol
        and abs(w(dec.P1, dec.P2) - w(dec.D, dec.Q)) <= tol
    ):
        return "C3"
    return "generic"
