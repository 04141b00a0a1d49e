"""Oracles for the curve tests that the library itself does not use.

poly_envelope_rows and poly_hopf_rows evaluate the split one polynomial at a
time with npp.polyval and npp.polyder, the route the curves took before they
read every row from one coefficient array through kernel.horner.
envelope_q_zero solves the envelope system by Cramer's rule when Q = 0,
and genericity_check classifies the envelope system at one lambda by the
ranks of its rows and by Wronskian identities.  Neither goes through the
batched bilinear row solver with which curves.envelope sweeps.
triple_points_mp finds triple points by elimination in 50-digit arithmetic,
from determinants of the perturbed matrix, apart from the decomposition and
from the envelope sweep that curves.triple_points refines.
"""

import mpmath as mp
import numpy as np
import numpy.polynomial.polynomial as npp

from spectral_atlas.curves import DegenerateCurveError
from spectral_atlas.lowrank import AKDecomposition, LowRankProblem

from kernel_oracle import poly_wronskian


def generic_problem(rng, n: int) -> LowRankProblem:
    """A well-scaled rank-two problem with a stable base matrix near -2 I.

    M = -2 I + 0.8 G / sqrt(n), then f1, g1, f2, g2 = 1.5 N(0, 1) / sqrt(n),
    drawn from rng in that order.
    """
    M = -2.0 * np.eye(n) + 0.8 * rng.standard_normal((n, n)) / np.sqrt(n)
    f1, g1, f2, g2 = 1.5 * rng.standard_normal((4, n)) / np.sqrt(n)
    return LowRankProblem(M, f1, g1, f2, g2)


def poly_envelope_rows(dec: AKDecomposition, lam):
    """Rows (F, dF/dlambda) at each lambda, shape lam.shape + (4,)."""
    cs = [p.coef for p in (dec.D, dec.P1, dec.P2, dec.Q)]
    a = np.stack([npp.polyval(lam, c) for c in cs], axis=-1)
    b = np.stack([npp.polyval(lam, npp.polyder(c)) for c in cs], axis=-1)
    return a, b


def poly_hopf_rows(dec: AKDecomposition, omega):
    """Rows (Re F, Im F) at lambda = i omega, shape omega.shape + (4,)."""
    z = 1j * np.asarray(omega)
    v = np.stack([npp.polyval(z, p.coef) for p in (dec.D, dec.P1, dec.P2, dec.Q)], axis=-1)
    return v.real, v.imag


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
    b = np.array([npp.polyval(lam, npp.polyder(p.coef)) for p in polys])
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
    scale = max(*(np.max(np.abs(p.coef)) for p in polys), 1.0) ** 2
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


# -- triple points by elimination, in mpmath -------------------------------
# polynomials are lists of mpf coefficients in ascending order


def _add(p, q, sign=1):
    m = max(len(p), len(q))
    p, q = p + [mp.mpf(0)] * (m - len(p)), q + [mp.mpf(0)] * (m - len(q))
    return [a + sign * b for a, b in zip(p, q)]


def _mul(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _der(p):
    return [j * p[j] for j in range(1, len(p))] or [mp.mpf(0)]


def _wronskian3(f, g, h):
    """det [f g h; f' g' h'; f'' g'' h''] as a polynomial."""
    f1, g1, h1 = _der(f), _der(g), _der(h)
    f2, g2, h2 = _der(f1), _der(g1), _der(h1)

    def minor(u1, u2, v1, v2):
        return _add(_mul(u1, v2), _mul(v1, u2), -1)

    cofactors = _add(_mul(f, minor(g1, g2, h1, h2)), _mul(g, minor(f1, f2, h1, h2)), -1)
    return _add(cofactors, _mul(h, minor(f1, f2, g1, g2)))


def _charpoly(A):
    """Ascending coefficients of det(A - x I), interpolated at x = 0, ..., n."""
    n = A.rows
    V = mp.matrix([[mp.mpf(x) ** j for j in range(n + 1)] for x in range(n + 1)])
    dets = mp.matrix([mp.det(A - x * mp.eye(n)) for x in range(n + 1)])
    return list(mp.lu_solve(V, dets))


def triple_points_mp(prob: LowRankProblem, window, dps: int = 50):
    """Triple points (lam, rho1, rho2) with lam in the window, ascending.

    D, P1, P2 and Q are interpolated from det(M + rho1 f1 g1^T + rho2 f2 g2^T
    - lambda I) at (rho1, rho2) in {0, 1}^2.  With W(f, g, h) the determinant
    of f, g, h and their first two derivatives, and W = W(P1, P2, Q),
    Cramer's rule solves F = F' = F'' = 0, linear in x = (rho1, rho2,
    rho1 rho2), as x1 = -W(D, P2, Q)/W, x2 = -W(P1, D, Q)/W and
    x3 = -W(P1, P2, D)/W.  These are consistent, x1 x2 = x3, where
        G = W(P1, P2, Q) W(P1, P2, D) + W(D, P2, Q) W(P1, D, Q)
    vanishes.  G has triple points as multiple roots, which dps digits
    resolve to about dps/2.  Every real root of G in the window gives the
    point (lam, x1, x2); a root where W vanishes too raises ValueError.
    """
    with mp.workdps(dps):
        M = mp.matrix(prob.M.tolist())
        f1, g1, f2, g2 = (mp.matrix(v.tolist()) for v in (prob.f1, prob.g1, prob.f2, prob.g2))
        c00, c10, c01, c11 = (
            _charpoly(M + r1 * (f1 * g1.T) + r2 * (f2 * g2.T))
            for r1, r2 in ((0, 0), (1, 0), (0, 1), (1, 1))
        )
        D, P1, P2 = c00, _add(c10, c00, -1), _add(c01, c00, -1)
        Q = _add(_add(c11, c10, -1), _add(c01, c00, -1), -1)
        W = _wronskian3(P1, P2, Q)
        W1, W2 = _wronskian3(D, P2, Q), _wronskian3(P1, D, Q)
        G = _add(_mul(W, _wronskian3(P1, P2, D)), _mul(W1, W2))
        # leading terms that cancel exactly leave dps-digit rounding behind
        big = max(abs(c) for c in G)
        while abs(G[-1]) <= mp.mpf(10) ** (15 - dps) * big:
            G.pop()
        out = []
        for z in mp.polyroots(G[::-1], maxsteps=400, extraprec=4 * dps):
            lam = mp.re(z)
            if abs(mp.im(z)) > 1e-15 * max(1, abs(z)) or not window[0] <= lam <= window[1]:
                continue
            if any(abs(lam - o[0]) <= 1e-12 for o in out):
                continue
            at = lambda p: mp.polyval(p[::-1], lam)
            w = at(W)
            if abs(w) <= mp.mpf(10) ** (15 - dps) * mp.polyval([abs(c) for c in W[::-1]], abs(lam)):
                raise ValueError(f"W(P1, P2, Q) vanishes at the root lambda = {float(lam)}")
            out.append((lam, -at(W1) / w, -at(W2) / w))
        return sorted((float(lam), float(r1), float(r2)) for lam, r1, r2 in out)
