"""Oracles for the phase tests that the library itself does not use.

local_splitting decides how a near-double eigenvalue splits from the local
quadratic model of F = D + rho1 P1 + rho2 P2 + rho1 rho2 Q, not from the
stacked eigensolves with which phase.phase_grid classifies the plane.
"""

import numpy as np

from spectral_atlas.lowrank import AKDecomposition

from lowrank_oracle import charpoly


def local_splitting(
    dec: AKDecomposition,
    lam0: float,
    rho1: float,
    rho2: float,
    eps: float = 1e-9,
    probe_radius: float = 1e-3,
    double_radius: float | None = None,
) -> str:
    """How a (near-)double eigenvalue splits at a parameter point.

    Expands F(lam0 + delta) = c0 + c1 delta + c2 delta^2 and reads the
    discriminant c1^2 - 4 c2 c0.  On a curve or at an organizing point the
    discriminant itself vanishes; then 16 nearby parameter directions are
    probed and the splitting is declared 'real_pair' or 'complex_pair' only
    if all probes agree.
    """
    F = charpoly(dec, rho1, rho2)
    scale = max(np.max(np.abs(F.coef)), 1.0)
    c0, c1, c2 = F(lam0), F.deriv()(lam0), 0.5 * F.deriv(2)(lam0)
    if abs(c2) <= 1e-12 * scale:
        raise ValueError("no quadratic term: lambda0 is not a double-root candidate")
    # near-double precondition: both roots of the local quadratic model sit
    # within a small window around lambda0
    if double_radius is None:
        double_radius = 0.1 * (1.0 + abs(lam0))
    rts = np.roots([c2, c1, c0])
    if np.max(np.abs(rts)) > double_radius:
        raise ValueError(
            "lambda0 is not a near-double eigenvalue at this parameter point"
        )
    disc = c1 * c1 - 4.0 * c2 * c0
    if abs(disc) > eps * scale**2:
        return "real_pair" if disc > 0 else "complex_pair"

    signs = []
    for th in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        r1 = rho1 + probe_radius * np.cos(th)
        r2 = rho2 + probe_radius * np.sin(th)
        Fp = charpoly(dec, r1, r2)
        d0, d1, d2 = Fp(lam0), Fp.deriv()(lam0), 0.5 * Fp.deriv(2)(lam0)
        signs.append(np.sign(d1 * d1 - 4.0 * d2 * d0))
    if all(s > 0 for s in signs):
        return "real_pair"
    if all(s < 0 for s in signs):
        return "complex_pair"
    raise ValueError(
        "splitting is direction dependent at this point (curve or cusp); "
        "no single label applies"
    )
