"""Oracles for the continuum tests that the library itself does not use.

cell_response evaluates the cell response in its direct form, before the
common factor 2 s(omega L/2) is divided out, and the Green's-function route
assembles the eigencondition from the piecewise eigenfunction by a 4x4
matching solve.  Neither goes through the reduced forms with which
continuum.continuum_envelope and the lemma check work.
"""

from typing import NamedTuple

import numpy as np

from spectral_atlas.continuum import ContinuumSpec


class BranchParam(NamedTuple):
    """A wavenumber omega on the 'trig' or the 'hyper' branch."""

    omega: float
    branch: str


class ResonantFrequencyError(ValueError):
    """omega hits the unperturbed Dirichlet spectrum; the pieces degenerate."""


def branch_lambda(bp: BranchParam, spec: ContinuumSpec) -> float:
    beta, dx = spec.beta, spec.dx
    s = -1.0 if bp.branch == "trig" else 1.0
    return -1.0 + 3.0 * beta + s * beta * dx**2 * bp.omega**2


def cell_response(spec: ContinuumSpec, bp: BranchParam, x: float) -> float:
    """P(omega, x): the scalar feedback response of a cell coupled at x.

    Direct form: (sin(wL) - sin(wx) - sin(w(L-x))) over
    beta^2 dx^3 w^2 (3 - dx^2 w^2) sin(wL) on the trig branch, and
    (sinh(wx) + sinh(w(L-x)) - sinh(wL)) over
    beta^2 dx^3 w^2 (3 + dx^2 w^2) sinh(wL) on the hyper one.
    """
    om, L = bp.omega, spec.L
    beta, dx = spec.beta, spec.dx
    if bp.branch == "trig":
        num = np.sin(om * L) - np.sin(om * x) - np.sin(om * (L - x))
        den = beta**2 * dx**3 * om**2 * (3.0 - dx**2 * om**2) * np.sin(om * L)
    else:
        num = np.sinh(om * x) + np.sinh(om * (L - x)) - np.sinh(om * L)
        den = beta**2 * dx**3 * om**2 * (3.0 + dx**2 * om**2) * np.sinh(om * L)
    if abs(den) < 1e-300:
        raise ResonantFrequencyError(f"omega={bp.omega} is resonant")
    return num / den


def eigencondition_closed(
    spec: ContinuumSpec, bp: BranchParam, rho1: float, rho2: float
) -> float:
    return (
        1.0
        + rho1 * cell_response(spec, bp, spec.x1)
        + rho2 * cell_response(spec, bp, spec.x2)
    )


def _pieces(spec: ContinuumSpec, bp: BranchParam):
    om, L = bp.omega, spec.L
    if bp.branch == "trig":
        s, c = np.sin, np.cos
    else:
        s, c = np.sinh, np.cosh
    return om, L, s, c


def greens_coefficients(
    spec: ContinuumSpec, bp: BranchParam, rho1: float, rho2: float
):
    """Piecewise eigenfunction coefficients (A, B, C, D) and the BVP residual.

    The eigenfunction is A s(omega x) on (0,x1), B s(omega x) + C c(omega x)
    on (x1,x2) and D s(omega (L-x)) on (x2,L), with s/c = sin/cos (trig) or
    sinh/cosh (hyper); continuity at x1, x2 plus the feedback derivative
    jumps rho_i / (beta dx^3 (lambda+1)) close the 4x4 system (this fixes
    the normalization <1, psi> = -1 at an eigen-triple).
    """
    om, L, s, c = _pieces(spec, bp)
    x1, x2 = spec.x1, spec.x2
    beta, dx = spec.beta, spec.dx
    lam1 = branch_lambda(bp, spec) + 1.0  # = beta (3 -+ dx^2 om^2)
    j1 = rho1 / (beta * dx**3 * lam1)
    j2 = rho2 / (beta * dx**3 * lam1)
    # rows: continuity x1, continuity x2, jump x1, jump x2
    M = np.array(
        [
            [s(om * x1), -s(om * x1), -c(om * x1), 0.0],
            [0.0, s(om * x2), c(om * x2), -s(om * (L - x2))],
            [
                -om * c(om * x1),
                om * c(om * x1),
                om * _cprime(bp, om * x1),
                0.0,
            ],
            [
                0.0,
                -om * c(om * x2),
                -om * _cprime(bp, om * x2),
                -om * c(om * (L - x2)),
            ],
        ]
    )
    rhs = np.array([0.0, 0.0, j1, j2])
    # resonance test scaled by the Hadamard bound so that the large entries
    # of the hyperbolic pieces do not trigger false positives
    hadamard = np.prod(np.linalg.norm(M, axis=1))
    if abs(np.linalg.det(M)) < 1e-12 * hadamard:
        raise ResonantFrequencyError(
            f"omega={bp.omega} makes the matching system singular"
        )
    w = np.linalg.solve(M, rhs)
    residual = float(np.max(np.abs(M @ w - rhs)))
    return w, residual


def _cprime(bp: BranchParam, arg: float) -> float:
    # d/darg of the cosine-like piece: -sin (trig) or +sinh (hyper)
    return -np.sin(arg) if bp.branch == "trig" else np.sinh(arg)


def gvector(spec: ContinuumSpec, bp: BranchParam) -> np.ndarray:
    """Integrals of the three pieces against the constant-1 density."""
    om, L, s, c = _pieces(spec, bp)
    x1, x2 = spec.x1, spec.x2
    if bp.branch == "trig":
        return (
            np.array(
                [
                    1.0 - np.cos(om * x1),
                    np.cos(om * x1) - np.cos(om * x2),
                    np.sin(om * x2) - np.sin(om * x1),
                    1.0 - np.cos(om * (L - x2)),
                ]
            )
            / om
        )
    return (
        np.array(
            [
                np.cosh(om * x1) - 1.0,
                np.cosh(om * x2) - np.cosh(om * x1),
                np.sinh(om * x2) - np.sinh(om * x1),
                np.cosh(om * (L - x2)) - 1.0,
            ]
        )
        / om
    )


def eigencondition(
    spec: ContinuumSpec, bp: BranchParam, rho1: float, rho2: float
) -> float:
    """1 + <1, psi> assembled from the Green's pieces; zero at eigen-triples."""
    w, _ = greens_coefficients(spec, bp, rho1, rho2)
    return float(1.0 + gvector(spec, bp) @ w)
