"""Continuum limit of the integrator: a diffusion-like operator on (0, L)
with two point-coupled feedback cells.

Eigenfunctions are piecewise trigonometric (lambda above the continuum band
edge maps to oscillatory pieces) or piecewise hyperbolic; both branches are
parametrized by a wavenumber omega with

    trig:   lambda = -1 + 3 beta - beta dx^2 omega^2
    hyper:  lambda = -1 + 3 beta + beta dx^2 omega^2.

The feedback enters through derivative jumps at the coupling points x1, x2;
eliminating the cell variables leaves the scalar eigencondition
0 = 1 + rho1 P(omega, x1) + rho2 P(omega, x2).  Because both consistency
functionals integrate against the same constant density, the bilinear term
of the general decomposition vanishes identically here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import CurveBranch, grid_branch
from .integrator import beta_for


class ResonantFrequencyError(ValueError):
    """omega hits the unperturbed Dirichlet spectrum; the pieces degenerate."""


@dataclass(frozen=True)
class ContinuumSpec:
    N: int = 12
    L: float = 1.0
    x1: float = 1.0 / 3.0
    x2: float = 0.5
    alpha: float = 200.0
    lambda1_target: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.x1 < self.x2 < self.L:
            raise ValueError("need 0 < x1 < x2 < L")

    @property
    def beta(self) -> float:
        return beta_for(self.N, self.alpha, self.lambda1_target)

    @property
    def dx(self) -> float:
        return self.L / self.N


@dataclass(frozen=True)
class BranchParam:
    omega: float
    branch: str  # 'trig' | 'hyper'

    def __post_init__(self):
        if self.branch not in ("trig", "hyper"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")


def branch_lambda(bp: BranchParam, spec: ContinuumSpec) -> float:
    beta, dx = spec.beta, spec.dx
    s = -1.0 if bp.branch == "trig" else 1.0
    return -1.0 + 3.0 * beta + s * beta * dx**2 * bp.omega**2


# ---------------------------------------------------------------------------
# closed-form cell response


# The helpers below take the branch name and omega, a scalar or an array.


def _denom(spec: ContinuumSpec, branch: str, om):
    """Shared denominator of the cell response: beta^2 dx^3 w^2 (3 -+ dx^2 w^2) sin(h) w."""
    beta, dx = spec.beta, spec.dx
    if branch == "trig":
        return beta**2 * dx**3 * om**2 * (3.0 - dx**2 * om**2) * np.sin(om * spec.L)
    return beta**2 * dx**3 * om**2 * (3.0 + dx**2 * om**2) * np.sinh(om * spec.L)


def _numer(spec: ContinuumSpec, branch: str, om, x: float):
    L = spec.L
    if branch == "trig":
        return np.sin(om * L) - np.sin(om * x) - np.sin(om * (L - x))
    return np.sinh(om * x) + np.sinh(om * (L - x)) - np.sinh(om * L)


def _numer_domega(spec: ContinuumSpec, branch: str, om, x: float):
    L = spec.L
    if branch == "trig":
        return (
            L * np.cos(om * L) - x * np.cos(om * x) - (L - x) * np.cos(om * (L - x))
        )
    return x * np.cosh(om * x) + (L - x) * np.cosh(om * (L - x)) - L * np.cosh(om * L)


def _denom_domega(spec: ContinuumSpec, branch: str, om):
    beta, dx, L = spec.beta, spec.dx, spec.L
    C = beta**2 * dx**3
    if branch == "trig":
        return C * (
            (6.0 * om - 4.0 * dx**2 * om**3) * np.sin(om * L)
            + (3.0 * om**2 - dx**2 * om**4) * L * np.cos(om * L)
        )
    return C * (
        (6.0 * om + 4.0 * dx**2 * om**3) * np.sinh(om * L)
        + (3.0 * om**2 + dx**2 * om**4) * L * np.cosh(om * L)
    )


def cell_response(spec: ContinuumSpec, bp: BranchParam, x: float) -> float:
    """P(omega, x): the scalar feedback response of a cell coupled at x."""
    den = _denom(spec, bp.branch, bp.omega)
    if abs(den) < 1e-300:
        raise ResonantFrequencyError(f"omega={bp.omega} is resonant")
    return _numer(spec, bp.branch, bp.omega, x) / den


def eigencondition_closed(
    spec: ContinuumSpec, bp: BranchParam, rho1: float, rho2: float
) -> float:
    return (
        1.0
        + rho1 * cell_response(spec, bp, spec.x1)
        + rho2 * cell_response(spec, bp, spec.x2)
    )


# ---------------------------------------------------------------------------
# Green's-function route (dual to the closed form)


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


# ---------------------------------------------------------------------------
# envelope in the omega parametrization


def _envelope(spec: ContinuumSpec, branch: str, om):
    """Envelope (rho1, rho2) at each omega, with N1 ^ N2 and the size of its two terms.

    With the bilinear term absent the system 1 + rho.P = 0, rho.P' = 0 is
    linear; writing P_i = N_i/S,
        rho1 = -(N2' S - N2 S') / LambdaN,   rho2 = (N1' S - N1 S') / LambdaN
    with LambdaN = N1 ^ N2 = N1 N2' - N1' N2 (the asymptote locus is
    LambdaN = 0, where rho is inf or nan).
    """
    if np.size(om):
        BranchParam(float(np.min(om)), branch)  # validates branch and omega > 0
    n1, n2 = _numer(spec, branch, om, spec.x1), _numer(spec, branch, om, spec.x2)
    d1, d2 = _numer_domega(spec, branch, om, spec.x1), _numer_domega(spec, branch, om, spec.x2)
    S, Sp = _denom(spec, branch, om), _denom_domega(spec, branch, om)
    lamN = n1 * d2 - d1 * n2
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = -(d2 * S - n2 * Sp) / lamN
        r2 = (d1 * S - n1 * Sp) / lamN
    return r1, r2, lamN, np.maximum(np.abs(n1 * d2), np.abs(d1 * n2))


def envelope_rho(spec: ContinuumSpec, bp: BranchParam):
    """(rho1, rho2) where lambda(omega) is a double eigenvalue (see _envelope)."""
    r1, r2, lamN, _ = _envelope(spec, bp.branch, bp.omega)
    if lamN == 0.0:
        raise ZeroDivisionError("envelope asymptote: N1 ^ N2 vanishes")
    return float(r1), float(r2)


def envelope_asymptotes(
    spec: ContinuumSpec, omega_window: tuple[float, float], branch: str = "trig",
    samples: int = 4000, tol: float = 1e-12,
) -> list[float]:
    """omegas where the envelope diverges: bracketed zeros of N1 N2' - N1' N2."""
    lo, hi = omega_window
    oms = np.linspace(lo, hi, samples)
    vals = _envelope(spec, branch, oms)[2]
    out = []
    for i in np.flatnonzero((np.sign(vals[:-1]) != np.sign(vals[1:])) & (vals[:-1] != 0.0)):
        a, b = oms[i], oms[i + 1]
        fa = vals[i]
        while b - a > tol * max(1.0, abs(a)):
            m = 0.5 * (a + b)
            fm = _envelope(spec, branch, m)[2]
            if np.sign(fm) == np.sign(fa):
                a, fa = m, fm
            else:
                b = m
        out.append(0.5 * (a + b))
    return out


def continuum_envelope(
    spec: ContinuumSpec, omega_samples, branch: str = "trig"
) -> CurveBranch:
    """Envelope curve swept over omega; asymptote intervals become gaps.

    Samples where N1 ^ N2 vanishes to within 1e-9 of its terms are dropped;
    a sign change of N1 ^ N2 between samples is a break.
    """
    om = np.asarray(omega_samples, float)
    r1, r2, lamN, scale = _envelope(spec, branch, om)
    kept = ~(np.abs(lamN) <= 1e-9 * np.maximum(scale, 1e-300))
    sign = np.sign(lamN)
    breaks = np.concatenate([[False], sign[1:] != sign[:-1]])
    return grid_branch(
        f"continuum-envelope-{branch}", branch, "omega", om, r1, r2, kept, breaks
    )


# ---------------------------------------------------------------------------
# first-quadrant impossibility lemma


def lemma_f_domega(spec: ContinuumSpec, omega, x):
    """Analytic d/domega of the hyperbolic cell response; positive throughout.

    The hyperbolic envelope satisfies rho1/rho2 = -f'(x2)/f'(x1), so a
    one-signed derivative pins the ratio negative for every coupling pair.
    omega and x may be arrays that broadcast against each other.
    """
    S = _denom(spec, "hyper", omega)
    return (
        _numer_domega(spec, "hyper", omega, x) * S
        - _numer(spec, "hyper", omega, x) * _denom_domega(spec, "hyper", omega)
    ) / S**2


def bigF(spec: ContinuumSpec, omega: float, x) -> np.ndarray:
    """Boundary-vanishing comparison function of the sign lemma.

    F(0) = F(1) = 0 and F keeps one sign on the interior (numerically it is
    negative: the second, sinh-weighted term dominates), which is what the
    quadrant argument needs from it.
    """
    x = np.asarray(x, float)
    om, dx = omega, spec.dx
    ch = np.cosh(om)
    t1 = (12.0 + 8.0 * dx**2 * om**2) * (
        1.0 + ch - np.cosh(om * x) - np.cosh(om * (1.0 - x))
    ) / (1.0 + ch)
    t2 = 2.0 * om * (3.0 + dx**2 * om**2) * (
        (1.0 - x) * np.sinh(om * x) + x * np.sinh(om * (1.0 - x))
    )
    return t1 - t2


def quadrant_ratio(spec: ContinuumSpec, omega, x1, x2):
    """Envelope ratio rho1/rho2 = -f'(x2)/f'(x1) on the hyperbolic branch.

    omega, x1 and x2 broadcast against each other; the ratio is negative
    wherever the lemma holds.  ZeroDivisionError if f'(x1) vanishes anywhere.
    """
    d1 = lemma_f_domega(spec, omega, x1)
    if np.any(d1 == 0.0):
        raise ZeroDivisionError("cell-response derivative vanishes at x1")
    return -lemma_f_domega(spec, omega, x2) / d1


def quadrant_sign_check(
    spec: ContinuumSpec, omega: float, x1: float | None = None, x2: float | None = None
):
    """Sign of rho1/rho2 on the hyperbolic envelope at coupling points x1, x2.

    Returns (sign_ratio, F_values): quadrant_ratio at one point (negative
    whenever the lemma holds) and samples of the comparison function at
    (0, x1, x2, 1).
    """
    if x1 is None:
        x1 = spec.x1
    if x2 is None:
        x2 = spec.x2
    ratio = quadrant_ratio(spec, omega, x1, x2)
    return float(ratio), bigF(spec, omega, np.array([0.0, x1, x2, 1.0]))
