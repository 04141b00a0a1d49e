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

Only the number of cells N is set: L = 1, x1 = 1/3 and x2 = 1/2 are fixed,
and beta follows the networks' alpha and slow rate (presets).  One rule,
_resolved's, decides which omega samples resolve the envelope, both for the
curve and for the brackets of its asymptotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .curves import CurveBranch, _refine, _sign_changes, grid_branch
from .integrator import beta_for
from . import presets as _presets


@dataclass(frozen=True)
class ContinuumSpec:
    """N coupling cells on (0, L), fed back to at x1 and x2; only N is set."""

    N: int = 12
    L: ClassVar[float] = 1.0
    x1: ClassVar[float] = 1.0 / 3.0
    x2: ClassVar[float] = 0.5

    @property
    def beta(self) -> float:
        return beta_for(self.N, _presets.AG_ALPHA, _presets.AG_LAMBDA1)

    @property
    def dx(self) -> float:
        return self.L / self.N


# ---------------------------------------------------------------------------
# closed-form cell response
#
# The response of a cell coupled at x is P(omega, x) = n(omega, x) / S(omega).
# The direct trig forms sin(omega L) - sin(omega x) - sin(omega (L-x)) and
# beta^2 dx^3 omega^2 (3 - dx^2 omega^2) sin(omega L), and their sinh
# analogues, share the factor 2 s(omega L/2).  With it divided out,
#
#     n = -2 s(omega x/2) s(omega (L-x)/2)
#     S = beta^2 dx^3 omega^2 (3 -+ dx^2 omega^2) c(omega L/2)
#
# where s and c are sin and cos on the trig branch (upper sign) and sinh
# and cosh on the hyper one.  The quotient has no 0/0 at omega L = 2 m pi
# and no cancellation at small omega.  The helpers take the branch name and
# omega, a scalar or an array.


def _branch_functions(branch: str):
    """(s, c, sign): sin, cos, -1 on the trig branch; sinh, cosh, +1 on hyper."""
    return (np.sin, np.cos, -1.0) if branch == "trig" else (np.sinh, np.cosh, 1.0)


def _numer(spec: ContinuumSpec, branch: str, om, x: float):
    s, _, _ = _branch_functions(branch)
    return -2.0 * s(0.5 * om * x) * s(0.5 * om * (spec.L - x))


def _numer_domega(spec: ContinuumSpec, branch: str, om, x: float):
    s, c, _ = _branch_functions(branch)
    a, b = 0.5 * om * x, 0.5 * om * (spec.L - x)
    return -(x * c(a) * s(b) + (spec.L - x) * s(a) * c(b))


def _denom(spec: ContinuumSpec, branch: str, om):
    _, c, sign = _branch_functions(branch)
    beta, dx = spec.beta, spec.dx
    return beta**2 * dx**3 * om**2 * (3.0 + sign * dx**2 * om**2) * c(0.5 * om * spec.L)


def _denom_domega(spec: ContinuumSpec, branch: str, om):
    s, c, sign = _branch_functions(branch)
    beta, dx, h = spec.beta, spec.dx, 0.5 * om * spec.L
    # c'(h) is -sin(h) on the trig branch and +sinh(h) on the hyper one
    return beta**2 * dx**3 * (
        (6.0 * om + sign * 4.0 * dx**2 * om**3) * c(h)
        + (3.0 * om**2 + sign * dx**2 * om**4) * 0.5 * spec.L * sign * s(h)
    )


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
    if branch not in ("trig", "hyper"):
        raise ValueError(f"unknown branch {branch!r}")
    if np.size(om) and not np.min(om) > 0.0:
        raise ValueError("omega must be positive")
    n1, n2 = _numer(spec, branch, om, spec.x1), _numer(spec, branch, om, spec.x2)
    d1, d2 = _numer_domega(spec, branch, om, spec.x1), _numer_domega(spec, branch, om, spec.x2)
    S, Sp = _denom(spec, branch, om), _denom_domega(spec, branch, om)
    lamN = n1 * d2 - d1 * n2
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = -(d2 * S - n2 * Sp) / lamN
        r2 = (d1 * S - n1 * Sp) / lamN
    return r1, r2, lamN, np.maximum(np.abs(n1 * d2), np.abs(d1 * n2))


def _resolved(spec: ContinuumSpec, branch: str, om):
    """_envelope's rho1, rho2 and N1 ^ N2, and the samples that resolve them.

    A sample is dropped where N1 ^ N2 is within 1e-9 of its terms (only
    rounding is left of it there), and where rho or N1 ^ N2 is not finite
    (sinh and cosh overflow from omega ~ 712).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2, lamN, scale = _envelope(spec, branch, om)
    kept = np.isfinite(r1) & np.isfinite(r2) & np.isfinite(lamN)
    kept &= ~(np.abs(lamN) <= 1e-9 * np.maximum(scale, 1e-300))
    return r1, r2, lamN, kept


# envelope_asymptotes brackets sign changes of N1 ^ N2 on this many samples
ASYMPTOTE_SAMPLES = 4000


def envelope_asymptotes(
    spec: ContinuumSpec, omega_window: tuple[float, float], branch: str = "trig"
) -> list[float]:
    """omegas where the envelope diverges: bracketed zeros of N1 N2' - N1' N2.

    curves._refine, the triple points' engine, narrows the brackets with its
    size test off, since rho diverges at each zero.  Where N1 and N2 both
    vanish to second order (at 12 pi for the default coupling points)
    N1 ^ N2 has a zero of order five, whose sign rounding decides within
    about 1e-4 of it; the result lies in that band.  Sign changes are taken
    between consecutive samples that _resolved keeps, so the rounding noise
    of N1 ^ N2 (the whole hyperbolic branch past omega ~ 110) brackets
    nothing.  ValueError unless lo < hi.
    """
    lo, hi = omega_window
    if not lo < hi:
        raise ValueError(f"omega window {omega_window!r} needs lo < hi")
    oms = np.linspace(lo, hi, ASYMPTOTE_SAMPLES)
    _, _, vals, kept = _resolved(spec, branch, oms)
    oms, vals = oms[kept], vals[kept]
    i = np.flatnonzero(_sign_changes(vals[:-1], vals[1:]))
    size = np.zeros(i.size)

    def lamN(t, live):
        return _envelope(spec, branch, t)[2], np.zeros(t.shape)

    return _refine(lamN, oms[i], oms[i + 1], vals[i], vals[i + 1], size, size).tolist()


def continuum_envelope(
    spec: ContinuumSpec, omega_samples, branch: str = "trig"
) -> CurveBranch:
    """Envelope curve swept over omega; asymptote intervals become gaps.

    The samples _resolved drops are gaps too, and a sign change of N1 ^ N2
    between samples is a break.
    """
    om = np.asarray(omega_samples, float)
    r1, r2, lamN, kept = _resolved(spec, branch, om)
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
