"""Line-attractor network models of the oculomotor velocity-to-position
integrator, with rank-two cerebellar feedback as the perturbation.

The base matrix is block triangular,

    M = alpha * [[T, 0], [W, -I]],

with T an N x N tridiagonal lateral-connection matrix tuned so the top
eigenvalue of alpha*T is a chosen slow rate, W the two vestibular->Purkinje
readout rows, and the feedback entering as rho_i f_i g_i^T with
f_i = -alpha [u_i; 0; 0] and g_i the Purkinje coordinate picks (so rho_i > 0
is inhibitory feedback).

The paper's two networks differ only in W, their entry of READOUTS; they
share N, alpha and the slow rate (presets), FEEDBACK_UNITS and INPUT_PATTERN.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .curves import graph_rho1
from .lowrank import AKDecomposition, LowRankProblem, perturbed_matrix
from . import presets as _presets


class DivergentGainError(ArithmeticError):
    """The gain is not defined at a point: its dominant eigenvalue is not
    simple, its left and right dominant eigenvectors are numerically
    orthogonal, or a complex pair leads."""


def beta_for(N: int, alpha: float, lambda1_target: float) -> float:
    return (1.0 - lambda1_target / alpha) / (1.0 + 2.0 * np.cos(np.pi / (N + 1)))


def build_T(N: int, alpha: float, lambda1_target: float):
    """Tridiagonal lateral-connection matrix and its gain parameter beta.

    T has -1 + beta on the diagonal and beta off it; lambda1_target is the
    slow decay rate (reciprocal time constant) of the uncoupled subnetwork,
    so beta is set to put the top eigenvalue of alpha*T at -lambda1_target.
    """
    if N < 2:
        raise ValueError("need at least two vestibular units")
    if not 0.0 < lambda1_target < alpha:
        raise ValueError("lambda1_target must lie in (0, alpha)")
    beta = beta_for(N, alpha, lambda1_target)
    T = np.diag(np.full(N, -1.0 + beta))
    T += np.diag(np.full(N - 1, beta), 1) + np.diag(np.full(N - 1, beta), -1)
    return T, beta


# vestibular->Purkinje readout rows (w1, w2) of the two networks: 'ag_normal'
# supports smooth gain adjustment; 'ag_in' models the miswired (congenital
# nystagmus) readout that drives the circuit oscillatory
READOUTS = MappingProxyType({
    "ag_normal": ((-1, 1, -1, 0, -1, 0), (1, -1, 1, 1, 0, 0)),
    "ag_in": ((-1, 1, 0, 0, -1, 0), (1, -1, 0, 0, 1, 0)),
})
# the vestibular units u_1, u_2 the feedback enters, and the input pattern b
# (every vestibular unit, no Purkinje cell) shared by both networks
FEEDBACK_UNITS = (0, 2)
INPUT_PATTERN = np.r_[np.ones(_presets.AG_N), 0.0, 0.0]
INPUT_PATTERN.flags.writeable = False


def build_network(preset: str) -> LowRankProblem:
    """The (N+2)-dimensional problem of a READOUTS network; ValueError for another name."""
    if preset not in READOUTS:
        raise ValueError(f"unknown network preset {preset!r}")
    N, alpha = _presets.AG_N, _presets.AG_ALPHA
    M = np.zeros((N + 2, N + 2))
    M[:N, :N] = build_T(N, alpha, _presets.AG_LAMBDA1)[0]
    M[N:, :N] = READOUTS[preset]
    M[N, N] = M[N + 1, N + 1] = -1.0
    M *= alpha
    e = np.eye(N + 2)
    (f1, f2), (g1, g2) = -alpha * e[list(FEEDBACK_UNITS)], e[N:]
    return LowRankProblem(M, f1, g1, f2, g2)


def constant_tau_rho1(
    dec: AKDecomposition,
    lam: float,
    rho2,
    problem: LowRankProblem | None = None,
):
    """rho1 keeping lambda an eigenvalue at each rho2 (fixed time constant).

    The graph and its pole rule are curves.graph_rho1's; a scalar rho2 gives
    a float, an array an array.  ZeroDivisionError if any rho2 sits on a
    pole.  When the underlying problem is supplied the result is polished by
    three Newton steps on the exact determinant, one stacked determinant
    call each, removing the interpolation noise of the decomposition (it
    matters close to the envelope tangency, where the eigenvalue's
    sensitivity to rho1 blows up).
    """
    r1, kept, den = graph_rho1(dec, lam, rho2)
    if not np.all(kept):
        raise ZeroDivisionError("constant-eigenvalue curve has an asymptote here")
    if problem is not None:
        shift = lam * np.eye(problem.n)
        for _ in range(3):
            r1 = r1 - np.linalg.det(perturbed_matrix(problem, r1, rho2) - shift) / den
    return float(r1) if np.ndim(r1) == 0 else r1


# the dominant eigenvalue is simple when the next one's real part is further
# than this, relative to max(1, |lambda1|), or the two are a conjugate pair
SEPARATION = 1e-6


def gain(p: LowRankProblem, rho1, rho2, b):
    """Predicted amplification of the slow mode for input pattern b.

    gamma = <b,e1><f1,b> / (<f1,e1> ||b||^2) with e1/f1 the right/left
    eigenvectors of the dominant (largest real part) eigenvalue, a ratio
    that does not depend on how either vector is scaled.  Scalar rho's give
    a float, arrays (broadcast together) an array.  One stacked eigensolve
    gives the right eigenvectors V of every point, and one stacked inverse
    the left ones, the rows of V^-1.  DivergentGainError names the first
    point whose dominant eigenvalue is not simple, whose eigenvectors are
    numerically orthogonal, or whose gain comes out complex.
    """
    b = np.asarray(b, float)
    rho1, rho2 = np.broadcast_arrays(np.asarray(rho1, float), np.asarray(rho2, float))
    w, V = np.linalg.eig(perturbed_matrix(p, rho1.ravel(), rho2.ravel()))
    pts = np.arange(len(w))
    order = np.argsort(-w.real, axis=-1)
    i1 = order[:, 0]
    lam1, lam2 = w[pts, i1], w[pts, order[:, 1]]
    e1 = V[pts, :, i1]
    f1 = np.linalg.inv(V)[pts, i1, :]
    inner = np.sum(f1 * e1, axis=-1)
    g = (e1 @ b) * (f1 @ b) / (inner * (b @ b))
    # a leading conjugate pair passes the separation test and fails the
    # reality test of the gain, which names it
    sep = SEPARATION * np.maximum(1.0, np.abs(lam1))
    failed = np.array([
        (np.abs(lam2.real - lam1.real) <= sep) & (np.abs(np.conj(lam2) - lam1) > sep),
        np.abs(inner) < 1e-10 * np.linalg.norm(f1, axis=-1) * np.linalg.norm(e1, axis=-1),
        np.abs(g.imag) > 1e-8 * np.maximum(1.0, np.abs(g)),
    ])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        k = bad[0]
        why = (
            "dominant eigenvalue is not simple",
            "left and right dominant eigenvectors are orthogonal",
            "gain came out complex; dominant mode is a pair",
        )[np.argmax(failed[:, k])]
        where = f"rho1 = {float(rho1.flat[k])!r}, rho2 = {float(rho2.flat[k])!r}"
        raise DivergentGainError(f"{why} at {where}")
    return float(g[0].real) if rho1.ndim == 0 else g.real.reshape(rho1.shape)


# most time steps (nsteps + 1 responses) impulse_response takes
MAX_STEPS = 10**7


def impulse_response(p: LowRankProblem, rho1: float, rho2: float, b, t_end: float):
    """Free decay from v(0) = b; returns (t, <b, v(t)>).

    Classical fourth-order integration at the fixed step dt = 0.05/spectral
    radius, half the stability cap 0.1/spectral radius, realized by iterating
    the one-step degree-4 Taylor matrix R of exp(dt A) (identical update to
    the four-stage Runge-Kutta scheme for a linear autonomous system), so the
    response at step i is b^T R^i b.  It is computed in panels of
    m = ceil(sqrt(nsteps + 1)) states: the first panel b, Rb, ..., R^(m-1) b
    is built step by step, every later one is R^m times the one before, and
    each panel's responses are one product with b.  FloatingPointError
    names the first time whose response is not finite; ValueError, before
    anything is allocated, when nsteps + 1 exceeds MAX_STEPS.
    """
    b = np.asarray(b, float)
    A = perturbed_matrix(p, rho1, rho2)
    rad = float(np.max(np.abs(np.linalg.eigvals(A))))
    dt = 0.05 / max(rad, 1e-300)
    nsteps = int(np.ceil(t_end / dt))
    if nsteps + 1 > MAX_STEPS:
        raise ValueError(
            f"t_end={t_end} at dt={dt} takes nsteps={nsteps:.4g}, over MAX_STEPS = {MAX_STEPS}"
        )
    eye = np.eye(len(b))
    H = dt * A
    R = eye + H @ (eye + H @ (eye / 2.0 + H @ (eye / 6.0 + H / 24.0)))
    ts = np.arange(nsteps + 1) * dt
    m = math.isqrt(nsteps) + 1  # ceil(sqrt(nsteps + 1))
    panel = np.empty((len(b), m))
    panel[:, 0] = b
    # a growing response may leave the float range: checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m):
            panel[:, j] = R @ panel[:, j - 1]
        # R - I is exact (R's diagonal is near 1), and R^m is formed from it
        Rm = eye + _power_minus_identity(R - eye, m)
        out = np.empty((-(-(nsteps + 1) // m), m))
        out[0] = b @ panel
        for k in range(1, len(out)):
            panel = Rm @ panel
            out[k] = b @ panel
    out = out.ravel()[: nsteps + 1]
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise FloatingPointError(f"response is not finite from t = {float(ts[bad[0]])!r} on")
    return ts, out


def _power_minus_identity(E, m: int):
    """(I + E)^m - I by binary powering, never adding I to a small matrix.

    (I + A)(I + B) - I = A + B + AB, so the slow modes of I + E, whose
    eigenvalues lie just below 1, keep the low-order bits that a rounded
    I + E would lose.  impulse_response applies R^m about sqrt(nsteps)
    times, which multiplies any error in it as often.
    """
    out = np.zeros_like(E)
    while m:
        if m & 1:
            out = out + E + out @ E
        m >>= 1
        if m:
            E = E + E + E @ E
    return out


def measured_gain(series, b) -> float:
    """Peak response normalized by the input pattern energy."""
    series = np.asarray(series, float)
    if series.size == 0:
        raise ValueError("empty response series")
    b = np.asarray(b, float)
    return float(np.max(np.abs(series)) / (b @ b))
