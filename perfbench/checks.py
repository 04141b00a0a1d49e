"""Output checks made apart from the program.

Every check takes what one command or library call returned, together with
the inputs the benchmark generated for it, and raises CheckFailed when the
output is wrong.  The reference values come from numpy and scipy routines
the program does not call on that path (batched eigensolves, determinants,
``expm``, ``quad``, ``ellipk``/``ellipe``, sparse and banded solves on an
operator assembled here) or from properties the method must have.  Nothing
is compared with a stored copy of the program's output.

Residuals are scaled by the problem's own size: a determinant residual at
lambda is divided by prod(1 + |lambda_i| + |lambda|) over the eigenvalues
lambda_i of the matrix it is taken on.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

# Tolerances; the comments give the worst value measured on the workloads'
# inputs over seeds 3-28 (the network operations aside, which miss by 5e-3
# to 5e-2 on every job).
CURVE_TOL = 1e-6  # envelope 2.2e-8, hopf 2.1e-8, curve 1.2e-10, gain rows 7e-13
DECOMPOSE_TOL = 1e-8  # 5.5e-11
TRIPLE_TOL = 1e-6  # 4.5e-14
CENSUS_TOL_FACTOR = 1e-7  # the reality / half-plane threshold of the census
CENSUS_BAND = 100.0  # a cell may disagree only within this factor of it
IMPULSE_TOL = 1e-7  # relative to the response's peak; 3.9e-9
GAIN_TOL = 1e-6
CONTINUUM_TOL = 1e-8  # trig 2.5e-14, hyper 7.0e-10 (seeds 1-30)
FRONT_TOL = 1e-8  # inner 8.3e-12, herglotz 4.8e-11, family P 1e-9 for k <= 0.65

SQRT2 = np.sqrt(2.0)
# the paper's two triple points of the four-dimensional benchmark problem
EXAMPLE1_TRIPLES = [(-2.0 + 1.0 / SQRT2, -1.5, -0.5), (-2.0 + 1.0 / SQRT2, -0.5, -1.5)]


class CheckFailed(AssertionError):
    """An output did not pass its independent check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsing


def read_table(text: str):
    """Header and float rows of a CSV whose comment lines start with '#'."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    require(lines, "empty table")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    require(all(len(r) == len(header) for r in rows), "ragged table")
    return header, rows


def read_branches(text: str):
    """(kind, parameter, rho1, rho2) arrays of a curve CSV."""
    header, rows = read_table(text)
    require(header == ["kind", "branch", "parameter", "rho1", "rho2"], f"bad header {header}")
    kinds = np.array([r[0] + "/" + r[1] for r in rows])
    vals = np.array([[float(x) for x in r[2:]] for r in rows]).reshape(-1, 3)
    require(np.all(np.isfinite(vals)), "non-finite curve point")
    return kinds, vals[:, 0], vals[:, 1], vals[:, 2]


# ---------------------------------------------------------------------------
# low-rank problems


class Problem:
    """A rank-two problem as written to the problem JSON (key 'M')."""

    def __init__(self, spec: dict):
        self.M = np.asarray(spec["M"], float)
        self.f1 = np.asarray(spec["f1"], float)
        self.g1 = np.asarray(spec["g1"], float)
        self.f2 = np.asarray(spec["f2"], float)
        self.g2 = np.asarray(spec["g2"], float)
        self.n = self.M.shape[0]

    def matrices(self, rho1, rho2) -> np.ndarray:
        """Stack of M + rho1 f1 g1^T + rho2 f2 g2^T for arrays of rho."""
        r1 = np.asarray(rho1, float).reshape(-1, 1, 1)
        r2 = np.asarray(rho2, float).reshape(-1, 1, 1)
        return (
            self.M[None]
            + r1 * np.outer(self.f1, self.g1)[None]
            + r2 * np.outer(self.f2, self.g2)[None]
        )


def det_residuals(A: np.ndarray, lam: np.ndarray, order: int = 1) -> np.ndarray:
    """Scaled |d^m/dlambda^m det(A - lambda I)| for m = 0..order, per matrix.

    det(A - lambda I) = prod_i (mu_i - lambda) over the eigenvalues mu_i of
    A from one batched numpy eigensolve; the m-th derivative is (-1)^m m!
    times the m-th elementary symmetric sum of the factors taken n-m at a
    time.  Returns shape (len(A), order + 1).
    """
    mu = np.linalg.eigvals(A)
    lam = np.asarray(lam, complex).reshape(-1, 1)
    d = mu - lam
    scale = np.prod(1.0 + np.abs(mu) + np.abs(lam), axis=1)
    n = mu.shape[1]
    # e[k] = sum over subsets of size k of the product of the factors
    e = [np.ones(len(d), complex)] + [np.zeros(len(d), complex)] * n
    for i in range(n):
        for k in range(i + 1, 0, -1):
            e[k] = e[k] + e[k - 1] * d[:, i]
    out = [np.abs(e[n - m]) * float(np.prod(np.arange(1, m + 1))) / scale for m in range(order + 1)]
    return np.stack(out, axis=1)


def check_decompose(text: str, prob: Problem, samples: np.ndarray) -> None:
    """D + rho1 P1 + rho2 P2 + rho1 rho2 Q against numpy.linalg.det.

    samples is an (m, 3) array of (lambda, rho1, rho2).
    """
    rep = json.loads(text)
    polys = [np.asarray(rep[k], float) for k in ("D", "P1", "P2", "Q")]
    lam, r1, r2 = samples.T
    A = prob.matrices(r1, r2)
    ref = np.linalg.det(A - lam[:, None, None] * np.eye(prob.n))
    ev = [np.polynomial.polynomial.polyval(lam, c) for c in polys]
    got = ev[0] + r1 * ev[1] + r2 * ev[2] + r1 * r2 * ev[3]
    mu = np.linalg.eigvals(A)
    scale = np.prod(1.0 + np.abs(mu) + np.abs(lam)[:, None], axis=1)
    err = np.max(np.abs(got - ref) / scale)
    require(err <= DECOMPOSE_TOL, f"decomposition misses det(A - lambda I) by {err:.3g} (scaled)")


def check_curve(text: str, prob: Problem, kind: str, grid: np.ndarray, lam: float = 0.0) -> None:
    """Every curve point satisfies its eigenvalue condition.

    kind 'envelope': F = dF/dlambda = 0 at (lambda, rho1, rho2);
    'hopf': F(i omega) = 0; 'curve': F(lam) = 0 at (rho1, rho2 = parameter).
    Parameters must lie on the requested grid.
    """
    kinds, par, r1, r2 = read_branches(text)
    require(np.all(np.isin(par, grid)), f"{kind}: parameter off the requested grid")
    if par.size == 0:
        return
    if kind == "envelope":
        res = det_residuals(prob.matrices(r1, r2), par, order=1)
    elif kind == "hopf":
        res = det_residuals(prob.matrices(r1, r2), 1j * par, order=0)
    else:
        require(np.array_equal(par, r2), "curve: rho2 is not the parameter")
        res = det_residuals(prob.matrices(r1, r2), np.full(par.size, lam), order=0)
    worst = float(np.max(res))
    require(worst <= CURVE_TOL, f"{kind}: eigenvalue condition missed by {worst:.3g} (scaled)")


def check_triples(text: str, prob: Problem, window, example1: bool) -> None:
    """Reported points are triple roots; the benchmark gives the paper's two."""
    pts = json.loads(text)["triple_points"]
    for p in pts:
        require(window[0] <= p["lam"] <= window[1], "triple point outside the window")
        A = prob.matrices(p["rho1"], p["rho2"])
        c = np.poly(A[0])  # characteristic polynomial from numpy's eigensolve
        mu = np.linalg.eigvals(A[0])
        scale = np.prod(1.0 + np.abs(mu) + abs(p["lam"]))
        res = [float(abs(np.polyval(np.polyder(c, m), p["lam"])) / scale) for m in range(3)]
        require(max(res) <= TRIPLE_TOL, f"not a triple root: residuals {res}")
    if example1:
        got = sorted((p["lam"], p["rho1"], p["rho2"]) for p in pts)
        require(len(got) == 2, f"benchmark problem has 2 triple points, got {len(got)}")
        err = np.max(np.abs(np.array(got) - np.array(sorted(EXAMPLE1_TRIPLES))))
        require(err <= 1e-7, f"benchmark triple points off by {err:.3g}")


def census_labels(ev: np.ndarray):
    """(n_real, n_rhp, dominant, ambiguous) of each eigenvalue row.

    A label is ambiguous when some eigenvalue's imaginary part, the real part
    of the rightmost one, or the real-part gap between the rightmost real
    and complex eigenvalues lies within CENSUS_BAND of the threshold.
    """
    tol = CENSUS_TOL_FACTOR * np.maximum(1.0, np.max(np.abs(ev), axis=1))[:, None]
    im, re = np.abs(ev.imag), ev.real
    is_real = im <= tol
    n = ev.shape[1]
    n_real = np.sum(is_real, axis=1)
    n_real = n_real + (n - n_real) % 2
    n_rhp = np.sum(re > tol, axis=1)
    top = np.argmax(re, axis=1)
    rows = np.arange(len(ev))
    top_re = re[rows, top]
    top_real = is_real[rows, top]
    dominant = np.where(
        np.abs(top_re) <= tol[:, 0],
        "marginal",
        np.char.add(
            np.where(top_real, "real_", "complex_"),
            np.where(top_re > 0, "unstable", "stable"),
        ),
    )

    def near(x):
        return (x >= tol / CENSUS_BAND) & (x <= tol * CENSUS_BAND)

    best_real = np.max(np.where(is_real, re, -np.inf), axis=1)
    best_cplx = np.max(np.where(is_real, -np.inf, re), axis=1)
    gap = np.abs(best_real - best_cplx)
    ambiguous = (
        np.any(near(im), axis=1)
        | np.any(near(np.abs(re)), axis=1)
        | (np.isfinite(gap) & (gap <= tol[:, 0] * CENSUS_BAND))
    )
    return n_real, n_rhp, dominant, ambiguous


def check_census(text: str, prob: Problem, rho1: np.ndarray, rho2: np.ndarray) -> None:
    """Recompute every cell with one batched numpy eigensolve."""
    header, rows = read_table(text)
    require(header == ["rho1", "rho2", "n_real", "n_rhp", "dominant"], f"bad header {header}")
    require(len(rows) == rho1.size * rho2.size, "census does not cover the grid")
    got_r1 = np.array([float(r[0]) for r in rows])
    got_r2 = np.array([float(r[1]) for r in rows])
    R1, R2 = np.meshgrid(rho1, rho2, indexing="ij")
    require(
        np.array_equal(got_r1, R1.ravel()) and np.array_equal(got_r2, R2.ravel()),
        "census cells are not the requested grid",
    )
    ev = np.linalg.eigvals(prob.matrices(got_r1, got_r2))
    n_real, n_rhp, dominant, ambiguous = census_labels(ev)
    got_nr = np.array([float(r[2]) for r in rows])
    got_nh = np.array([float(r[3]) for r in rows])
    got_dom = np.array([r[4] for r in rows])
    differ = (got_nr != n_real) | (got_nh != n_rhp) | (got_dom != dominant)
    bad = differ & ~ambiguous
    require(not np.any(bad), f"{int(np.sum(bad))} census cells disagree outside the tolerance band")


# ---------------------------------------------------------------------------
# integrator networks


def check_gain(text: str, prob: Problem, b: np.ndarray, lam: float, grid: np.ndarray) -> None:
    """lambda is an eigenvalue on every row; the gain matches numpy.linalg.eig."""
    header, rows = read_table(text)
    require(header == ["rho2", "rho1", "gain"], f"bad header {header}")
    vals = np.array([[float(x) for x in r] for r in rows]).reshape(-1, 3)
    require(np.array_equal(vals[:, 0], grid), "gain rows are not the requested rho2 grid")
    A = prob.matrices(vals[:, 1], vals[:, 0])
    res = det_residuals(A, np.full(len(A), lam), order=0)
    require(np.max(res) <= CURVE_TOL, f"lambda={lam} is not an eigenvalue: residual {np.max(res):.3g}")
    for Ai, g in zip(A, vals[:, 2]):
        w, right = np.linalg.eig(Ai)
        wl, left = np.linalg.eig(Ai.T)
        e = right[:, np.argmax(w.real)]
        f = left[:, np.argmax(wl.real)]
        # (b.e)(f.b) / ((f.e)(b.b)) does not depend on how e and f are scaled
        ref = ((b @ e) * (f @ b) / ((f @ e) * (b @ b))).real
        require(abs(g - ref) <= GAIN_TOL * max(1.0, abs(ref)), f"gain {g} differs from {ref}")


def check_impulse(text: str, prob: Problem, b: np.ndarray, rho1: float, rho2: float, t_end: float) -> None:
    """Compare with b . expm(t A) b at sampled times."""
    header, rows = read_table(text)
    require(header == ["t", "response"], f"bad header {header}")
    vals = np.array([[float(x) for x in r] for r in rows])
    t, resp = vals[:, 0], vals[:, 1]
    require(t[0] == 0.0 and t[-1] >= t_end and np.all(np.diff(t) > 0), "bad time grid")
    A = prob.matrices(rho1, rho2)[0]
    idx = np.unique(np.linspace(0, len(t) - 1, 16).astype(int))
    ref = np.array([b @ scipy.linalg.expm(t[i] * A) @ b for i in idx])
    peak = max(1.0, float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(resp[idx] - ref))) / peak
    require(err <= IMPULSE_TOL, f"impulse response off expm by {err:.3g} (relative)")
    first = text.splitlines()[0]
    mg = float(first.rsplit("measured_gain", 1)[1])
    require(abs(mg - np.max(np.abs(resp)) / (b @ b)) <= 1e-12 * max(1.0, mg), "measured_gain disagrees with its rows")


# ---------------------------------------------------------------------------
# continuum model (N coupling cells on (0, L), defaults of the CLI)

CONT_N, CONT_L, CONT_X1, CONT_X2 = 12, 1.0, 1.0 / 3.0, 0.5
CONT_ALPHA, CONT_LAMBDA1 = 200.0, 5.0


def cell_response(omega, x, branch: str):
    """Feedback response of a cell coupled at x, as a function of omega.

    The model's response is [s(wL) - s(wx) - s(w(L-x))] / [c s(wL)] with
    s = sin or sinh.  Numerator and denominator share the factor s(wL/2),
    which vanishes at w = 2 m pi on the trig branch; here it is cancelled
    by hand, leaving the product form below, which keeps full accuracy
    where the quotient loses it.  It accepts complex omega, which the
    complex-step derivative below needs.
    """
    beta = (1.0 - CONT_LAMBDA1 / CONT_ALPHA) / (1.0 + 2.0 * np.cos(np.pi / (CONT_N + 1)))
    dx, L = CONT_L / CONT_N, CONT_L
    c = beta**2 * dx**3 * omega**2
    if branch == "trig":
        num = -2.0 * np.sin(omega * (L - x) / 2.0) * np.sin(omega * x / 2.0)
        return num / (c * (3.0 - dx**2 * omega**2) * np.cos(omega * L / 2.0))
    num = -2.0 * np.sinh(omega * (L - x) / 2.0) * np.sinh(omega * x / 2.0)
    return num / (c * (3.0 + dx**2 * omega**2) * np.cosh(omega * L / 2.0))


def check_continuum_envelope(text: str, branch: str, grid: np.ndarray) -> None:
    """1 + rho.P = 0 and rho.dP/domega = 0 at every point; hyper avoids quadrant I."""
    kinds, om, r1, r2 = read_branches(text)
    require(om.size > 0, "continuum envelope is empty")
    require(np.all(kinds == f"continuum-envelope-{branch}/{branch}"), "wrong branch label")
    require(np.all(np.isin(om, grid)), "omega off the requested grid")
    p1, p2 = cell_response(om, CONT_X1, branch), cell_response(om, CONT_X2, branch)
    h = 1e-20 * np.maximum(1.0, om)
    d1 = cell_response(om + 1j * h, CONT_X1, branch).imag / h
    d2 = cell_response(om + 1j * h, CONT_X2, branch).imag / h
    res0 = np.abs(1.0 + r1 * p1 + r2 * p2) / (1.0 + np.abs(r1 * p1) + np.abs(r2 * p2))
    res1 = np.abs(r1 * d1 + r2 * d2) / ((np.abs(r1) + np.abs(r2)) * (np.abs(d1) + np.abs(d2)))
    worst = float(max(np.max(res0), np.max(res1)))
    require(worst <= CONTINUUM_TOL, f"continuum envelope misses its eigencondition by {worst:.3g}")
    if branch == "hyper":
        require(not np.any((r1 > 0) & (r2 > 0)), "hyperbolic envelope point in the first quadrant")


def check_lemma(text: str, grid: int, omega_samples: int) -> None:
    rep = json.loads(text)
    pairs = grid * (grid - 1) // 2 * omega_samples
    require(rep["points"] == pairs, f"lemma-check covered {rep['points']} of {pairs} points")
    require(rep["all_negative"] is True and rep["negative"] == pairs, "lemma-check is not all_negative")
    require(rep["max_ratio"] < 0.0, "lemma-check max_ratio is not negative")


# ---------------------------------------------------------------------------
# Rubinstein-Sternberg fronts


def lambda1_ref(k: float) -> float:
    K, E = scipy.special.ellipk(k * k), scipy.special.ellipe(k * k)
    return ((3.0 - 3.0 * k * k) * K - 6.0 * E) / K


def check_lambda1(text: str, k: float) -> None:
    got = json.loads(text)["lambda1"]
    ref = lambda1_ref(k)
    require(abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), f"lambda1 {got} differs from {ref}")


def front_operator(k: float, n: int):
    """Cell-centred H = d_xx + f'(sn(x, k)) on [-K, K] with Neumann ends.

    Returns (diagonal, off-diagonal, cell width h, half-length K).
    """
    m = k * k
    K = scipy.special.ellipk(m)
    h = 2.0 * K / n
    x = -K + (np.arange(n) + 0.5) * h
    sn = scipy.special.ellipj(x, m)[0]
    diag = (1.0 + m) - 6.0 * m * sn**2 - 2.0 / h**2
    diag[[0, -1]] += 1.0 / h**2  # ghost-cell reflection
    return diag, np.full(n - 1, 1.0 / h**2), h, K


def check_index(text: str, k: float, n: int) -> None:
    rep = json.loads(text)
    require(rep["n_plus_H"] == 1, f"n_plus_H = {rep['n_plus_H']}, expected 1")
    require(rep["n_plus_perturbed"] == 0, f"n_plus_perturbed = {rep['n_plus_perturbed']}, expected 0")
    require(rep["has_kernel"] is True, "no simple kernel at rho = 1")
    check_lambda1(text, k)
    diag, off, h, _ = front_operator(k, n)
    H = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csc")
    ref = h * float(np.sum(scipy.sparse.linalg.spsolve(H, np.ones(n))))
    require(
        abs(rep["inner"] - ref) <= FRONT_TOL * abs(ref),
        f"inner {rep['inner']} differs from the sparse solve {ref}",
    )


def check_family(text: str, k: float) -> None:
    """Every row keeps the start's period P, recomputed with scipy quad."""
    from scipy.integrate import quad  # not imported by the program; kept out of setup

    header, rows = read_table(text)
    require(header == ["s", "E", "kappa", "mu_minus", "mu_plus", "P", "M", "R", "tau"], f"bad header {header}")
    vals = np.array([[float(x) for x in r] for r in rows])
    require(len(vals) >= 2, "family has no steps")
    m = k * k
    P0 = vals[0, 5]
    require(abs(P0 - 2.0 * scipy.special.ellipk(m)) <= FRONT_TOL * P0, "start period is not 2K(k)")

    for s, E, kap, mu_m, mu_p, P, *_ in vals:
        # Q(u) = 2E + 2 kappa u - 2F(u) with F(u) = (1+k^2) u^2/2 - k^2 u^4/2
        Q = np.array([m, 0.0, -(1.0 + m), 2.0 * kap, 2.0 * E])
        require(
            abs(np.polyval(Q, mu_m)) + abs(np.polyval(Q, mu_p)) <= 1e-9,
            f"row s={s}: turning points are not roots",
        )
        # Q = -(u - mu_m)(mu_p - u) W(u); quad's algebraic weight takes the
        # inverse square roots at the turning points, W stays smooth
        W = -np.polydiv(Q, np.poly([mu_m, mu_p]))[0]
        Pq, _ = quad(
            lambda u: 1.0 / np.sqrt(np.polyval(W, u)),
            mu_m, mu_p, weight="alg", wvar=(-0.5, -0.5), epsabs=0.0, epsrel=1e-12,
        )
        require(abs(P - P0) <= FRONT_TOL * P0, f"row s={s}: P={P} drifted from {P0}")
        require(abs(Pq - P0) <= FRONT_TOL * P0, f"row s={s}: quad gives P={Pq}, start has {P0}")


def check_herglotz(values, k: float, n: int, rho: float, lams) -> None:
    """h(lambda) against its resolvent form from a banded solve here."""
    diag, off, h, K = front_operator(k, n)
    ones = np.ones(n)
    for got, lam in zip(values, lams):
        ab = np.zeros((3, n), complex)
        ab[0, 1:], ab[1], ab[2, :-1] = off, diag - lam, off
        y = scipy.linalg.solve_banded((1, 1), ab, ones)
        ref = h * np.sum(y) / (2.0 * K) - (1.0 - rho) / (rho * lam)
        require(abs(got - ref) <= FRONT_TOL * max(1.0, abs(ref)), f"h({lam}) = {got}, resolvent gives {ref}")
        if lam.imag > 0:
            require(got.imag > 0, f"Im h({lam}) = {got.imag} is not positive")
