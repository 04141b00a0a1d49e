"""Classification of the (rho1, rho2) plane by spectral configuration.

Each parameter point gets a label (n_real, n_rhp, dominant): the number of
real eigenvalues, the number in the open right half plane, and the character
of the rightmost eigenvalue.  Census of the labels over a grid reproduces the
region decomposition cut out by the envelope, Hopf, and zero curves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lowrank import AKDecomposition, LowRankProblem

# Census tuples (n_real, n_rhp) of the named regions of the four-dimensional
# benchmark's stability diagram.  The letters track all four eigenvalues:
#   A four real stable; B two real + stable pair; C two stable pairs;
#   D one unstable pair + one stable pair; E unstable pair + two real stable;
#   F one real unstable + three real stable; G one real unstable, one real
#   stable, one stable pair; 'strip' two real unstable + two real stable
#   (a sliver between E and F, visible only at fine resolution).
# Region D does not intersect the window [-12,2]^2 commonly used for this
# diagram; its closest approach is near rho2 ~ 3.1.
EXAMPLE1_REGIONS = {
    "A": (4, 0),
    "B": (2, 0),
    "C": (0, 0),
    "D": (0, 2),
    "E": (2, 2),
    "F": (4, 1),
    "G": (2, 1),
    "strip": (4, 2),
}

DOMINANT_KINDS = (
    "real_stable",
    "real_unstable",
    "complex_stable",
    "complex_unstable",
    "marginal",
)


@dataclass(frozen=True)
class RegionLabel:
    n_real: int
    n_rhp: int
    dominant: str

    def __post_init__(self):
        if self.dominant not in DOMINANT_KINDS:
            raise ValueError(f"unknown dominant kind {self.dominant!r}")

    @property
    def census(self) -> tuple[int, int]:
        return (self.n_real, self.n_rhp)


# Matrix entries stacked into one eigensolve call by phase_grid: about half
# a megabyte of float64, whatever the grid size or matrix dimension.
_CHUNK_ENTRIES = 1 << 16

_MARGINAL = DOMINANT_KINDS.index("marginal")


def _classify(ev: np.ndarray, tol_factor: float):
    """(n_real, n_rhp, dominant code) of each row of a (cells, n) eigenvalue array.

    Reality and half-plane membership are decided relative to the spectral
    radius; the count of non-real eigenvalues is forced even so conjugate
    pairs straddling the tolerance cannot produce an odd defect.  Dominant
    codes index DOMINANT_KINDS: 2 * complex + unstable, or marginal.
    """
    n = ev.shape[1]
    tol = tol_factor * np.maximum(1.0, np.max(np.abs(ev), axis=1))
    n_real = np.sum(np.abs(ev.imag) <= tol[:, None], axis=1)
    n_real += (n - n_real) % 2  # odd complex count is a tolerance artifact
    n_rhp = np.sum(ev.real > tol[:, None], axis=1)
    top = ev[np.arange(len(ev)), np.argmax(ev.real, axis=1)]
    code = 2 * (np.abs(top.imag) > tol) + (top.real > 0.0)
    dominant = np.where(np.abs(top.real) <= tol, _MARGINAL, code)
    return n_real, n_rhp, dominant


def classify_point(
    problem: LowRankProblem, rho1: float, rho2: float, tol_factor: float = 1e-7
) -> RegionLabel:
    """Spectral label of one parameter point: the 1x1 case of phase_grid."""
    return phase_grid(problem, [rho1], [rho2], tol_factor).label(0, 0)


@dataclass
class PhaseGrid:
    rho1_values: np.ndarray
    rho2_values: np.ndarray
    n_real: np.ndarray  # shape (len(rho1), len(rho2))
    n_rhp: np.ndarray
    dominant: np.ndarray  # same shape, integer codes into DOMINANT_KINDS

    def label(self, i: int, j: int) -> RegionLabel:
        return RegionLabel(
            int(self.n_real[i, j]),
            int(self.n_rhp[i, j]),
            DOMINANT_KINDS[self.dominant[i, j]],
        )

    def census_counts(self) -> dict[tuple[int, int], int]:
        """Number of grid cells of each (n_real, n_rhp) class."""
        pairs, counts = np.unique(
            np.column_stack([self.n_real.ravel(), self.n_rhp.ravel()]),
            axis=0,
            return_counts=True,
        )
        return {(int(a), int(b)): int(c) for (a, b), c in zip(pairs, counts)}

    def census_classes(self) -> set[tuple[int, int]]:
        return set(self.census_counts())

    def to_csv(self) -> str:
        r1 = [repr(v) for v in self.rho1_values.tolist()]
        r2 = [repr(v) for v in self.rho2_values.tolist()]
        cells = zip(
            itertools.product(r1, r2),
            self.n_real.ravel().tolist(),
            self.n_rhp.ravel().tolist(),
            self.dominant.ravel().tolist(),
        )
        return "rho1,rho2,n_real,n_rhp,dominant\n" + "".join(
            f"{a},{b},{nr},{nh},{DOMINANT_KINDS[d]}\n" for (a, b), nr, nh, d in cells
        )


def phase_grid(
    problem: LowRankProblem,
    rho1_values,
    rho2_values,
    tol_factor: float = 1e-7,
) -> PhaseGrid:
    """Classify every point of a rectangular parameter grid.

    The perturbed matrices M + rho1 f1 g1^T + rho2 f2 g2^T are built by
    broadcasting, in chunks of about _CHUNK_ENTRIES entries, and each chunk
    is classified by one stacked LAPACK eigensolve.  Non-finite entries
    raise numpy's LinAlgError, a ValueError subclass.
    """
    p = problem
    r1s = np.asarray(rho1_values, float)
    r2s = np.asarray(rho2_values, float)
    cells = r1s.size * r2s.size
    n_real = np.empty(cells, dtype=int)
    n_rhp = np.empty(cells, dtype=int)
    dominant = np.empty(cells, dtype=np.int8)
    outer1 = np.outer(p.f1, p.g1)
    outer2 = None if p.f2 is None else np.outer(p.f2, p.g2)
    step = max(1, _CHUNK_ENTRIES // (p.n * p.n))
    for start in range(0, cells, step):
        stop = min(start + step, cells)
        i, j = np.divmod(np.arange(start, stop), r2s.size)
        A = p.M + r1s[i, None, None] * outer1
        if outer2 is not None:
            A = A + r2s[j, None, None] * outer2
        ev = np.linalg.eigvals(A)
        n_real[start:stop], n_rhp[start:stop], dominant[start:stop] = _classify(
            ev, tol_factor
        )
    shape = (r1s.size, r2s.size)
    return PhaseGrid(
        r1s, r2s, n_real.reshape(shape), n_rhp.reshape(shape), dominant.reshape(shape)
    )


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
    F = dec.charpoly(rho1, rho2)
    scale = max(F.norm, 1.0)
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
        Fp = dec.charpoly(r1, r2)
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
