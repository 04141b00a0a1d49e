import numpy as np
import pytest

from spectral_atlas import phase
from spectral_atlas.curves import envelope_point, hopf_point
from spectral_atlas.lowrank import LowRankProblem, decompose_cofactor, perturbed_matrix
from spectral_atlas.phase import (
    EXAMPLE1_REGIONS,
    PhaseGrid,
    RegionLabel,
    classify_point,
    phase_grid,
)
from spectral_atlas.presets import example1

from lowrank_oracle import charpoly
from phase_oracle import local_splitting


def random_problem(n, rank, seed):
    """Well-scaled problem: a stable base matrix near -2 I."""
    rng = np.random.default_rng(seed)
    M = -2.0 * np.eye(n) + 0.8 * rng.standard_normal((n, n)) / np.sqrt(n)
    f1, g1, f2, g2 = 1.5 * rng.standard_normal((4, n)) / np.sqrt(n)
    if rank == 1:
        return LowRankProblem(M, f1, g1)
    return LowRankProblem(M, f1, g1, f2, g2)


def reference_labels(problem, r1s, r2s, tol_factor=1e-7):
    """Labels of every cell, one np.linalg.eigvals call each, the rule written out."""
    out = []
    for r1 in r1s:
        row = []
        for r2 in r2s:
            ev = np.linalg.eigvals(perturbed_matrix(problem, r1, r2))
            tol = tol_factor * max(1.0, float(np.max(np.abs(ev))))
            n_real = int(np.sum(np.abs(ev.imag) <= tol))
            if (len(ev) - n_real) % 2 == 1:
                n_real += 1
            n_rhp = int(np.sum(ev.real > tol))
            top = ev[np.argmax(ev.real)]
            if abs(top.real) <= tol:
                dominant = "marginal"
            else:
                kind = "real" if abs(top.imag) <= tol else "complex"
                side = "unstable" if top.real > 0 else "stable"
                dominant = f"{kind}_{side}"
            row.append(RegionLabel(n_real, n_rhp, dominant))
        out.append(row)
    return out


def grid_labels(g):
    return [
        [g.label(i, j) for j in range(g.rho2_values.size)]
        for i in range(g.rho1_values.size)
    ]


@pytest.fixture(scope="module")
def prob():
    return example1()


@pytest.fixture(scope="module")
def dec(prob):
    return decompose_cofactor(prob)


class TestClassifyPoint:
    def test_origin(self, prob):
        lab = classify_point(prob, 0.0, 0.0)
        # eigenvalues at the origin: {-3, -2, -2, -1}
        assert lab.census == (4, 0)
        assert lab.dominant == "real_stable"

    def test_parity_invariant(self, prob):
        rng = np.random.default_rng(0)
        for _ in range(30):
            r1, r2 = rng.uniform(-12, 2, 2)
            lab = classify_point(prob, r1, r2)
            assert (4 - lab.n_real) % 2 == 0

    def test_complex_unstable(self, prob):
        # region E sample: unstable complex pair dominates
        lab = classify_point(prob, -11.0, 0.5)
        assert lab.census == (2, 2)
        assert lab.dominant == "complex_unstable"

    def test_marginal_on_zero_curve(self, prob, dec):
        # on the zero curve an eigenvalue sits at the origin; choose a point
        # where it is also the rightmost one
        for r2 in np.linspace(-8.0, 0.5, 18):
            den = dec.P1(0.0) + r2 * dec.Q(0.0)
            r1 = -(dec.D(0.0) + r2 * dec.P2(0.0)) / den
            lab = classify_point(prob, r1, r2)
            if lab.dominant == "marginal":
                break
        else:
            pytest.fail("no marginal point found along the zero curve")

    def test_label_validation(self):
        with pytest.raises(ValueError):
            RegionLabel(2, 0, "bogus")


class TestPhaseGrid:
    def test_uniform_away_from_curves(self, prob):
        # small window inside region B, away from every curve
        g = phase_grid(prob, np.linspace(0.9, 1.1, 5), np.linspace(0.9, 1.1, 5))
        assert set(g.census_counts()) == {(2, 0)}

    def test_benchmark_census(self, prob):
        g = phase_grid(prob, np.linspace(-12, 2, 60), np.linspace(-12, 2, 60))
        expected = {
            EXAMPLE1_REGIONS[k] for k in ("A", "B", "C", "E", "F", "G")
        }
        got = set(g.census_counts())
        assert expected <= got
        assert got <= set(EXAMPLE1_REGIONS.values())

    def test_symmetry(self, prob):
        # P1 = P2 for the benchmark: diagram symmetric under rho1 <-> rho2
        vals = np.linspace(-10, 1, 23)
        g = phase_grid(prob, vals, vals)
        assert np.array_equal(g.n_real, g.n_real.T)
        assert np.array_equal(g.n_rhp, g.n_rhp.T)

    @pytest.mark.parametrize(
        "problem",
        [example1()]
        + [random_problem(n, rank=1, seed=n) for n in (4, 6, 8)]
        + [random_problem(n, rank=2, seed=10 + n) for n in range(4, 9)],
    )
    def test_matches_per_cell_reference(self, problem):
        r1s = np.linspace(-12.0, 2.0, 17)
        r2s = np.linspace(-11.5, 2.5, 19)
        g = phase_grid(problem, r1s, r2s)
        assert grid_labels(g) == reference_labels(problem, r1s, r2s)

    def test_chunk_boundary(self):
        problem = random_problem(8, rank=2, seed=3)
        r1s = np.linspace(-12.0, 2.0, 40)
        r2s = np.linspace(-12.0, 2.0, 33)
        assert r1s.size * r2s.size * problem.n**2 > phase._CHUNK_ENTRIES
        g = phase_grid(problem, r1s, r2s)
        assert grid_labels(g) == reference_labels(problem, r1s, r2s)

    def test_non_finite_raises(self, prob):
        M = prob.M.copy()
        M[0, 0] = np.nan
        bad = LowRankProblem(M, prob.f1, prob.g1, prob.f2, prob.g2)
        with pytest.raises(ValueError):
            phase_grid(bad, [0.0, 1.0], [0.0])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            phase_grid(prob, [0.0, np.inf], [0.0])

    def test_over_max_cells_raises(self, prob, monkeypatch):
        # refused by its cell count before the label arrays are allocated
        def no_alloc(*args, **kwargs):
            raise AssertionError("label arrays allocated")

        monkeypatch.setattr(phase.np, "empty", no_alloc)
        side = np.zeros(100000)
        with pytest.raises(ValueError, match="10000000000 grid cells") as info:
            phase_grid(prob, side, side)
        assert type(info.value) is ValueError
        assert phase.MAX_CELLS >= 100 * 100 * 100  # far above README's --grid 100

    def test_csv(self, prob):
        g = phase_grid(prob, [-1.0, 0.0], [0.0, 1.0])
        lines = g.to_csv().strip().splitlines()
        assert lines[0] == "rho1,rho2,n_real,n_rhp,dominant"
        assert len(lines) == 5
        assert lines[1:] == [
            "-1.0,0.0,2,0,complex_stable",
            "-1.0,1.0,0,0,complex_stable",
            "0.0,0.0,4,0,real_stable",
            "0.0,1.0,2,0,real_stable",
        ]

    def test_label_accessor(self, prob):
        g = phase_grid(prob, [0.0], [0.0])
        assert g.label(0, 0).census == (4, 0)


class TestCrossings:
    def test_envelope_crossing_changes_n_real_by_2(self, prob, dec):
        for lam in [-3.2, -1.1]:
            for r1, r2 in envelope_point(dec, lam):
                # step along rho1 normal off the curve both ways
                a = classify_point(prob, r1 + 2e-3, r2)
                b = classify_point(prob, r1 - 2e-3, r2)
                assert abs(a.n_real - b.n_real) == 2

    def test_hopf_crossing_changes_n_rhp_by_2(self, prob, dec):
        for om in [0.5, 1.0]:
            for r1, r2 in hopf_point(dec, om):
                a = classify_point(prob, r1 + 2e-3, r2)
                b = classify_point(prob, r1 - 2e-3, r2)
                assert abs(a.n_rhp - b.n_rhp) == 2


class TestLocalSplitting:
    def test_origin_real_pair(self, dec):
        assert local_splitting(dec, -2.0, 0.0, 0.0) == "real_pair"

    def test_complex_side_of_envelope(self, prob, dec):
        # just inside region B's complex side of the lower envelope branch
        lam = -1.1
        sols = envelope_point(dec, lam)
        (r1, r2) = min(sols)
        # move along the inward normal until the pair is complex
        lab_in = classify_point(prob, r1, r2 - 5e-3)
        lab_out = classify_point(prob, r1, r2 + 5e-3)
        inner = (r1, r2 - 5e-3) if lab_in.n_real < lab_out.n_real else (r1, r2 + 5e-3)
        assert local_splitting(dec, lam, *inner) == "complex_pair"

    def test_self_adjoint_always_real(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A + A.T)
        f = rng.standard_normal(4)
        p = LowRankProblem(A, f, f)
        d = decompose_cofactor(p)
        ev = np.linalg.eigvalsh(A + 0.3 * np.outer(f, f))
        # nudge to a near-double configuration is not available generically;
        # instead verify the discriminant stays nonnegative along a sweep
        for rho in np.linspace(-1, 1, 11):
            F = charpoly(d, rho, 0.0)
            for lam in np.linalg.eigvalsh(A + rho * np.outer(f, f)):
                c0, c1, c2 = F(lam), F.deriv()(lam), 0.5 * F.deriv(2)(lam)
                assert c1 * c1 - 4.0 * c2 * c0 >= -1e-9 * max(np.max(np.abs(F.coef)), 1.0) ** 2

    def test_rejects_non_double(self, dec):
        with pytest.raises(ValueError):
            local_splitting(dec, -0.3, 0.0, 0.0)
