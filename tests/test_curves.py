import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas.curves import (
    CurveBranch,
    CurvePoint,
    DegenerateCurveError,
    SymmetricDegeneracyError,
    branches_to_csv,
    constant_eigenvalue_curve,
    envelope,
    envelope_point,
    gap_intervals,
    grid_branch,
    hopf_curve,
    hopf_point,
    singular_piece,
    solve_bilinear_rows,
    triple_points,
    zero_curve,
)
from spectral_atlas.curves import _envelope_rows, _hopf_rows, _solve_rows
from spectral_atlas.kernel import Poly
from spectral_atlas.lowrank import AKDecomposition, decompose_cofactor, perturbed_matrix
from spectral_atlas.presets import SQRT2, example1

from curves_oracle import (
    envelope_q_zero,
    generic_problem,
    genericity_check,
    poly_envelope_rows,
    poly_hopf_rows,
    triple_points_mp,
)

LAMSTAR = -2.0 + SQRT2 / 2.0


@pytest.fixture(scope="module")
def dec():
    return decompose_cofactor(example1())


def closed_form_envelope(lam):
    """Benchmark envelope: rho1 = -(l+2)(l+2+s/2) +- (l+2) sqrt(2(l+3/2)(l+5/2))."""
    t = lam + 2.0
    rad = 2.0 * (lam + 1.5) * (lam + 2.5)
    if rad < 1e-8:  # gap, or its boundary where roundoff decides the sign
        return None
    base = -t * (t + SQRT2 / 2.0)
    root = t * np.sqrt(rad)
    return sorted([base - root, base + root])


class TestBilinearSolver:
    def test_linear_case(self):
        # rho1 + rho2 = 3, rho1 - rho2 = 1
        sols = solve_bilinear_rows([-3, 1, 1, 0], [-1, 1, -1, 0])
        assert len(sols) == 1
        assert np.allclose(sols[0], (2.0, 1.0))

    def test_linear_singular_raises(self):
        with pytest.raises(DegenerateCurveError):
            solve_bilinear_rows([1, 1, 1, 0], [2, 2, 2, 0])

    def test_two_solutions(self):
        # rho1 rho2 = 1, rho1 + rho2 = 2.5 -> (2, 1/2) and (1/2, 2)
        sols = solve_bilinear_rows([-1, 0, 0, 1], [-2.5, 1, 1, 0])
        assert len(sols) == 2
        got = sorted(sols)
        assert np.allclose(got[0], (0.5, 2.0))
        assert np.allclose(got[1], (2.0, 0.5))

    def test_gap(self):
        # rho1 rho2 = 1, rho1 + rho2 = 1: discriminant negative
        assert solve_bilinear_rows([-1, 0, 0, 1], [-1, 1, 1, 0]) == []

    @given(st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_solutions_satisfy_rows(self, s, p):
        a = np.array([0.7, -1.2, 0.9, 0.31])
        b = np.array([s, 1.0, p, -0.45])
        try:
            sols = solve_bilinear_rows(a, b)
        except DegenerateCurveError:
            return
        for r1, r2 in sols:
            for row in (a, b):
                v = row[0] + row[1] * r1 + row[2] * r2 + row[3] * r1 * r2
                assert abs(v) < 1e-6 * max(1.0, abs(r1), abs(r2)) ** 2


    def test_batch_matches_row_by_row_reference(self):
        # linear, degenerate, gap, one- and two-solution rows in one batch
        rng = np.random.default_rng(11)
        a = rng.standard_normal((60, 4))
        b = rng.standard_normal((60, 4))
        a[::5, 3] = b[::5, 3] = 0.0  # linear rows
        b[::7] = 2.0 * a[::7]  # dependent rows
        a[3], b[3] = [-1, 0, 0, 1], [-1, 1, 1, 0]  # negative discriminant
        a[4], b[4] = [-1, 0, 0, 1], [-2, 1, 0, 0]  # quadratic in rho2 degenerates to linear
        sol, count, degenerate = _solve_rows(a, b)
        assert set(count[~degenerate]) == {0, 1, 2} and np.any(degenerate)
        assert count[4] == 1 and tuple(sol[4, 0]) == (2.0, 0.5)
        for i in range(60):
            want = reference_solve(a[i], b[i])
            assert degenerate[i] == (want is None)
            if want is None:
                with pytest.raises(DegenerateCurveError):
                    solve_bilinear_rows(a[i], b[i])
                continue
            assert [tuple(x) for x in sol[i, : count[i]]] == want
            assert solve_bilinear_rows(a[i], b[i]) == want


def reference_quadratic(A, B, C, tol):
    """Scalar real roots in ascending order; None when A and B vanish."""
    if abs(A) <= tol:
        return None if abs(B) <= tol else [-C / B]
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return []
    s = np.sqrt(disc)
    q = -0.5 * (B + np.sign(B) * s) if B != 0.0 else 0.5 * s
    return [0.0, 0.0] if q == 0.0 else sorted([q / A, C / q])


def reference_solve(a, b, tol=1e-12):
    """Row-by-row bilinear solve, in ascending rho1; None when degenerate."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    t2 = tol * scale**2
    if abs(a[3]) <= tol * scale and abs(b[3]) <= tol * scale:
        A = np.array([[a[1], a[2]], [b[1], b[2]]])
        if abs(np.linalg.det(A)) <= t2:
            return None
        return [tuple(np.linalg.solve(A, -np.array([a[0], b[0]])))]
    e = [a[k] * b[3] - b[k] * a[3] for k in range(3)]
    c = a if abs(a[3]) >= abs(b[3]) else b
    if max(abs(e[1]), abs(e[2])) <= t2:
        return None
    if abs(e[2]) >= abs(e[1]):
        roots = reference_quadratic(
            -c[3] * e[1], c[1] * e[2] - c[2] * e[1] - c[3] * e[0], c[0] * e[2] - c[2] * e[0], t2
        )
        sols = None if roots is None else [(r, -(e[0] + e[1] * r) / e[2]) for r in roots]
    else:
        roots = reference_quadratic(
            -c[3] * e[2], c[2] * e[1] - c[1] * e[2] - c[3] * e[0], c[0] * e[1] - c[1] * e[0], t2
        )
        sols = None if roots is None else [(-(e[0] + e[2] * r) / e[1], r) for r in roots]
    return None if sols is None else sorted(sols, key=lambda x: x[0])


def reference_gaps(t, kept, breaks):
    """The per-point state machine the gap rule replaced."""
    gaps, prev = [], None
    for ti, k, br in zip(t, kept, breaks):
        if prev is not None and (not k or br):
            gaps.append((prev, ti))
        prev = ti if k else None
    return gaps


# (kept, breaks, gaps as index pairs)
GAP_CASES = [
    ("fail at start and end", "..##.#..", None, [(3, 4), (5, 6)]),
    ("single-point runs", ".#.#.", None, [(1, 2), (3, 4)]),
    ("alternating", "#.#.#.", None, [(0, 1), (2, 3), (4, 5)]),
    ("all kept", "#####", None, []),
    ("all dropped", ".....", None, []),
    ("one point", "#", None, []),
    ("empty", "", None, []),
    ("crossing kept", "#####", "..|..", [(1, 2)]),
    ("crossing at the first point", "####", "|...", []),
    ("crossing after a drop", "#.##", "..|.", [(0, 1)]),
    ("crossing at a drop", "##.#", "..|.", [(1, 2)]),
]


class TestGapRule:
    @pytest.mark.parametrize("name,kept,breaks,want", GAP_CASES, ids=[c[0] for c in GAP_CASES])
    def test_table(self, name, kept, breaks, want):
        t = np.arange(len(kept)) * 0.5 - 1.0
        k = np.array([c == "#" for c in kept], bool)
        br = None if breaks is None else np.array([c == "|" for c in breaks], bool)
        assert gap_intervals(t, k, br) == [(t[i], t[j]) for i, j in want]

    def test_random_masks_match_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            t = np.sort(rng.uniform(-3.0, 3.0, n))
            kept, breaks = rng.random(n) < 0.6, rng.random(n) < 0.3
            assert gap_intervals(t, kept, breaks) == reference_gaps(t, kept, breaks)
            assert gap_intervals(t, kept) == reference_gaps(t, kept, np.zeros(n, bool))

    def test_crossing_point_is_kept(self):
        t = np.linspace(0.0, 1.0, 5)
        kept = np.ones(5, bool)
        breaks = np.array([False, False, True, False, False])
        br = grid_branch("k", "b", "p", t, -t, 2 * t, kept, breaks)
        assert [p.parameter for p in br.points] == t.tolist()
        assert br.gaps == [(0.25, 0.5)]
        assert br.points[2] == CurvePoint("k", "b", 0.5, -0.5, 1.0)

    def test_degenerate_row_is_a_gap(self):
        # Q = 0, P1 = 1, P2 = lambda^2: the linear envelope system is
        # singular at lambda = 0 and has the single solution
        # rho1 = 1 + lambda^3 / 2, rho2 = -3 lambda / 2 elsewhere
        d = AKDecomposition(Poly([-1.0, 0.0, 0.0, 1.0]), Poly([1.0]), Poly([0.0, 0.0, 1.0]), Poly([0.0]))
        grid = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(DegenerateCurveError):
            envelope_point(d, 0.0)
        plus, minus = envelope(d, grid)
        for br in (plus, minus):
            assert br.gaps == [(-0.5, 0.0)]
            assert [p.parameter for p in br.points] == [-1.0, -0.5, 0.5, 1.0]
        for p, m in zip(plus.points, minus.points):
            assert (p.rho1, p.rho2) == (m.rho1, m.rho2)
            assert np.isclose(p.rho1, 1.0 + p.parameter**3 / 2.0)
            assert np.isclose(p.rho2, -1.5 * p.parameter)

    def test_sweep_matches_points(self, dec):
        grid = np.linspace(-4.0, 0.0, 41)
        plus, minus = envelope(dec, grid)
        for lam in grid:
            sols = envelope_point(dec, lam)
            got = [(p.rho1, p.rho2) for br in (minus, plus) for p in br.points if p.parameter == lam]
            assert got == (sols * 2 if len(sols) == 1 else sols)


class TestConstantCurve:
    def test_benchmark_zero_curve(self, dec):
        # rho1 = -(12 + (4-2s2) rho2) / ((4-2s2) + rho2 * (-1)) at lambda = 0
        c = 4.0 - 2.0 * SQRT2
        br = zero_curve(dec, np.linspace(-5, 5, 41))
        for p in br.points:
            expect = -(12.0 + c * p.rho2) / (c - p.rho2)
            assert np.isclose(p.rho1, expect, rtol=1e-9, atol=1e-9)

    def test_eigenvalue_held(self, dec):
        lam = -0.7
        br = constant_eigenvalue_curve(dec, lam, np.linspace(-3, 3, 13))
        p = example1()
        for pt in br.points[::3]:
            ev = np.linalg.eigvals(perturbed_matrix(p, pt.rho1, pt.rho2))
            assert np.min(np.abs(ev - lam)) < 1e-8

    def test_pole_on_grid(self):
        # P1 + rho2 Q = rho2 - 1/2 vanishes at the grid value rho2 = 1/2
        d = AKDecomposition(Poly([1.0]), Poly([-0.5]), Poly([0.0]), Poly([1.0]))
        br = constant_eigenvalue_curve(d, 0.0, np.linspace(-1.0, 2.0, 7))
        assert br.gaps == [(0.0, 0.5)]
        assert [p.parameter for p in br.points] == [-1.0, -0.5, 0.0, 1.0, 1.5, 2.0]
        assert all(np.isclose(p.rho1, -1.0 / (p.rho2 - 0.5)) for p in br.points)

    def test_pole_records_gap(self, dec):
        # denominator P1 + rho2 Q vanishes at rho2 = P1(0) = 4 - 2 sqrt(2)
        pole = 4.0 - 2.0 * SQRT2
        br = zero_curve(dec, np.linspace(pole - 0.05, pole + 0.05, 11))
        assert len(br.gaps) == 1 or len(br.points) < 11


class TestEnvelope:
    def test_closed_form_grid(self, dec):
        for lam in np.linspace(-4, 0, 81):
            cf = closed_form_envelope(lam)
            sols = envelope_point(dec, lam)
            if cf is None:
                assert sols == [] or -2.5 < lam < -1.5
                continue
            if -2.5 < lam < -1.5:
                continue
            got = sorted(r1 for r1, _ in sols)
            if len(got) == 1:
                got = [got[0], got[0]]
            assert np.allclose(got, cf, atol=1e-8)

    def test_double_eigenvalue_on_curve(self, dec):
        p = example1()
        for lam in [-3.2, -1.1, -0.4]:
            for r1, r2 in envelope_point(dec, lam):
                ev = np.linalg.eigvals(perturbed_matrix(p, r1, r2))
                close = np.sort(np.abs(ev - lam))
                # double roots amplify backward error by a square root
                assert close[0] < 1e-5 and close[1] < 1e-5

    def test_gap_interval(self, dec):
        assert envelope_point(dec, -2.0) == []
        assert envelope_point(dec, -2.49) == []
        assert envelope_point(dec, -1.51) == []

    def test_branches_and_gaps(self, dec):
        brs = envelope(dec, np.linspace(-4, 0, 101))
        assert {b.branch for b in brs} == {"+", "-"}
        for b in brs:
            assert len(b.gaps) == 1
            lo, hi = b.gaps[0]
            assert lo < -1.5 and hi > -2.5 or (lo >= -2.6 and hi <= -1.4)

    def test_passes_origin(self, dec):
        # at lambda = -2 + eps both branches approach rho = 0
        sols = envelope_point(dec, -1.5 + 1e-6)
        assert sols  # just outside the gap

    def test_mirror_symmetry(self, dec):
        # the benchmark has P1 = P2, so the envelope is symmetric in rho1<->rho2
        for lam in [-3.0, -1.0]:
            sols = envelope_point(dec, lam)
            assert len(sols) == 2
            (a1, a2), (b1, b2) = sols
            assert np.isclose(a1, b2, atol=1e-8) and np.isclose(a2, b1, atol=1e-8)


class TestEnvelopeQZero:
    def test_matches_generic_solver(self):
        # build a rank-two problem with parallel g's: Q = 0 exactly
        rng = np.random.default_rng(3)
        from spectral_atlas.lowrank import LowRankProblem

        A = rng.standard_normal((5, 5))
        g = rng.standard_normal(5)
        p = LowRankProblem(A, rng.standard_normal(5), g, rng.standard_normal(5), 1.7 * g)
        d = decompose_cofactor(p)
        assert d.Q.is_zero
        lam = 0.3
        r1, r2 = envelope_q_zero(d, lam)
        sols = envelope_point(d, lam)
        assert len(sols) == 1
        assert np.allclose(sols[0], (r1, r2), atol=1e-7)


class TestGenericity:
    def test_generic_interior(self, dec):
        assert genericity_check(dec, -1.0) == "generic"
        assert genericity_check(dec, -3.4) == "generic"

    def test_c1_at_cusp(self, dec):
        assert genericity_check(dec, LAMSTAR) == "C1"

    def test_singular_piece_lines(self, dec):
        piece = singular_piece(dec, LAMSTAR)
        assert np.isclose(piece["rho1_line"], -0.5, atol=1e-8)
        assert np.isclose(piece["rho2_line"], -0.5, atol=1e-8)

    def test_singular_piece_rejects_generic(self, dec):
        with pytest.raises(DegenerateCurveError):
            singular_piece(dec, -1.0)

    def test_singular_lines_are_eigen_loci(self, dec):
        # on the line rho1 = -1/2 the benchmark keeps lambda* as an eigenvalue
        p = example1()
        for r2 in [-2.0, 0.0, 1.5]:
            ev = np.linalg.eigvals(perturbed_matrix(p, -0.5, r2))
            assert np.min(np.abs(ev - LAMSTAR)) < 1e-6


class TestHopf:
    def test_pure_imaginary_pair(self, dec):
        p = example1()
        for om in [0.5, 1.0, 2.0]:
            for r1, r2 in hopf_point(dec, om):
                ev = np.linalg.eigvals(perturbed_matrix(p, r1, r2))
                assert np.min(np.abs(ev - 1j * om)) < 1e-7

    def test_closed_form(self, dec):
        # rho1 = (4+s2)(4 om^2 - 14 +- sqrt(30(18 - 8 s2 + (1-2 s2) om^2 + om^4)))/14
        for om in [0.3, 1.0, 1.7]:
            rad = 30.0 * (18.0 - 8.0 * SQRT2 + (1.0 - 2.0 * SQRT2) * om**2 + om**4)
            cf = sorted(
                (4.0 + SQRT2) * (4.0 * om**2 - 14.0 + s * np.sqrt(rad)) / 14.0
                for s in (-1.0, 1.0)
            )
            got = sorted(r1 for r1, _ in hopf_point(dec, om))
            assert np.allclose(got, cf, atol=1e-7)

    def test_zero_frequency_limit_exact(self, dec):
        # at omega -> 0 the curve meets the envelope and the zero curve at
        # rho1 = -(4+s2) +- sqrt(30), rho2 the mirror
        target = sorted([-(4.0 + SQRT2) + np.sqrt(30.0), -(4.0 + SQRT2) - np.sqrt(30.0)])
        got = sorted(r1 for r1, _ in hopf_point(dec, 1e-6))
        assert np.allclose(got, target, atol=1e-4)
        env = sorted(r1 for r1, _ in envelope_point(dec, 0.0))
        assert np.allclose(env, target, atol=1e-9)

    def test_branches(self, dec):
        brs = hopf_curve(dec, np.linspace(0.1, 2.0, 50))
        assert all(len(b.points) == 50 for b in brs)


class TestRowsFromOneArray:
    """The envelope and Hopf rows, read from one coefficient array through
    kernel.horner, equal those of the per-polynomial npp.polyval route.

    Values are compared, not bytes: a constant polynomial's derivative is
    -0.0 on that route where the padded array holds +0.0.
    """

    @pytest.mark.parametrize("n", [None, 2, 3, 5, 9])
    def test_rows_equal_the_poly_route(self, n):
        p = example1() if n is None else generic_problem(np.random.default_rng(n), n)
        d = decompose_cofactor(p)
        lam = np.concatenate([np.linspace(-4.0, 0.0, 400), np.linspace(-400.0, 400.0, 801)])
        om = np.concatenate([np.linspace(0.01, 10.0, 400), np.linspace(0.01, 400.0, 801)])
        for got, ref in [
            *zip(_envelope_rows(d, lam), poly_envelope_rows(d, lam)),
            *zip(_hopf_rows(d, om), poly_hopf_rows(d, om)),
            *zip(_envelope_rows(d, -1.3), poly_envelope_rows(d, -1.3)),
        ]:
            assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_constant_split(self):
        # every polynomial a constant: the derivative row is zero, not empty
        d = AKDecomposition(Poly([1.0]), Poly([-0.5]), Poly([2.0]), Poly([1.0]))
        a, b = _envelope_rows(d, np.linspace(-1.0, 1.0, 5))
        assert np.array_equal(a, np.tile([1.0, -0.5, 2.0, 1.0], (5, 1)))
        assert b.shape == (5, 4) and not b.any()


class TestTriplePoints:
    def test_benchmark_triples(self, dec):
        tps = triple_points(dec, (-4.0, 0.0))
        assert len(tps) == 2
        pts = sorted((round(t["rho1"], 6), round(t["rho2"], 6)) for t in tps)
        assert pts == [(-1.5, -0.5), (-0.5, -1.5)]
        for t in tps:
            assert abs(t["lam"] - LAMSTAR) < 1e-8

    def test_triple_eigenvalue_verified(self, dec):
        p = example1()
        for t in triple_points(dec, (-4.0, 0.0)):
            ev = np.sort_complex(np.linalg.eigvals(perturbed_matrix(p, t["rho1"], t["rho2"])))
            close = np.sort(np.abs(ev - t["lam"]))
            # triple roots amplify backward error by a cube root
            assert np.all(close[:3] < 1e-3)

    def test_spurious_candidate_rejected(self, dec):
        # an elimination polynomial of F = F' = F'' = 0 also vanishes near
        # lambda = -2.354, where no real triple point exists
        tps = triple_points(dec, (-4.0, 0.0))
        assert all(abs(t["lam"] + 2.3539) > 0.5 for t in tps)

    def test_symmetric_degeneracy_raised(self):
        # P1 = P2 = Q = 0: identically satisfied condition
        zero = Poly([0.0])
        d = AKDecomposition(Poly([1.0, 2.0, 1.0]), zero, zero, zero)
        with pytest.raises(SymmetricDegeneracyError):
            triple_points(d, (-2.0, 0.0))

    def test_generic_problem_matches_oracle(self):
        prob = generic_problem(np.random.default_rng(7), 4)
        pts = triple_points(decompose_cofactor(prob), (-6.0, 0.5))
        got = [(t["lam"], t["rho1"], t["rho2"]) for t in pts]
        want = triple_points_mp(prob, (-6.0, 0.5))
        assert [(round(l, 7), round(r1, 6), round(r2, 6)) for l, r1, r2 in want] == [
            (-2.0112593, 0.564759, -0.381603),
            (-1.7260382, 1.272827, 0.923097),
        ]
        assert np.allclose(got, want, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_generic_points_are_triple_eigenvalues(self, seed):
        prob = generic_problem(np.random.default_rng(seed), 4 + seed % 5)
        pts = triple_points(decompose_cofactor(prob), (-6.0, 0.5))
        for t in pts:
            assert -6.0 <= t["lam"] <= 0.5
            ev = np.linalg.eigvals(perturbed_matrix(prob, t["rho1"], t["rho2"]))
            near = ev[np.argsort(np.abs(ev - t["lam"]))[:3]]
            # the eigensolver splits a triple eigenvalue by about the cube
            # root of its backward error, but moves their mean by the error
            assert np.all(np.abs(near - t["lam"]) < 0.05)
            assert abs(near.mean() - t["lam"]) < 1e-4
        key = np.array([(t["lam"], t["rho1"], t["rho2"]) for t in pts]).reshape(-1, 3)
        gaps = np.abs(key[:, None] - key[None]).max(axis=-1) + np.eye(len(key))
        assert np.all(gaps > 1e-6)  # each point reported once

    @pytest.mark.parametrize("seed", [5, 15])
    def test_generic_points_complete(self, seed):
        prob = generic_problem(np.random.default_rng(seed), 4 + seed % 5)
        want = triple_points_mp(prob, (-6.0, 0.5))
        for lam, r1, r2 in want:
            ev = np.sort(np.abs(np.linalg.eigvals(perturbed_matrix(prob, r1, r2)) - lam))
            assert ev[2] < 1e-3 and ev[3] > 0.1
        pts = triple_points(decompose_cofactor(prob), (-6.0, 0.5))
        got = [(t["lam"], t["rho1"], t["rho2"]) for t in pts]
        assert len(want) >= 2 and len(got) == len(want)
        assert np.allclose(got, want, rtol=1e-7, atol=1e-8)


class TestCsv:
    def test_roundtrippable_text(self, dec):
        brs = envelope(dec, np.linspace(-4, 0, 21))
        text = branches_to_csv(brs)
        lines = text.strip().splitlines()
        assert lines[0] == "kind,branch,parameter,rho1,rho2"
        data = [l for l in lines if not l.startswith("#")][1:]
        first = data[0].split(",")
        assert first[0] == "envelope" and first[1] in "+-"
        float(first[2]), float(first[3]), float(first[4])
        assert any(l.startswith("# gap") for l in lines)
