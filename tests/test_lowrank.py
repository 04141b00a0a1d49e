import json

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas.kernel import Poly
from spectral_atlas.lowrank import (
    AKDecomposition,
    LowRankProblem,
    decompose_cofactor,
    det_residual,
    perturbed_matrix,
    vectors_parallel,
)
from spectral_atlas.lowrank import _det_charpoly
from spectral_atlas.presets import EXAMPLE1_D, EXAMPLE1_P, EXAMPLE1_Q, example1

from lowrank_oracle import SingularResolventError, ak_value, charpoly, decompose_spectral
from lowrank_oracle import decompose_per_basis
from curves_oracle import generic_problem
from spectral_atlas.integrator import build_network


def random_problem(rng, n=5, rank=2, symmetric=False):
    A = rng.standard_normal((n, n))
    if symmetric:
        A = 0.5 * (A + A.T)
    f2 = g2 = None
    if rank == 2:
        f2, g2 = rng.standard_normal(n), rng.standard_normal(n)
    return LowRankProblem(A, rng.standard_normal(n), rng.standard_normal(n), f2, g2)


class TestProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            LowRankProblem(np.zeros((2, 3)), [1, 0], [0, 1])
        with pytest.raises(ValueError):
            LowRankProblem(np.eye(2), [1, 0, 0], [0, 1])
        with pytest.raises(ValueError):
            LowRankProblem(np.eye(2), [1, 0], [0, 1], f2=[1, 0])

    def test_rank(self):
        assert LowRankProblem(np.eye(2), [1, 0], [0, 1]).rank == 1
        assert example1().rank == 2

    def test_json_roundtrip(self):
        p = example1()
        q = LowRankProblem.from_json(p.to_json())
        assert np.allclose(p.M, q.M) and np.allclose(p.f2, q.f2)

    def test_json_rank1(self):
        p = LowRankProblem(np.eye(2), [1.0, 0.0], [0.0, 1.0])
        q = LowRankProblem.from_json(p.to_json())
        assert q.rank == 1

    def test_json_errors(self):
        with pytest.raises(ValueError):
            LowRankProblem.from_json("not json")
        with pytest.raises(ValueError):
            LowRankProblem.from_json(json.dumps({"M": [[1.0]]}))

    @pytest.mark.parametrize("key", ["M", "f1", "g1", "f2", "g2"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_json_non_finite_names_key(self, key, bad):
        d = json.loads(example1().to_json())
        if key == "M":
            d["M"][1][2] = bad
        else:
            d[key][0] = bad
        with pytest.raises(ValueError, match=f"'{key}'"):
            LowRankProblem.from_json(json.dumps(d))

    def test_json_overflow_is_non_finite(self):
        text = '{"M": [[1e999]], "f1": [1.0], "g1": [1.0]}'
        with pytest.raises(ValueError, match="'M'"):
            LowRankProblem.from_json(text)


class TestParallel:
    def test_parallel(self):
        assert vectors_parallel([1, 2, 3], [-2, -4, -6])
        assert not vectors_parallel([1, 0, 0], [1, 1e-5, 0])
        assert vectors_parallel([0, 0], [1, 2])


class TestDecomposeExample1:
    def test_closed_form(self):
        dec = decompose_cofactor(example1())
        assert np.allclose(dec.D.coef, EXAMPLE1_D, atol=1e-10)
        assert np.allclose(dec.P1.coef, EXAMPLE1_P, atol=1e-10)
        assert np.allclose(dec.P2.coef, EXAMPLE1_P, atol=1e-10)
        assert np.allclose(dec.Q.coef, EXAMPLE1_Q, atol=1e-10)

    def test_degree_bounds(self):
        dec = decompose_cofactor(example1())
        n = 4
        assert dec.D.degree == n
        assert dec.P1.degree <= n - 1
        assert dec.Q.degree <= n - 2


class TestDecomposeRandom:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_determinant(self, seed, rank):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n=5, rank=rank)
        dec = decompose_cofactor(p)
        for r1, r2 in [(0.7, -1.3), (-2.0, 0.4), (3.1, 2.2)]:
            A = perturbed_matrix(p, r1, r2)
            for lam in [-1.7, 0.3, 2.9]:
                det = np.linalg.det(A - lam * np.eye(p.n))
                val = dec.evaluate(lam, r1, r2)
                assert np.isclose(val, det, rtol=1e-8, atol=1e-8 * p.scale**p.n)

    def test_rank1_has_zero_P2_Q(self):
        rng = np.random.default_rng(7)
        dec = decompose_cofactor(random_problem(rng, rank=1))
        assert dec.P2.is_zero and dec.Q.is_zero

    def test_parallel_g_kills_Q(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((4, 4))
        g = rng.standard_normal(4)
        p = LowRankProblem(A, rng.standard_normal(4), g, rng.standard_normal(4), 2.0 * g)
        assert decompose_cofactor(p).Q.is_zero

    def test_parallel_f_kills_Q(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((4, 4))
        f = rng.standard_normal(4)
        p = LowRankProblem(A, f, rng.standard_normal(4), -0.5 * f, rng.standard_normal(4))
        assert decompose_cofactor(p).Q.is_zero

    def test_roots_are_eigenvalues(self):
        rng = np.random.default_rng(10)
        p = random_problem(rng)
        dec = decompose_cofactor(p)
        r1, r2 = 1.4, -0.8
        ev = np.sort_complex(np.linalg.eigvals(perturbed_matrix(p, r1, r2)))
        from kernel_oracle import poly_roots

        roots = np.sort_complex(poly_roots(charpoly(dec, r1, r2).coef))
        assert np.allclose(ev, roots, atol=1e-7)


class TestDecomposeSpectral:
    def test_requires_symmetric(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            decompose_spectral(random_problem(rng, symmetric=False))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rank", [1, 2])
    def test_agrees_with_cofactor(self, seed, rank):
        rng = np.random.default_rng(100 + seed)
        p = random_problem(rng, n=5, rank=rank, symmetric=True)
        dc = decompose_cofactor(p)
        ds = decompose_spectral(p)
        scale = max(np.max(np.abs(dc.D.coef)), 1.0)
        for a, b in [(dc.D, ds.D), (dc.P1, ds.P1), (dc.P2, ds.P2), (dc.Q, ds.Q)]:
            assert np.allclose(
                np.pad(a.coef, (0, 6 - a.coef.size)),
                np.pad(b.coef, (0, 6 - b.coef.size)),
                atol=1e-8 * scale,
            )


class TestAkValue:
    def test_zero_at_eigenvalue(self):
        p = example1()
        r1, r2 = 0.9, -0.4
        ev = np.linalg.eigvals(perturbed_matrix(p, r1, r2))
        lam = ev[np.argmax(np.abs(ev.imag)) if np.any(np.abs(ev.imag) > 1e-9) else 0]
        assert abs(ak_value(p, r1, r2, complex(lam))) < 1e-8

    def test_matches_determinant_ratio(self):
        # the bracket equals det(Mt - lam I) / det(M - lam I)
        rng = np.random.default_rng(12)
        p = random_problem(rng)
        r1, r2, lam = 0.6, 1.1, 0.37
        ratio = np.linalg.det(
            perturbed_matrix(p, r1, r2) - lam * np.eye(p.n)
        ) / np.linalg.det(p.M - lam * np.eye(p.n))
        assert np.isclose(ak_value(p, r1, r2, lam), ratio, rtol=1e-9)

    def test_singular_resolvent_raises(self):
        p = example1()
        with pytest.raises(SingularResolventError):
            ak_value(p, 0.5, 0.5, -2.0)  # -2 is in spec(M)

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_consistent_with_decomposition(self, r1, r2):
        p = example1()
        dec = decompose_cofactor(p)
        lam = 0.6  # outside spec(M)
        D = np.prod([lam - e for e in [-1, -2, -2, -3]])
        assert np.isclose(
            ak_value(p, r1, r2, lam) * D, dec.evaluate(lam, r1, r2), rtol=1e-8, atol=1e-8
        )


def old_route_diff(prob, dec):
    """The determinant check decompose ran before det_residual, kept as a reference."""
    rng = np.random.default_rng(0)
    diff = 0.0
    eye = np.eye(prob.n)
    for _ in range(8):
        r1, r2 = rng.uniform(-2.0, 2.0, 2)
        lam = rng.uniform(-2.0, 2.0)
        det = np.linalg.det(perturbed_matrix(prob, r1, r2) - lam * eye)
        val = dec.D(lam) + r1 * dec.P1(lam) + r2 * dec.P2(lam) + r1 * r2 * dec.Q(lam)
        diff = max(diff, abs(det - val) / max(1.0, abs(det)))
    return diff


class TestBatched:
    @pytest.mark.parametrize("seed", range(12))
    def test_det_residual_equals_old_loop(self, seed):
        rng = np.random.default_rng(seed)
        p = random_problem(rng, n=3 + seed % 5, rank=1 if seed % 4 == 0 else 2)
        dec = decompose_cofactor(p)
        r1, r2, lam = np.random.default_rng(0).uniform(-2.0, 2.0, (8, 3)).T
        assert det_residual(p, dec, lam, r1, r2) == old_route_diff(p, dec)

    def test_det_residual_sees_a_wrong_coefficient(self):
        p = example1()
        dec = decompose_cofactor(p)
        bad = AKDecomposition(dec.D, Poly(npp.polyadd(dec.P1.coef, [0.0, 1e-3])), dec.P2, dec.Q)
        r1, r2, lam = np.random.default_rng(0).uniform(-2.0, 2.0, (8, 3)).T
        assert det_residual(p, dec, lam, r1, r2) < 1e-10
        assert det_residual(p, bad, lam, r1, r2) > 1e-5

    def test_stacked_perturbed_matrix(self):
        p = random_problem(np.random.default_rng(3))
        r1, r2 = np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.0, -0.25])
        A = perturbed_matrix(p, r1, r2)
        assert A.shape == (3, p.n, p.n)
        for k in range(3):
            assert np.array_equal(A[k], perturbed_matrix(p, float(r1[k]), float(r2[k])))

    @pytest.mark.parametrize("seed", range(8))
    def test_det_charpoly_equals_node_loop(self, seed):
        import numpy.polynomial.chebyshev as npc

        rng = np.random.default_rng(seed)
        n = 2 + seed
        A = rng.standard_normal((n, n))
        radius = 2.0 * np.linalg.norm(A, np.inf) + 1.0
        nodes = np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
        xs = radius * nodes
        ys = np.array([np.linalg.det(A - x * np.eye(n)) for x in xs])
        ref = npc.cheb2poly(npc.chebfit(xs, ys, n))
        assert _det_charpoly(A, radius).tolist() == ref.tolist()


class TestDecompositionJson:
    def test_round_trip_is_exact(self):
        dec = decompose_cofactor(random_problem(np.random.default_rng(5)))
        back = AKDecomposition.from_json(dec.to_json(max_route_diff=1e-12))
        for key in ("D", "P1", "P2", "Q"):
            assert getattr(back, key).coef.tolist() == getattr(dec, key).coef.tolist()

    def test_extra_keys_ride_along(self):
        text = decompose_cofactor(example1()).to_json(max_route_diff=0.5)
        d = json.loads(text)
        assert sorted(d) == ["D", "P1", "P2", "Q", "max_route_diff"]
        assert d["max_route_diff"] == 0.5


def per_basis_corpus(family: str):
    """Seeded problems of one family for the comparison with the per-basis
    route: the presets, random well-scaled ones with n = 2..9, integer ones
    with exact zeros (n = 1..8), rank-one ones, and ones with parallel f's
    or g's."""
    if family == "presets":
        return [example1(), build_network(preset="ag_normal"), build_network(preset="ag_in")]
    rng = np.random.default_rng(["random", "integer", "rank_one", "parallel"].index(family))
    if family == "random":
        return [generic_problem(rng, int(n)) for n in rng.integers(2, 10, 80)]
    out = []
    for i, n in enumerate(rng.integers(1, 9, 60).tolist()):
        M = rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.5)
        f1, g1, f2, g2 = rng.integers(-2, 3, (4, n)).astype(float)
        if family == "integer":
            out.append(LowRankProblem(M, f1, g1, f2, g2))
        elif family == "rank_one":
            M = M if i % 2 else M + 0.3 * rng.standard_normal((n, n))
            out.append(LowRankProblem(M, f1, g1))
        elif i % 2:
            out.append(LowRankProblem(M, f1, g1, -2.0 * f1, g2))
        else:
            out.append(LowRankProblem(M, f1, g1, f2, 0.5 * g1))
    return out


class TestStackedRoute:
    """decompose_cofactor samples every basis setting in one determinant
    call and converts all interpolants in one recurrence; the result must
    have the bits of the per-basis route."""

    @pytest.mark.parametrize("family", ["presets", "random", "integer", "rank_one", "parallel"])
    def test_json_equals_per_basis_route(self, family):
        for p in per_basis_corpus(family):
            assert decompose_cofactor(p).to_json() == decompose_per_basis(p).to_json()

    def test_rank_one_path(self):
        for p in per_basis_corpus("rank_one"):
            dec = decompose_cofactor(p)
            assert dec.P2.is_zero and dec.Q.is_zero
            assert dec.D.coef.tolist() == decompose_per_basis(p).D.coef.tolist()

    def test_stack_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 3, 6, 6))
        got = _det_charpoly(A, 7.5)
        assert got.shape == (2, 3, 7)
        for i in range(2):
            for j in range(3):
                assert got[i, j].tolist() == _det_charpoly(A[i, j], 7.5).tolist()


class TestOverflow:
    def big(self, s):
        e = np.eye(2)
        return LowRankProblem([[s, 0.0], [0.0, 1.0]], e[0], e[1], e[1], e[0])

    def test_scale_power_overflow_raises(self):
        # scale**n itself overflows
        with pytest.raises(FloatingPointError, match=r"n = 2 at scale 1e\+200"):
            decompose_cofactor(self.big(1e200))

    def test_sample_overflow_raises(self):
        # scale**n = 1e308 is finite, det at the nodes is not
        with pytest.raises(FloatingPointError, match=r"n = 2 at scale 1e\+154"):
            decompose_cofactor(self.big(1e154))

    @pytest.mark.parametrize("s", [1e76, 1e77, 1e150])
    def test_rank_deficient_fit_raises_or_is_exact(self, s):
        # from s = 1e77 chebfit's top Vandermonde column norm overflows, and
        # the fit used to drop D's top coefficient: D came out of degree 1
        try:
            dec = decompose_cofactor(self.big(s))
        except FloatingPointError as e:
            assert "n = 2" in str(e)
            return
        # D = x^2 - (s+1) x + s, coefficient k scaled by s^(k-2)
        assert dec.D.coef.size == 3
        scaled = dec.D.coef * s ** (np.arange(3) - 2.0)
        assert np.allclose(scaled, [1.0 / s, -(s + 1.0) / s, 1.0], rtol=0.0, atol=1e-12)

    def test_large_scale_n8_raises_or_is_exact(self, capfd):
        # no LAPACK message on stderr and no truncated D
        rng = np.random.default_rng(0)
        n = 8
        p = LowRankProblem(1e37 * rng.standard_normal((n, n)), *rng.standard_normal((4, n)))
        try:
            dec = decompose_cofactor(p)
        except FloatingPointError:
            dec = None
        assert capfd.readouterr().err == ""
        if dec is not None:
            scale = p.scale ** (np.arange(n + 1) - float(n))
            ref = np.poly(p.M)[::-1]
            assert dec.D.coef.size == n + 1
            assert np.allclose(dec.D.coef * scale, ref * scale, rtol=0.0, atol=1e-10)

    def test_non_finite_sample_gives_nan_coefficients(self):
        A = np.array([[[1e154, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        assert np.isnan(_det_charpoly(A, 3e154)).all()
