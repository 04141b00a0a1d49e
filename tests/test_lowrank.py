import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas.kernel import Poly, eig_dense
from spectral_atlas.lowrank import (
    AKDecomposition,
    LowRankProblem,
    SingularResolventError,
    ak_value,
    decompose_cofactor,
    decompose_spectral,
    perturbed_matrix,
    vectors_parallel,
)
from spectral_atlas.presets import EXAMPLE1_D, EXAMPLE1_P, EXAMPLE1_Q, example1


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
        ev = np.sort_complex(eig_dense(perturbed_matrix(p, r1, r2)).values)
        from spectral_atlas.kernel import poly_roots

        roots = np.sort_complex(poly_roots(dec.charpoly(r1, r2)))
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
        scale = max(dc.D.norm, 1.0)
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
        ev = eig_dense(perturbed_matrix(p, r1, r2)).values
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


class TestCharpoly:
    def test_charpoly_object(self):
        dec = decompose_cofactor(example1())
        cp = dec.charpoly(1.0, -1.0)
        assert isinstance(cp, Poly)
        assert np.isclose(cp(0.5), dec.evaluate(0.5, 1.0, -1.0))
