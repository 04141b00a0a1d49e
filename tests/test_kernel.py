import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas.kernel import (
    Poly,
    Spectrum,
    eig_dense,
    elliptic_K_E,
    jacobi_sn_cn_dn,
    poly_roots,
    poly_wronskian,
    poly_wronskian3,
    resultant,
)


class TestEigDense:
    def test_diagonal(self):
        s = eig_dense(np.diag([1.0, -2.0, 3.0]))
        assert np.allclose(sorted(s.values.real), [-2, 1, 3])
        assert np.allclose(s.values.imag, 0)

    def test_complex_pair(self):
        s = eig_dense([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(sorted(s.values.imag), [-1, 1])

    def test_right_left_vectors(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        s = eig_dense(A, vectors=True)
        for i in range(5):
            assert np.allclose(A @ s.right[:, i], s.values[i] * s.right[:, i], atol=1e-10)
            assert np.allclose(A.T @ s.left[:, i], s.values[i] * s.left[:, i], atol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_dense(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            eig_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_len(self):
        assert len(eig_dense(np.eye(3))) == 3


class TestPoly:
    def test_trim_and_zero(self):
        p = Poly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        z = Poly([0.0, 0.0])
        assert z.is_zero and z.degree == -1

    def test_eval_and_arith(self):
        p = Poly([1.0, 0.0, 1.0])  # 1 + x^2
        q = Poly([0.0, 1.0])  # x
        assert p(2.0) == 5.0
        assert (p + q)(2.0) == 7.0
        assert (p - q)(2.0) == 3.0
        assert (p * q)(2.0) == 10.0
        assert (3.0 * p)(1.0) == 6.0
        assert (-p)(0.0) == -1.0

    def test_deriv(self):
        p = Poly([0.0, 0.0, 0.0, 1.0])  # x^3
        assert np.allclose(p.deriv().coef, [0, 0, 3])
        assert np.allclose(p.deriv(2).coef, [0, 6])

    def test_from_roots(self):
        p = Poly.from_roots([1.0, -2.0])
        assert np.allclose(p.coef, [-2.0, 1.0, 1.0])

    def test_chop(self):
        p = Poly([1.0, 1e-14, 2.0])
        c = p.chop(1e-12)
        assert c.coef[1] == 0.0 and c.degree == 2

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_eval_matches_horner(self, coefs, x):
        p = Poly(coefs)
        ref = sum(c * x**i for i, c in enumerate(coefs))
        assert abs(p(x) - ref) <= 1e-8 * (1 + abs(ref))


class TestWronskian:
    def test_basic(self):
        f = Poly([0.0, 1.0])  # x
        g = Poly([0.0, 0.0, 1.0])  # x^2
        # x * 2x - 1 * x^2 = x^2
        assert np.allclose(poly_wronskian(f, g).coef, [0, 0, 1])

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        f = Poly(rng.standard_normal(4))
        g = Poly(rng.standard_normal(5))
        w1 = poly_wronskian(f, g)
        w2 = poly_wronskian(g, f)
        assert np.allclose(w1.coef, (-w2).coef)

    def test_parallel_gives_zero(self):
        f = Poly([1.0, 2.0, 3.0])
        assert poly_wronskian(f, 2.5 * f).chop(1e-12).is_zero

    def test_wronskian3_numeric(self):
        # cross-check the symbolic expansion against a numeric determinant
        rng = np.random.default_rng(2)
        f, g, h = (Poly(rng.standard_normal(4)) for _ in range(3))
        w = poly_wronskian3(f, g, h)
        for x in np.linspace(-2, 2, 7):
            Mx = np.array(
                [
                    [f(x), g(x), h(x)],
                    [f.deriv()(x), g.deriv()(x), h.deriv()(x)],
                    [f.deriv(2)(x), g.deriv(2)(x), h.deriv(2)(x)],
                ]
            )
            assert abs(w(x) - np.linalg.det(Mx)) < 1e-8 * max(1, abs(w(x)))

    def test_wronskian3_dependent_rows(self):
        f = Poly([1.0, 1.0])
        g = Poly([2.0, -1.0, 1.0])
        h = f * 2.0 + g * (-3.0)
        assert poly_wronskian3(f, g, h).chop(1e-10).is_zero


class TestRootsResultant:
    def test_roots_roundtrip(self):
        roots = np.array([1.0, -0.5, 3.0])
        r = poly_roots(Poly.from_roots(roots))
        assert np.allclose(sorted(r.real), sorted(roots), atol=1e-9)
        assert np.allclose(r.imag, 0, atol=1e-9)

    def test_roots_complex(self):
        r = poly_roots(Poly([1.0, 0.0, 1.0]))  # x^2 + 1
        assert np.allclose(sorted(r.imag), [-1, 1], atol=1e-12)

    def test_roots_constant(self):
        assert poly_roots(Poly([3.0])).size == 0

    def test_roots_zero_raises(self):
        with pytest.raises(ValueError):
            poly_roots(Poly.zero())

    def test_resultant_shared_root(self):
        p = Poly.from_roots([1.0, 2.0])
        q = Poly.from_roots([2.0, 5.0])
        assert abs(resultant(p, q)) < 1e-10

    def test_resultant_value(self):
        # res(x^2-1, x-3) = (3-1)(3+1) = 8
        assert np.isclose(resultant(Poly([-1.0, 0.0, 1.0]), Poly([-3.0, 1.0])), 8.0)

    def test_resultant_subnormal_coefficient(self):
        # the LU leaves a zero pivot unflagged; det must not warn (warnings fail)
        p = Poly.from_roots([1.0, 2.0, 5e-324])
        q = Poly.from_roots([1.0, 2.0, 2.0])
        assert resultant(p, q) == 0.0

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=4),
           st.lists(st.floats(-3, 3), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_resultant_vs_root_product(self, ra, rb):
        p, q = Poly.from_roots(ra), Poly.from_roots(rb)
        # res = prod over root pairs (a_i - b_j), both monic
        ref = np.prod([a - b for a in ra for b in rb])
        assert np.isclose(resultant(p, q), ref, rtol=1e-6, atol=1e-6)


class TestElliptic:
    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_K_E_vs_scipy(self, k):
        K, E = elliptic_K_E(k)
        assert np.isclose(K, scipy.special.ellipk(k * k), rtol=1e-13)
        assert np.isclose(E, scipy.special.ellipe(k * k), rtol=1e-13)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            elliptic_K_E(1.0)
        with pytest.raises(ValueError):
            elliptic_K_E(-0.1)

    @pytest.mark.parametrize("k", [0.0, 0.3, 0.7, 0.95])
    def test_jacobi_vs_scipy(self, k):
        xs = np.linspace(-3, 3, 21)
        sn, cn, dn = jacobi_sn_cn_dn(xs, k)
        sn2, cn2, dn2, _ = scipy.special.ellipj(xs, k * k)
        assert np.allclose(sn, sn2, atol=1e-12)
        assert np.allclose(cn, cn2, atol=1e-12)
        assert np.allclose(dn, dn2, atol=1e-12)

    def test_jacobi_identities(self):
        k = 0.6
        sn, cn, dn = jacobi_sn_cn_dn(1.3, k)
        assert np.isclose(sn * sn + cn * cn, 1.0, atol=1e-13)
        assert np.isclose(dn * dn + (k * sn) ** 2, 1.0, atol=1e-13)

    def test_jacobi_quarter_period(self):
        k = 0.8
        K, _ = elliptic_K_E(k)
        sn, cn, dn = jacobi_sn_cn_dn(K, k)
        assert np.isclose(sn, 1.0, atol=1e-12)
        assert np.isclose(cn, 0.0, atol=1e-12)
        assert np.isclose(dn, np.sqrt(1 - k * k), atol=1e-12)

    def test_scalar_returns_floats(self):
        out = jacobi_sn_cn_dn(0.5, 0.5)
        assert all(isinstance(v, float) for v in out)
