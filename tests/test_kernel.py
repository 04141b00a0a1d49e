import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy.polynomial.polynomial as npp

from spectral_atlas.kernel import (
    Poly,
    derivative,
    elliptic_K_E,
    horner,
    jacobi_sn_cn_dn,
)

from kernel_oracle import (
    clipped_sn_cn_dn,
    poly_roots,
    poly_roots_of_poly,
    poly_wronskian,
    resultant,
)


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestHornerDerivative:
    """horner and derivative give npp.polyval's and npp.polyder's bits."""

    rng = np.random.default_rng(11)
    X = {
        "real": rng.uniform(-3.0, 3.0, 50),
        "complex": 1j * rng.uniform(0.0, 10.0, 50),
        "mixed": rng.uniform(-2.0, 2.0, 50) + 1j * rng.uniform(-2.0, 2.0, 50),
        "scalar": -1.7,
        "complex scalar": 0.3 + 2.1j,
    }

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("x", X.values(), ids=X.keys())
    def test_horner_is_polyval(self, degree, x):
        c = self.rng.standard_normal(degree + 1)
        assert same_bits(horner(c, x), npp.polyval(x, c))
        assert same_bits(horner(c.tolist(), x), npp.polyval(x, c))

    @pytest.mark.parametrize("x", X.values(), ids=X.keys())
    def test_rows_padded_with_leading_zeros(self, x):
        # one column per polynomial, each padded to the longest with zeros
        # above its degree: every column keeps its own polynomial's bits.
        # Rows make array arithmetic even at a scalar x, and numpy's complex
        # scalar product may differ from its array loop in the last bit, so
        # the reference is evaluated on an array too
        cs = [self.rng.standard_normal(n) for n in (1, 3, 4, 7)]
        rows = np.zeros((7, len(cs)))
        for k, c in enumerate(cs):
            rows[: c.size, k] = c
        got = horner(rows.reshape(rows.shape + (1,) * np.ndim(x)), x)
        for k, c in enumerate(cs):
            ref = npp.polyval(np.asarray(x)[None], c).reshape(np.shape(x))
            assert same_bits(got[k], ref)

    @pytest.mark.parametrize("degree", [0, 1, 2, 5])
    def test_derivative_is_polyder(self, degree):
        c = self.rng.standard_normal(degree + 1)
        assert same_bits(derivative(c.tolist()), npp.polyder(c))
        assert isinstance(derivative(c.tolist()), list)
        assert same_bits(derivative(c), npp.polyder(c))
        rows = self.rng.standard_normal((degree + 1, 4))
        assert same_bits(derivative(rows), npp.polyder(rows, axis=0))

    def test_constant_rows_have_a_zero_row(self):
        # a constant's derivative is a zero row, not an empty array
        d = np.asarray(derivative(np.array([[1.0, -2.0, 0.5, 3.0]])))
        assert d.shape == (1, 4) and not d.any()
        assert derivative([4.0]) == [0.0]

    def test_list_at_float_stays_float(self):
        assert type(horner([1.0, 2.0, 3.0], 0.5)) is float

    def test_poly_takes_what_polyval_takes(self):
        c = self.rng.standard_normal(4)
        for x in ([0.5, -1.0], (2.0, 1j), 0.25, 1.5j, np.linspace(-1.0, 1.0, 7)):
            assert same_bits(Poly(c)(x), npp.polyval(x, c))
        assert same_bits(Poly(c).deriv(2).coef, npp.polyder(c, 2))
        assert same_bits(Poly(c).deriv(5).coef, npp.polyder(c, 5))


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


class TestRootsResultant:
    def test_roots_roundtrip(self):
        roots = np.array([1.0, -0.5, 3.0])
        r = poly_roots(Poly.from_roots(roots).coef)
        assert np.allclose(sorted(r.real), sorted(roots), atol=1e-9)
        assert np.allclose(r.imag, 0, atol=1e-9)

    def test_roots_complex(self):
        r = poly_roots(Poly([1.0, 0.0, 1.0]).coef)  # x^2 + 1
        assert np.allclose(sorted(r.imag), [-1, 1], atol=1e-12)

    def test_roots_constant(self):
        assert poly_roots(Poly([3.0]).coef).size == 0

    def test_roots_zero_raises(self):
        with pytest.raises(ValueError):
            poly_roots(Poly.zero().coef)

    @pytest.mark.parametrize(
        "c",
        [
            [1.0, -3.0, 2.0],
            [2.0, 0.0, -1.25, 0.0, 0.25],
            [1.0, 2.0, 0.0, 0.0],  # padded with zeros above its degree
            [0.5, -1.0, 0.0, 0.25, -0.0],
            [1e-3, 7.0, -2.5, 1e3, 4.0, -1e-2],
            [3.0],
            [3.0, 0.0, -0.0],  # degree 0 after trimming
        ],
        ids=str,
    )
    def test_list_same_bits_as_poly_route(self, c):
        ref = poly_roots_of_poly(Poly(c))
        for arg in (c, np.array(c)):
            r = poly_roots(arg)
            assert r.dtype == ref.dtype and r.tobytes() == ref.tobytes()

    def test_random_lists_same_bits_as_poly_route(self):
        rng = np.random.default_rng(4)
        for deg in range(1, 9):
            for _ in range(10):
                c = rng.standard_normal(deg + 1).tolist()
                ref = poly_roots_of_poly(Poly(c))
                assert poly_roots(c).tobytes() == ref.tobytes()

    def test_degree_0_list_has_no_roots(self):
        r = poly_roots([3.0, 0.0])
        assert r.size == 0 and r.dtype == complex

    @pytest.mark.parametrize("c", [[0.0], [0.0, -0.0, 0.0], []], ids=str)
    def test_zero_list_raises(self, c):
        with pytest.raises(ValueError, match="zero polynomial"):
            poly_roots(c)

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

    @pytest.mark.parametrize("k", [1e-8, 1e-3, 0.2, 0.45, 0.65, 0.9, 0.999999])
    def test_jacobi_same_bits_as_clipped_route(self, k):
        # no clip can bind, and a stage whose arcsin term is below a quarter
        # ulp of phi only halves it: the clipped route's bits, array and scalar
        K, _ = elliptic_K_E(k)
        xs = np.linspace(-K, K, 20001)
        for got, ref in zip(jacobi_sn_cn_dn(xs, k), clipped_sn_cn_dn(xs, k)):
            assert got.tobytes() == ref.tobytes()
        for x in (-K, -0.3 * K, -0.0, 0.0, 1e-300, 0.7 * K, K, *xs[::997].tolist()):
            got, ref = jacobi_sn_cn_dn(x, k), clipped_sn_cn_dn(x, k)
            assert [v.hex() for v in got] == [v.hex() for v in ref]
