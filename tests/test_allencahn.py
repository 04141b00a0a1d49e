import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas import allencahn, cli, kernel
from spectral_atlas.allencahn import (
    CubicFront,
    IndeterminateIndexError,
    PoleProximityError,
    build_H_discrete,
    cubic_operator,
    family_point,
    family_table,
    herglotz_h,
    inner_H_inv_one,
    lambda1,
    period_jet,
    stability_index,
    trace_family,
    turning_points,
)
from spectral_atlas.kernel import Poly, derivative, elliptic_K_E, horner

from allencahn_oracle import (
    banded_solve,
    descending_period_jet,
    eigvals_turning_points,
    four_count_stability_index,
    lame_spectrum,
    perturbed_eigs_near,
    restricted_matrix,
    tau_richardson,
)


@pytest.fixture(scope="module")
def op_half():
    return cubic_operator(0.5, n=4000)


# zero or at least 1e-100 in size: bisection's pivot floor (the smallest
# normal number times the largest squared off-diagonal) would swamp the
# spectrum of a matrix whose squared entries underflow
TRIDIAGONAL_ENTRIES = st.floats(-10, 10).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-100
)


def old_stability_index(op):
    """stability_index as it was decided from the full spectrum of H."""
    ev = op.eigvals()
    scale = float(np.max(np.abs(ev)))
    n_plus_H = int(np.sum(ev > 1e-9 * max(1.0, scale)))
    ones = np.ones(op.n)
    if np.min(np.abs(ev)) < 1e-8 * scale:
        A = scipy.sparse.diags(
            [op.off, op.diag, op.off], [-1, 0, 1], format="csr"
        )
        y = scipy.sparse.linalg.lsmr(A, ones, atol=1e-12, btol=1e-12)[0]
    else:
        y = op.solve(ones)
    inner = float(op.h * (ones @ y))
    top = max(1.0, abs(ev[-1]))
    near0 = np.sort(np.abs(perturbed_eigs_near(op, 1.0, sigma=1e-3 * top)))
    return {
        "n_plus_H": n_plus_H,
        "inner": inner,
        "n_plus_perturbed": n_plus_H - (1 if inner > 0 else 0),
        "has_kernel": bool(near0[0] < 1e-3 * top and near0[1] > 1e-3 * top),
    }


def reference_count(ev, lo, hi):
    return int(np.count_nonzero((ev > lo) & (ev <= hi)))


def oracle_intervals(ev):
    """(lo, hi) pairs around the spectrum ev whose ends keep clear of it.

    lo >= hi, the whole spectrum, an empty gap, and eigenvalues (about a
    hundred, the ends among them) with a gap of at least 1e-6 of the scale
    on both sides straddled, with ends a tenth of a gap away from them.
    """
    scale = max(1.0, float(np.max(np.abs(ev))))
    pad = 1e-3 * scale
    out = [
        (0.0, 0.0),
        (1.0, -1.0),
        (ev[-1] + pad, ev[0] - pad),
        (ev[0] - pad, ev[-1] + pad),
        (ev[-1] + pad, ev[-1] + 2 * pad),
    ]
    gaps = np.diff(ev)
    for i in sorted({*range(0, len(ev), max(1, len(ev) // 100)), len(ev) - 1}):
        left = gaps[i - 1] if i > 0 else pad
        right = gaps[i] if i < len(gaps) else pad
        if min(left, right) < 1e-6 * scale:
            continue
        out.append((ev[i] - 0.1 * left, ev[i] + 0.1 * right))
        out.append((ev[i] - 0.1 * left, ev[i] + 0.9 * right))
        out.append((ev[i] + 0.1 * right, ev[i] + 0.9 * right))
        out.append((ev[i] - 0.9 * left, ev[i] - 0.1 * left))
    return out


def check_count_oracle(op):
    ev = op.eigvals()
    scale = float(np.max(np.abs(ev)))
    lowest, highest = op._ends
    assert abs(lowest - ev[0]) <= 1e-13 * scale
    assert abs(highest - ev[-1]) <= 1e-13 * scale
    for lo, hi in oracle_intervals(ev):
        assert op.count_eigvals(lo, hi) == reference_count(ev, lo, hi)


class TestCubicFront:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            CubicFront.from_k(1.5)

    def test_F_and_f_are_the_polynomials(self):
        fr = CubicFront.from_k(0.6)
        k2 = 0.6**2
        assert isinstance(fr.F, Poly) and fr.F is fr.F
        assert fr.F.coef.tolist() == [0.0, 0.0, 0.5 * (1.0 + k2), 0.0, -0.5 * k2]
        u = np.linspace(-1.2, 1.2, 7)
        f = horner(derivative(fr.F.coef), u)
        assert np.allclose(f, (1.0 + k2) * u - 2.0 * k2 * u**3, rtol=1e-15, atol=1e-15)

    def test_profile_solves_ode(self):
        # sn'' + (1+k^2) sn - 2k^2 sn^3 = 0
        fr = CubicFront.from_k(0.7)
        x = np.linspace(-fr.K + 0.1, fr.K - 0.1, 41)
        h = 1e-5
        upp = (fr.profile(x + h) - 2 * fr.profile(x) + fr.profile(x - h)) / h**2
        assert np.max(np.abs(upp + horner(derivative(fr.F.coef), fr.profile(x)))) < 1e-4

    def test_neumann_at_ends(self):
        fr = CubicFront.from_k(0.4)
        h = 1e-6
        for end in (-fr.K, fr.K):
            d = (fr.profile(end + h) - fr.profile(end - h)) / (2 * h)
            assert abs(d) < 1e-8


class TestLameSpectrum:
    def test_ordering_and_signs(self):
        for k in (0.2, 0.5, 0.8):
            vals = [lam for lam, _, _ in lame_spectrum(k)]
            assert vals == sorted(vals, reverse=True)
            assert vals[0] == -(1 + k**2 - 2 * np.sqrt(1 - k**2 + k**4))
            assert vals[0] > 0  # one positive eigenvalue
            assert vals[1] == 0.0

    def test_translation_mode_is_derivative(self):
        # the zero mode cn*dn equals d/dx sn
        fr = CubicFront.from_k(0.5)
        lam, phi, bc = lame_spectrum(0.5)[1]
        assert lam == 0.0 and bc == "D"
        x = np.linspace(-fr.K + 0.05, fr.K - 0.05, 31)
        h = 1e-6
        du = (fr.profile(x + h) - fr.profile(x - h)) / (2 * h)
        assert np.max(np.abs(phi(x) - du)) < 1e-9

    def test_pairs_satisfy_operator(self):
        # H phi = lambda phi pointwise via difference quotients
        k = 0.6
        fr = CubicFront.from_k(k)
        x = np.linspace(-fr.K + 0.1, fr.K - 0.1, 25)
        h = 1e-5
        for lam, phi, _ in lame_spectrum(k):
            lhs = (phi(x + h) - 2 * phi(x) + phi(x - h)) / h**2
            lhs = lhs + fr.f_prime(fr.profile(x)) * phi(x)
            assert np.max(np.abs(lhs - lam * phi(x))) < 1e-4

    def test_boundary_conditions(self):
        k = 0.45
        fr = CubicFront.from_k(k)
        h = 1e-6
        for lam, phi, bc in lame_spectrum(k):
            if bc == "D":
                assert abs(phi(fr.K)) < 1e-10
            else:
                d = (phi(fr.K + h) - phi(fr.K - h)) / (2 * h)
                assert abs(d) < 1e-7

    def test_matches_discretized_neumann(self, op_half):
        ev = np.sort(op_half.eigvals())[::-1]
        neumann = [lam for lam, _, bc in lame_spectrum(0.5) if bc == "N"]
        for target, got in zip(neumann, ev[:3]):
            assert abs(target - got) < 1e-4

    def test_dirichlet_entries_vs_discretization(self):
        # Dirichlet closure: cell-centered grid with ghost v_-1 = -v_0
        fr = CubicFront.from_k(0.5)
        n = 4000
        h = 2 * fr.K / n
        x = -fr.K + (np.arange(n) + 0.5) * h
        diag = fr.f_prime(fr.profile(x)) - 2.0 / h**2
        off = np.full(n - 1, 1.0 / h**2)
        ev = np.sort(
            scipy.linalg.eigvalsh_tridiagonal(diag, off)
        )[::-1]
        dirichlet = [lam for lam, _, bc in lame_spectrum(0.5) if bc == "D"]
        # first-order accurate ghost closure for Dirichlet: looser tolerance
        for target in dirichlet:
            assert np.min(np.abs(ev - target)) < 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            lame_spectrum(0.0)


class TestRestricted:
    def test_eigenvalues_zero_and_lambda1(self):
        for k in (0.2, 0.5, 0.8):
            M, ev = restricted_matrix(k)
            ev = np.sort(ev.real)
            assert abs(ev[1]) < 1e-12
            assert abs(ev[0] - lambda1(k)) < 1e-12

    def test_trace_det_consistency(self):
        k = 0.37
        M, ev = restricted_matrix(k)
        assert abs(np.trace(M) - np.sum(ev)) < 1e-12
        assert abs(np.linalg.det(M) - np.prod(ev)) < 1e-12

    def test_small_k_limit(self):
        assert lambda1(0.0) == -3.0
        assert abs(lambda1(1e-8) + 3.0) < 1e-6

    def test_negativity_on_grid(self):
        for k in np.arange(0.05, 0.96, 0.05):
            assert lambda1(k) < 0

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda1(1.0)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
    def test_matches_perturbed_discretization(self, k):
        op = cubic_operator(k, n=4000)
        lam = lambda1(k)
        near = perturbed_eigs_near(op, 1.0, lam, k=2)
        assert np.max(np.abs(near.imag)) < 1e-8
        assert np.min(np.abs(near.real - lam)) < 1e-3


class TestDiscretization:
    def test_pure_laplacian(self):
        op = build_H_discrete(lambda x: np.zeros_like(x), 1.0, 200)
        ev = np.sort(op.eigvals())[::-1]
        assert abs(ev[0]) < 1e-10
        vals, vecs = op.eig()
        const = vecs[:, np.argmax(vals)]
        assert np.std(const) < 1e-8 * np.abs(const).max()

    def test_identity_H_one_equals_fprime(self, op_half):
        ones = np.ones(op_half.n)
        assert np.max(np.abs(op_half.matrix() @ ones - op_half.fp)) < 1e-8

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            build_H_discrete(lambda x: x, 1.0, 8)

    def test_n_over_max_cells(self):
        # refused by its count before any array of length n exists
        def no_samples(x):
            raise AssertionError("f_prime sampled")

        n = allencahn.MAX_CELLS + 1
        with pytest.raises(ValueError, match=f"n = {n} cells") as info:
            build_H_discrete(no_samples, 1.0, n)
        assert type(info.value) is ValueError
        assert allencahn.MAX_CELLS >= 250 * 4000  # far above README's n

    def test_arrays_are_read_only(self, op_half):
        for name in ("fp", "diag", "off"):
            with pytest.raises(ValueError):
                getattr(op_half, name)[0] = 0.0

    def test_samples_passed_in_stay_writable(self):
        fp = -np.ones(64)
        op = build_H_discrete(fp, 1.0, 64)
        fp[0] = 2.0
        assert op.fp[0] == -1.0

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n", [16, 100, 800])
    def test_count_and_ends_match_eigvals(self, k, n):
        check_count_oracle(cubic_operator(k, n=n))

    def test_count_neumann_laplacian(self):
        op = build_H_discrete(lambda x: np.zeros_like(x), 1.0, 200)
        check_count_oracle(op)
        # the zero eigenvalue of the constant mode
        assert op.count_eigvals(-1e-8, 1e-8) == 1
        assert op.count_eigvals(1e-8, 1.0) == 0

    @given(
        st.lists(TRIDIAGONAL_ENTRIES, min_size=2, max_size=30),
        st.lists(TRIDIAGONAL_ENTRIES, min_size=29, max_size=29),
    )
    @settings(max_examples=60, deadline=None)
    def test_count_random_tridiagonal(self, diag, off):
        n = len(diag)
        diag, off = np.array(diag), np.array(off[: n - 1])
        zeros = np.zeros(n)
        op = allencahn.DiscretizedOperator(
            n=n, h=1.0, L=1.0, fp=zeros, diag=diag, off=off
        )
        check_count_oracle(op)

    def test_eigenvalues_cached_read_only(self, op_half):
        ev = op_half.eigvals()
        assert ev is op_half.eigvals()
        with pytest.raises(ValueError):
            ev[0] = 0.0
        assert np.array_equal(
            ev, scipy.linalg.eigvalsh_tridiagonal(op_half.diag, op_half.off)
        )

    def test_solve_complex_shift(self, op_half):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(op_half.n)
        x = op_half.solve(b, shift=-0.3 + 0.2j)
        A = op_half.matrix() - (-0.3 + 0.2j) * np.eye(op_half.n)
        assert np.allclose(A @ x, b, atol=1e-8)

    @pytest.mark.parametrize("shift", [0.0, 0.1, -2.5, 1e-9, -0.3 + 0.2j, 0.7 + 0j, 3j], ids=str)
    @pytest.mark.parametrize("n", [16, 1000])
    def test_solve_same_bits_as_solve_banded(self, n, shift):
        op = cubic_operator(0.5, n=n)
        rng = np.random.default_rng(n)
        for b in (np.ones(n), rng.standard_normal(n)):
            x, ref = op.solve(b, shift), banded_solve(op, b, shift)
            assert x.dtype == ref.dtype and x.shape == ref.shape
            assert x.tobytes() == ref.tobytes()

    def test_solve_complex_rhs_same_bits(self):
        op = cubic_operator(0.5, n=100)
        b = np.array([1.0, 1j]) @ np.random.default_rng(2).standard_normal((2, 100))
        x, ref = op.solve(b, 0.4), banded_solve(op, b, 0.4)
        assert x.dtype == complex and x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "shift, bad", [(np.nan, None), (complex(0.0, np.nan), None), (np.inf, None), (0.1, 5)],
        ids=["nan-shift", "nan-imag-shift", "inf-shift", "nan-b"],
    )
    def test_solve_rejects_non_finite(self, shift, bad):
        op = cubic_operator(0.5, n=100)
        b = np.ones(op.n)
        if bad is not None:
            b[bad] = np.nan
        with pytest.raises(ValueError, match="not finite") as info:
            op.solve(b, shift)
        assert type(info.value) is ValueError

    def test_solve_singular_raises(self):
        # the Neumann Laplacian: H 1 = 0 exactly, and elimination meets a zero pivot
        op = build_H_discrete(np.zeros(16), 1.0, 16)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            op.solve(np.ones(16))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            banded_solve(op, np.ones(16))

    def test_solve_matches_dense(self, op_half):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op_half.n)
        x = op_half.solve(b, shift=0.1)
        ref = np.linalg.solve(
            op_half.matrix() - 0.1 * np.eye(op_half.n), b
        )
        assert np.allclose(x, ref, atol=1e-8)


def constant_H(c: float, n: int = 200):
    """H on [-1, 1] with the constant f'(u) = c: levels c - (2/h sin(pi m/2n))^2."""
    return build_H_discrete(np.full(n, c), 1.0, n)


class TestStabilityIndex:
    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
    def test_cubic_front_stable(self, k):
        idx = stability_index(cubic_operator(k, n=4000))
        assert idx["n_plus_H"] == 1
        assert idx["inner"] > 0
        assert idx["n_plus_perturbed"] == 0
        assert idx["has_kernel"]

    def test_no_full_eigensolve(self, monkeypatch):
        full, eigvals_calls = [], []
        real = scipy.linalg.eigvalsh_tridiagonal

        def counted(*args, **kwargs):
            if kwargs.get("select", "a") == "a":
                full.append(1)
            return real(*args, **kwargs)

        def no_eigvals(self):
            eigvals_calls.append(1)
            return self._eigvals

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counted)
        monkeypatch.setattr(
            allencahn.DiscretizedOperator, "eigvals", no_eigvals
        )
        op = cubic_operator(0.5, n=1000)
        stability_index(op)
        op800 = cubic_operator(0.5, n=800)
        for lam in (-0.7 + 0.3j, 0.25, 0.1 + 1e-13j):
            herglotz_h(op800, 0.6, lam)
        with pytest.raises(PoleProximityError):
            herglotz_h(op800, 1.0, op800._ends[1])
        assert full == [] and eigvals_calls == []
        assert "_eigvals" not in vars(op) and "_eigvals" not in vars(op800)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("n", [16, 100, 800])
    def test_matches_full_spectrum_rule(self, k, n):
        op = cubic_operator(k, n=n)
        assert stability_index(op) == old_stability_index(op)

    def test_negative_definite_case(self):
        op = build_H_discrete(lambda x: -np.ones_like(x), 1.0, 400)
        idx = stability_index(op)
        assert idx["n_plus_H"] == 0
        assert idx["n_plus_perturbed"] == 0
        assert idx == old_stability_index(op)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8, 0.9])
    def test_rho_against_dense_spectrum(self, k):
        op = cubic_operator(k, n=300)
        for rho in (0.1, 0.5, 0.9, 0.999, 1.0):
            idx = stability_index(op, rho)
            ev = np.linalg.eigvals(op.perturbed_matrix(rho))
            assert idx["n_plus_perturbed"] == np.count_nonzero(ev.real > 1e-6)
            assert idx["has_kernel"] == (np.count_nonzero(np.abs(ev) < 1e-6) == 1)

    @pytest.mark.parametrize("k", [0.005, 0.01, 0.015])
    def test_kernel_at_small_modulus(self, k):
        # the odd Lame eigenvalue -3k^2 lies close to 0 here; the rho = 1
        # operator still has one simple eigenvalue at 0
        ev = np.linalg.eigvals(cubic_operator(k, n=300).perturbed_matrix(1.0))
        assert np.count_nonzero(np.abs(ev) < 1e-6) == 1
        for n in (300, 4000):
            assert stability_index(cubic_operator(k, n=n))["has_kernel"]

    @pytest.mark.parametrize("rho", [0.0, -0.5, 1.5])
    def test_rho_outside_domain(self, op_half, rho):
        with pytest.raises(ValueError):
            stability_index(op_half, rho)

    def test_crossing_slope(self, op_half):
        # dlambda/drho at the rho=1 zero = -2L / <1, H^{-1} 1>
        inner = inner_H_inv_one(op_half)
        predicted = -2.0 * op_half.L / inner
        lam_of = {}
        for rho in (0.995, 1.005):
            near = perturbed_eigs_near(op_half, rho, 1e-4, k=1)
            lam_of[rho] = near[0].real
        slope = (lam_of[1.005] - lam_of[0.995]) / 0.01
        assert abs(slope - predicted) / abs(predicted) < 1e-2

    def test_zero_crossing_only_at_rho_one(self, op_half):
        # away from rho=1 the smallest perturbed eigenvalue stays away from 0
        for rho in (0.2, 0.5, 0.8, 0.95):
            near = np.abs(perturbed_eigs_near(op_half, rho, 1e-5, k=1))
            assert near[0] > 1e-3

    @pytest.mark.parametrize(
        "top, make",
        [
            ("above 1", lambda: build_H_discrete(lambda x: 3.0 - x**2, 2.0, 400)),
            # the second Neumann level at 0: indeterminate at tol = 1e-9
            # lambda_max, not at 1e-9
            ("above 1", lambda: constant_H((200 * math.sin(math.pi / 400)) ** 2)),
            ("in (tol, 1]", lambda: constant_H(0.5)),
            ("in (tol, 1]", lambda: cubic_operator(0.65, n=300)),
            # the two below are indeterminate
            ("in (-1, tol]", lambda: constant_H(1e-12)),
            ("in (-1, tol]", lambda: constant_H(0.0, 64)),
            ("in (-1, tol]", lambda: constant_H(-0.5)),
            ("at most -1", lambda: constant_H(-1.5)),
            ("at most -1", lambda: constant_H(-50.0)),
        ],
    )
    def test_same_as_four_count_route(self, top, make):
        op = make()
        lam_max = op.eigvals()[-1]
        tol = max(1e-9, 8.0 * np.finfo(float).eps * op.norm)
        assert {
            "above 1": lam_max > 1.0,
            "in (tol, 1]": tol < lam_max <= 1.0,
            "in (-1, tol]": -1.0 < lam_max <= tol,
            "at most -1": lam_max <= -1.0,
        }[top]

        def outcome(index, rho):
            try:
                return index(op, rho)
            except IndeterminateIndexError as e:
                return str(e)

        for rho in (1.0, 0.5):
            assert outcome(stability_index, rho) == outcome(four_count_stability_index, rho)

    def test_indeterminate_reported(self):
        # symmetric double well with zero-mean 1/H^{-1} pairing is atypical;
        # force the indeterminate branch with a crafted operator instead
        op = build_H_discrete(lambda x: np.zeros_like(x), 1.0, 64)
        # pure Laplacian: H singular and <1, pinv(H) 1> = 0 by mean-projection
        with pytest.raises(IndeterminateIndexError):
            stability_index(op)


class TestCountsOnly:
    """The index and the pole guard run on Sturm counts and the row-sum norm;
    an eigenvalue is bisected only where its value is needed."""

    @staticmethod
    def record_counts(monkeypatch):
        counts, located = [], []
        real_count = allencahn.DiscretizedOperator.count_eigvals
        real_eigvals = scipy.linalg.eigvalsh_tridiagonal

        def count(self, lo, hi):
            counts.append((lo, hi))
            return real_count(self, lo, hi)

        def eigvals(*args, **kwargs):
            if kwargs.get("select", "a") != "v":
                located.append(kwargs.get("select", "a"))
            return real_eigvals(*args, **kwargs)

        monkeypatch.setattr(allencahn.DiscretizedOperator, "count_eigvals", count)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", eigvals)
        return counts, located

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.65])
    def test_index_budget(self, k, monkeypatch):
        counts, located = self.record_counts(monkeypatch)
        op = cubic_operator(k, n=1000)
        stability_index(op)
        assert len(counts) <= 4
        assert located == []
        assert "_ends" not in vars(op)

    def test_herglotz_off_axis_makes_no_count(self, monkeypatch):
        counts, located = self.record_counts(monkeypatch)
        op = cubic_operator(0.5, n=800)
        for im in (0.05, 0.3, 1.0):
            for re in (-4.0, -0.5, 0.0, 0.3, 2.0):
                for rho in (0.6, 1.0):
                    herglotz_h(op, rho, complex(re, im))
        assert counts == [] and located == []
        assert "_ends" not in vars(op)

    @pytest.mark.parametrize(
        "fp, L, n",
        [
            (lambda x: 3.0 - x**2, 2.0, 400),  # lambda_max > 1
            (lambda x: -50.0 * np.ones_like(x), 1.0, 200),  # lambda_max < -1
            (lambda x: -np.ones_like(x), 1.0, 200),  # lambda_max = -1
        ],
        ids=["3-x^2", "-50", "-1"],
    )
    def test_fallback_matches_full_spectrum_rule(self, fp, L, n):
        op = build_H_discrete(fp, L, n)
        assert stability_index(op) == old_stability_index(op)
        # |lambda_max| > 1 is read from the bisected top eigenvalue
        if abs(op.eigvals()[-1]) > 1.0 + 1e-9:
            assert "_ends" in vars(op)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
    def test_rounding_scale_matches_full_spectrum_rule(self, k):
        op = cubic_operator(k, n=4000)
        # the rounding term 8 eps ||H||_inf sets tol here, not 1e-9 top
        assert 8.0 * np.finfo(float).eps * op.norm > 1e-9
        assert stability_index(op) == old_stability_index(op)

    @given(
        st.lists(TRIDIAGONAL_ENTRIES, min_size=1, max_size=30),
        st.lists(TRIDIAGONAL_ENTRIES, min_size=29, max_size=29),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_bounds_spectrum(self, diag, off):
        n = len(diag)
        diag, off = np.array(diag), np.array(off[: n - 1])
        zeros = np.zeros(n)
        op = allencahn.DiscretizedOperator(
            n=n, h=1.0, L=1.0, fp=zeros, diag=diag, off=off
        )
        ev = scipy.linalg.eigvalsh_tridiagonal(diag, off) if n > 1 else diag
        # up to the eigensolver's backward error, a few eps ||H|| per row
        assert np.max(np.abs(ev)) <= op.norm * (1.0 + 8 * n * np.finfo(float).eps)
        rows = np.sum(np.abs(op.matrix()), axis=1)
        assert op.norm == pytest.approx(np.max(rows), rel=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_operator_rejects_non_finite_samples(self, bad):
        # else the row-sum norm, and every count up to it, would be nan
        with pytest.raises(ValueError, match="finite"):
            build_H_discrete(lambda x: np.where(x > 0.5, bad, -1.0), 1.0, 64)

    @pytest.mark.parametrize(
        "lo, hi", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, np.nan)]
    )
    def test_count_rejects_non_finite_end(self, lo, hi, monkeypatch):
        called = []
        monkeypatch.setattr(
            scipy.linalg.lapack, "dstebz", lambda *a, **kw: called.append(1)
        )
        op = cubic_operator(0.5, n=200)
        with pytest.raises(ValueError, match="not finite"):
            op.count_eigvals(lo, hi)
        assert called == []

    def test_count_failure_raises(self, monkeypatch):
        # stebz reports a failed count through info; it must not pass as a count
        real = scipy.linalg.lapack.dstebz
        monkeypatch.setattr(
            scipy.linalg.lapack, "dstebz", lambda *a: real(*a)[:4] + (1,)
        )
        op = cubic_operator(0.5, n=200)
        with pytest.raises(np.linalg.LinAlgError, match="info = 1"):
            op.count_eigvals(-1.0, 1.0)

    @pytest.mark.parametrize(
        "lam",
        [complex(np.nan, 0.0), complex(0.2, np.nan), complex(np.inf, 0.1), np.nan],
        ids=str,
    )
    def test_herglotz_rejects_non_finite_lambda(self, lam, monkeypatch):
        called = []

        def no_lapack(*args, **kwargs):
            called.append(1)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_lapack)
        monkeypatch.setattr(scipy.linalg, "solve_banded", no_lapack)
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", no_lapack)
        monkeypatch.setattr(scipy.linalg.lapack, "zgtsv", no_lapack)
        op = cubic_operator(0.5, n=200)
        with pytest.raises(ValueError, match="not finite"):
            herglotz_h(op, 0.5, lam)
        assert called == []


class TestEigStructure:
    def test_reality_over_rho(self):
        op = cubic_operator(0.5, n=900)
        rng = np.random.default_rng(1)
        for rho in rng.uniform(0.0, 1.0, 10):
            ev = np.linalg.eigvals(op.perturbed_matrix(rho))
            assert np.max(np.abs(ev.imag)) < 1e-7 * np.max(np.abs(ev))

    def test_orthogonal_modes_unmoved(self):
        # odd eigenvectors of H are orthogonal to the (even) f'(u) samples
        op = cubic_operator(0.5, n=1200)
        vals, vecs = op.eig()
        Ap = op.perturbed_matrix(1.0)
        moved = 0
        for i in np.argsort(vals)[::-1][:6]:
            v = vecs[:, i]
            if abs(op.fp @ v) * op.h < 1e-8:
                r = Ap @ v - vals[i] * v
                assert np.linalg.norm(r) < 1e-8
            else:
                moved += 1
        assert moved >= 2

    def test_herglotz_upper_half_plane(self):
        op = cubic_operator(0.5, n=800)
        rng = np.random.default_rng(3)
        for rho in (0.25, 0.5, 1.0):
            for _ in range(6):
                z = complex(rng.uniform(-4, 2), rng.uniform(0.05, 2.0))
                assert herglotz_h(op, rho, z).imag > 0

    def test_herglotz_roots_are_moving_eigenvalues(self):
        from scipy.optimize import brentq

        op = cubic_operator(0.5, n=800)
        rho = 0.6
        # bracket between two adjacent genuine poles of h: the explicit one
        # at 0 (rho < 1) and the top eigenvalue of H (even, so its residue
        # does not vanish); h runs from -inf to +inf in between
        hi, lo = float(np.max(op.eigvals())), 0.0
        eps = 1e-6 * (hi - lo)
        root = brentq(
            lambda t: herglotz_h(op, rho, t).real, lo + eps, hi - eps
        )
        ev = np.linalg.eigvals(op.perturbed_matrix(rho))
        assert np.min(np.abs(ev - root)) < 1e-7

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.65])
    def test_herglotz_matches_spectral_sum(self, k):
        op = cubic_operator(k, n=800)
        vals, vecs = op.eig()

        def spectral_sum(rho, lam):
            overlaps = op.h * np.sum(vecs, axis=0) ** 2
            out = np.sum(overlaps / (vals - lam)) / (2.0 * op.L)
            if rho != 1.0:
                out = out - (1.0 - rho) / (rho * lam)
            return complex(out)

        top = np.sort(vals)[::-1]
        rng = np.random.default_rng(5)
        complex_lams = [
            complex(rng.uniform(-4, 2), rng.uniform(0.05, 2.0)) for _ in range(4)
        ]
        # real lambda halfway between adjacent poles near the top of the spectrum
        real_lams = list(0.5 * (top[:4] + top[1:5]))
        for rho in (0.25, 0.6, 1.0):
            for lam in complex_lams + real_lams:
                got, ref = herglotz_h(op, rho, lam), spectral_sum(rho, lam)
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.65])
    def test_pole_guard_matches_full_spectrum_rule(self, k):
        op = cubic_operator(k, n=800)
        ev = op.eigvals()
        delta = 1e-12 * max(1.0, float(np.max(np.abs(ev))))
        picks = np.unique(np.r_[np.arange(4), np.arange(0, op.n - 1, 97)])
        top = ev[::-1]
        reals = []
        for i in picks:
            mid = 0.5 * (top[i] + top[i + 1])
            reals += [top[i], top[i] + 0.5 * delta, top[i] - 0.9 * delta, mid]
        raised = 0
        for re in reals:
            for im in (0.0, 0.5 * delta, 2.0 * delta, 0.05):
                lam = complex(re, im) if im else float(re)
                old_rule = np.min(np.abs(ev - lam)) < delta
                try:
                    herglotz_h(op, 1.0, lam)
                except PoleProximityError:
                    assert old_rule, lam
                    raised += 1
                else:
                    assert not old_rule, lam
        # on, and delta/2 from, an eigenvalue at Im 0 and delta/2; 0.9 delta
        # below one only at Im 0 (at Im delta/2 it lies 1.03 delta away)
        assert raised == 5 * len(picks)

    def test_herglotz_validation(self):
        op = cubic_operator(0.5, n=200)
        with pytest.raises(ValueError):
            herglotz_h(op, 0.0, 1.0j)
        with pytest.raises(PoleProximityError):
            herglotz_h(op, 0.5, 0.0)
        with pytest.raises(PoleProximityError):
            herglotz_h(op, 0.5, float(op.eigvals()[-1]))


class TestPeriodIntegrals:
    def test_cubic_turning_points(self):
        fr = CubicFront.from_k(0.5)
        mu_m, mu_p = turning_points(fr.F, 0.5, 0.0)
        assert abs(mu_m + 1.0) < 1e-12 and abs(mu_p - 1.0) < 1e-12

    def test_shrunk_energy_inside(self):
        fr = CubicFront.from_k(0.5)
        mu_m, mu_p = turning_points(fr.F, 0.45, 0.0)
        assert -1.0 < mu_m < mu_p < 1.0

    def test_separatrix_rejected(self):
        # E at the local max of F - kappa u gives a double root
        fr = CubicFront.from_k(0.5)
        # Q(u) = 1 + ... with turning point where f(u) = 0: u* = sqrt((1+k^2)/(2k^2))
        ustar = np.sqrt((1 + 0.25) / 0.5)
        E_sep = float(fr.F(ustar))
        with pytest.raises(ValueError):
            turning_points(fr.F, E_sep, 0.0)

    def test_cubic_period_is_2K(self):
        for k in (0.3, 0.5, 0.7):
            fr = CubicFront.from_k(k)
            P, M, R = period_jet(fr.F, 0.5, 0.0)[1]
            assert abs(P - 2 * fr.K) < 1e-8
            assert abs(M) < 1e-10 and abs(R) < 1e-10

    @pytest.mark.parametrize("k", [0.2, 0.2750920299156452, 0.5, 0.65, 0.75])
    def test_symmetric_period_is_2K_to_rounding(self, k):
        # W is the exact quotient of Q by its turning-point factors, so no
        # 0/0 at the nodes next to the ends
        fr = CubicFront.from_k(k)
        P = period_jet(fr.F, 0.5, 0.0)[1][0]
        assert abs(P - 2 * fr.K) <= 1e-14 * 2 * fr.K

    def test_kappa_P_equals_R(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            c2, c4 = rng.uniform(0.5, 1.5, 2)
            c3 = rng.uniform(-0.1, 0.1)

            F = Poly([0.0, 0.0, c2 / 2, c3 / 3, c4 / 4])
            kap = rng.uniform(-0.05, 0.05)
            P, M, R = period_jet(F, 0.3, kap)[1]
            assert abs(kap * P - R) <= 1e-8 * abs(R) + 1e-12

    def test_rule_cached_read_only(self):
        w, s2 = allencahn._gauss_rule(200)
        assert allencahn._gauss_rule(200)[0] is w
        for arr in (w, s2):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        th, ref_w = np.polynomial.legendre.leggauss(200)
        assert np.array_equal(w, ref_w * 0.25 * np.pi)
        assert np.array_equal(s2, np.sin(0.25 * np.pi * (th + 1.0)) ** 2)

    def test_against_adaptive_quadrature(self):
        fr = CubicFront.from_k(0.5)
        E, kap = 0.45, 0.03
        mu_m, mu_p = turning_points(fr.F, E, kap)

        def integrand(u):
            return 1.0 / np.sqrt(2 * E + 2 * kap * u - 2 * fr.F(u))

        ref, err = scipy.integrate.quad(
            integrand, mu_m, mu_p, points=[mu_m, mu_p], limit=200
        )
        P, _, _ = period_jet(fr.F, E, kap)[1]
        assert abs(P - ref) < 1e-7


# the symmetric profile and two traced family points per modulus, criterion
# 10's random quartics with a cubic term, and the scaled potential c F
JET_CASES = (
    [("cubic", k, row) for k in (0.2, 0.5, 0.7, 0.75, 0.86) for row in (0, 1, 2)]
    + [("quartic", i, 0) for i in range(6)]
    + [("scaled", 0.5, row) for row in (0, 1)]
)


def jet_case(kind, x, row):
    """(F, E, kappa) of a JET_CASES entry."""
    if kind == "quartic":
        rng = np.random.default_rng(7)
        for _ in range(x + 1):
            c2, c4 = rng.uniform(0.5, 2.0, 2)
            c3 = rng.uniform(-0.3, 0.3)
            kappa = rng.uniform(-0.05, 0.05)
        return Poly([0.0, 0.0, c2 / 2, c3 / 3, c4 / 4]), 1.0, kappa
    F = CubicFront.from_k(x).F
    p = trace_family(F, family_point(F, 0.5, 0.0), row, 0.01)[row]
    if kind == "scaled":
        c = 2.7
        return Poly(c * F.coef), c * p.E_const, c * p.kappa
    return F, p.E_const, p.kappa


def case_id(case):
    return "-".join(map(str, case))


class TestPeriodJet:
    @pytest.mark.parametrize("case", JET_CASES, ids=case_id)
    def test_jacobian_against_central_differences(self, case):
        F, E, kappa = jet_case(*case)

        # central differences of the values, with one Richardson step
        def vals(E_, k_):
            return np.array(period_jet(F, E_, k_)[1])

        def partials(step):
            return np.column_stack(
                [
                    (vals(E + step, kappa) - vals(E - step, kappa)) / (2.0 * step),
                    (vals(E, kappa + step) - vals(E, kappa - step)) / (2.0 * step),
                ]
            )

        h = 1e-5 * max(1.0, abs(E), abs(kappa))
        ref = (4.0 * partials(h / 2.0) - partials(h)) / 3.0
        _, values, J = period_jet(F, E, kappa)
        assert values == period_jet(F, E, kappa)[1]
        assert J.shape == (3, 2)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(J - ref) <= 1e-8 * scale)

    @pytest.mark.parametrize("case", JET_CASES, ids=case_id)
    def test_same_bits_as_descending_lists(self, case):
        # kernel.horner on ascending lists repeats the old descending route
        F, E, kappa = jet_case(*case)
        mu, values, J = period_jet(F, E, kappa)
        ref_mu, ref_values, ref_J = descending_period_jet(F, E, kappa)
        assert (mu, values) == (ref_mu, ref_values)
        assert J.tobytes() == ref_J.tobytes()

    @pytest.mark.parametrize("case", JET_CASES, ids=case_id)
    def test_tau_against_richardson(self, case):
        F, E, kappa = jet_case(*case)
        ref = tau_richardson(F, E, kappa)
        assert abs(family_point(F, E, kappa).tau - ref) <= 1e-8 * abs(ref)

    def test_turning_points_and_values_of_the_point(self):
        fr = CubicFront.from_k(0.6)
        mu, values, _ = period_jet(fr.F, 0.47, 0.02)
        assert mu == turning_points(fr.F, 0.47, 0.02)
        p = family_point(fr.F, 0.47, 0.02)
        assert (p.mu_minus, p.mu_plus) == mu and (p.P, p.M, p.R) == values

    @staticmethod
    def assert_same_as_eigvals_route(F, E, kappa):
        try:
            ref = eigvals_turning_points(F, E, kappa)
        except allencahn.TurningPointError as e:
            with pytest.raises(allencahn.TurningPointError) as info:
                turning_points(F, E, kappa)
            assert str(info.value) == str(e)
            return str(e).split(" at E")[0]
        assert turning_points(F, E, kappa) == ref
        return "ok"

    @pytest.mark.parametrize("k", [0.001, 0.05, 0.2, 0.35, 0.5, 0.65, 0.75, 0.86, 0.98])
    def test_turning_points_same_as_poly_route(self, k):
        # geev on Q's companion matrix keeps the bits of the np.linalg.eigvals
        # route, and its failures: roots missing on one side, Q(0) <= 0,
        # separatrices
        F = CubicFront.from_k(k).F
        for E in (-0.1, 0.0, 0.05, 0.3, 0.5, (1.0 + k**2) ** 2 / (8 * k**2), 0.9, 3.0):
            for kappa in (-0.4, -0.02, 0.0, 1e-9, 0.013, 0.2, 0.7):
                self.assert_same_as_eigvals_route(F, E, kappa)

    @pytest.mark.parametrize("k", [0.87, 0.95, 0.98])
    def test_turning_points_same_at_family_starts(self, k):
        # the family start and the first predicted points around it, where
        # the trace leaves the window of two turning points from k = 0.87 up
        F = CubicFront.from_k(k).F
        P_E, P_k = family_point(F, 0.5, 0.0).jac[0].tolist()
        norm = math.hypot(P_E, P_k)
        seen = set()
        for ds in (0.0, 1e-4, -1e-4, 1e-3, -1e-3, 0.01, -0.01, 0.05, -0.05, 0.3):
            E, kappa = 0.5 - ds * P_k / norm, ds * P_E / norm
            seen.add(self.assert_same_as_eigvals_route(F, E, kappa))
        assert {"ok", "no turning point on one side of 0"} <= seen

    def test_turning_points_monic_overflow(self):
        # the predicted point of `rs family --k 0.5 --ds 1e308`: 2 kappa is inf
        F = CubicFront.from_k(0.5).F
        with pytest.raises(allencahn.TurningPointError, match="not finite") as info:
            turning_points(F, 9.320672520809967e292, 1e308)
        assert "E = 9.320672520809967e+292" in str(info.value)
        # finite coefficients whose quotient by the leading one overflows
        with pytest.raises(allencahn.TurningPointError, match="E = 0.5, kappa = 0.0"):
            turning_points(Poly([0.0, 0.0, 0.5, 0.0, -1e-310]), 0.5, 0.0)

    def test_turning_points_separatrix_names_the_point(self):
        # E just below the separatrix level of F = u^2/2 - u^4/8: Q's roots
        # at +-sqrt(2) are double to rounding, so Q' is no slope there
        with pytest.raises(allencahn.TurningPointError, match="separatrix") as info:
            turning_points(Poly([0.0, 0.0, 0.5, 0.0, -0.125]), 0.5 - 1e-14, 0.0)
        assert "E = 0.49999999999999" in str(info.value)
        assert "kappa = 0.0" in str(info.value)

    def test_tau_fold_rule(self):
        # a vanishing R row: dR/ds = 0 in every direction, a fold
        fr = CubicFront.from_k(0.5)
        p = family_point(fr.F, 0.5, 0.0)
        flat = allencahn.FamilyPoint(
            p.E_const, p.kappa, p.mu_minus, p.mu_plus, p.P, p.M, p.R,
            np.array([p.jac[0], p.jac[1], [0.0, 0.0]]),
        )
        with pytest.raises(ZeroDivisionError):
            flat.tau


class TestTauAndFamily:
    def test_tau_sign_matches_inner(self):
        for k in (0.3, 0.5, 0.7):
            fr = CubicFront.from_k(k)
            t = family_point(fr.F, 0.5, 0.0).tau
            inner = inner_H_inv_one(cubic_operator(k, n=2000))
            assert np.sign(t) == np.sign(inner)
            # the Corollary's identity <1, H^{-1} 1> = 2 L tau
            assert abs(inner - 2 * fr.K * t) < 2e-2 * abs(inner)

    def test_tau_invariant_under_scaling(self):
        fr = CubicFront.from_k(0.5)
        t = family_point(fr.F, 0.5, 0.0).tau
        # speeding up the reaction c-fold leaves the profiles (and M)
        # unchanged while R gains the factor c, so tau = dM/dR drops c-fold
        c = 2.7
        ts = family_point(Poly(c * fr.F.coef), c * 0.5, 0.0).tau
        assert abs(t / c - ts) < 1e-6 * max(1.0, abs(ts))

    def test_family_keeps_period(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0)
        pts = trace_family(fr.F, start, steps=40, ds=0.01)
        assert len(pts) == 41
        for p in pts:
            assert abs(p.P - start.P) < 1e-8

    def test_mass_strictly_varies(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0)
        pts = trace_family(fr.F, start, steps=15, ds=0.01)
        Ms = np.array([p.M for p in pts])
        assert np.all(np.diff(Ms) > 0) or np.all(np.diff(Ms) < 0)

    def test_integral_identity_along_family(self):
        # dM/ds = (1/2L) dR/ds <1, H^{-1} 1> with 2L = P
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0)
        pts = trace_family(fr.F, start, steps=2, ds=1e-3)
        dM = pts[2].M - pts[0].M
        dR = pts[2].R - pts[0].R
        inner = inner_H_inv_one(cubic_operator(0.5, n=2000))
        assert abs(dM - dR * inner / start.P) < 1e-2 * abs(dM)

    def test_reversibility(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0)
        fwd = trace_family(fr.F, start, steps=10, ds=0.002)
        back = trace_family(fr.F, fwd[-1], steps=10, ds=-0.002)
        assert abs(back[-1].E_const - start.E_const) < 1e-6
        assert abs(back[-1].kappa - start.kappa) < 1e-6

    @pytest.mark.parametrize("s0", [0.0, 0.25])
    def test_vanishing_gradient_names_s(self, s0):
        # at k = 1e-9 the potential is isochronous to rounding: |grad P| ~ 1e-18
        fr = CubicFront.from_k(1e-9)
        start = family_point(fr.F, 0.5, 0.0, s=s0)
        with pytest.raises(allencahn.FamilyCorrectorError, match=f"s = {s0:g} "):
            trace_family(fr.F, start, steps=2, ds=0.01)
        assert trace_family(fr.F, start, steps=0, ds=0.01) == [start]

    def test_family_table_rows(self):
        fr = CubicFront.from_k(0.5)
        rows = family_table(fr, steps=2, ds=0.01)
        start = family_point(fr.F, 0.5, 0.0)
        pts = trace_family(fr.F, start, steps=2, ds=0.01)
        ref = [
            [p.s, p.E_const, p.kappa, p.mu_minus, p.mu_plus, p.P, p.M, p.R,
             family_point(fr.F, p.E_const, p.kappa).tau]
            for p in pts
        ]
        assert rows.tolist() == ref


class TestDirectKernels:
    @staticmethod
    def run_front_commands(capsys):
        for argv in (
            ["rs", "index", "--k", "0.5", "--n", "1000"],
            ["rs", "index", "--k", "0.5", "--n", "1000", "--rho", "0.5"],
            ["rs", "family", "--k", "0.5", "--steps", "40"],
        ):
            assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        op = cubic_operator(0.5, n=800)
        for rho, lam in ((0.2, -3.0 + 0.05j), (1.0, 1.0 + 1.0j), (0.6, -0.5)):
            assert math.isfinite(abs(herglotz_h(op, rho, lam)))

    def test_no_solve_banded_and_no_poly(self, capsys, monkeypatch):
        # the solves call gtsv, not solve_banded, and the turning points take
        # Q's coefficient list: no corrector iterate builds a Poly
        def no_solve_banded(*args, **kwargs):
            raise AssertionError("solve_banded called")

        monkeypatch.setattr(scipy.linalg, "solve_banded", no_solve_banded)
        self.run_front_commands(capsys)

        front = CubicFront.from_k(0.5)
        front.F  # the potential itself is the one Poly the family reads
        built = []
        real_init = kernel.Poly.__init__

        def counting_init(self, coef):
            built.append(1)
            real_init(self, coef)

        monkeypatch.setattr(kernel.Poly, "__init__", counting_init)
        rows = family_table(front, 40, 0.01)
        assert rows.shape == (41, 9) and built == []

    def test_no_numpy_eigvals(self, capsys, monkeypatch):
        # the turning points call geev on Q's companion matrix themselves
        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        self.run_front_commands(capsys)

    def test_index_makes_three_counts(self, capsys, monkeypatch):
        # (1, 2||H||], then (tol, 2||H||], which is n_plus(H), then (-tol, tol]
        calls = []
        real = allencahn.DiscretizedOperator.count_eigvals

        def counted(self, lo, hi):
            calls.append((lo, hi))
            return real(self, lo, hi)

        monkeypatch.setattr(allencahn.DiscretizedOperator, "count_eigvals", counted)
        assert cli.main(["rs", "index", "--k", "0.5", "--n", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["n_plus_H"] == 1
        assert len(calls) == 3
