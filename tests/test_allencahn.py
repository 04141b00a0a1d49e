import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_atlas import allencahn
from spectral_atlas.allencahn import (
    CubicFront,
    IndeterminateIndexError,
    PoleProximityError,
    a_of_k,
    build_H_discrete,
    cubic_operator,
    family_point,
    herglotz_h,
    inner_H_inv_one,
    lambda1,
    lame_spectrum,
    period_integrals,
    perturbed_eigs_near,
    restricted_matrix,
    stability_index,
    tau,
    trace_family,
    turning_points,
)
from spectral_atlas.kernel import elliptic_K_E


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
    def test_length_relation_roundtrip(self):
        fr = CubicFront.from_k(0.6)
        back = CubicFront.from_length(fr.half_length)
        assert abs(back.k - 0.6) < 1e-10

    def test_length_validation(self):
        with pytest.raises(ValueError):
            CubicFront.from_length(1.0)
        with pytest.raises(ValueError):
            CubicFront.from_k(1.5)

    def test_profile_solves_ode(self):
        # sn'' + (1+k^2) sn - 2k^2 sn^3 = 0
        fr = CubicFront.from_k(0.7)
        x = np.linspace(-fr.K + 0.1, fr.K - 0.1, 41)
        h = 1e-5
        upp = (fr.profile(x + h) - 2 * fr.profile(x) + fr.profile(x - h)) / h**2
        assert np.max(np.abs(upp + fr.f(fr.profile(x)))) < 1e-4

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
            assert vals[0] == -(1 + k**2 - 2 * a_of_k(k))
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

    def test_arrays_are_read_only(self, op_half):
        for name in ("x", "fp", "diag", "off"):
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
            n=n, h=1.0, L=1.0, x=zeros, fp=zeros, diag=diag, off=off
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

    def test_solve_matches_dense(self, op_half):
        rng = np.random.default_rng(0)
        b = rng.standard_normal(op_half.n)
        x = op_half.solve(b, shift=0.1)
        ref = np.linalg.solve(
            op_half.matrix() - 0.1 * np.eye(op_half.n), b
        )
        assert np.allclose(x, ref, atol=1e-8)


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

    def test_indeterminate_reported(self):
        # symmetric double well with zero-mean 1/H^{-1} pairing is atypical;
        # force the indeterminate branch with a crafted operator instead
        op = build_H_discrete(lambda x: np.zeros_like(x), 1.0, 64)
        # pure Laplacian: H singular and <1, pinv(H) 1> = 0 by mean-projection
        with pytest.raises(IndeterminateIndexError):
            stability_index(op)


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
            P, M, R = period_integrals(fr.F, 0.5, 0.0, f=fr.f)
            assert abs(P - 2 * fr.K) < 1e-8
            assert abs(M) < 1e-10 and abs(R) < 1e-10

    def test_kappa_P_equals_R(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            c2, c4 = rng.uniform(0.5, 1.5, 2)
            c3 = rng.uniform(-0.1, 0.1)

            def F(u):
                return c2 * u**2 / 2 + c3 * u**3 / 3 + c4 * u**4 / 4

            def f(u):
                return c2 * u + c3 * u**2 + c4 * u**3

            kap = rng.uniform(-0.05, 0.05)
            P, M, R = period_integrals(F, 0.3, kap, f=f)
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
        P, _, _ = period_integrals(fr.F, E, kap, f=fr.f)
        assert abs(P - ref) < 1e-7


class TestTauAndFamily:
    def test_tau_sign_matches_inner(self):
        for k in (0.3, 0.5, 0.7):
            fr = CubicFront.from_k(k)
            t = tau(fr.F, 0.5, 0.0, f=fr.f)
            inner = inner_H_inv_one(cubic_operator(k, n=2000))
            assert np.sign(t) == np.sign(inner)
            # the Corollary's identity <1, H^{-1} 1> = 2 L tau
            assert abs(inner - 2 * fr.K * t) < 2e-2 * abs(inner)

    def test_tau_invariant_under_scaling(self):
        fr = CubicFront.from_k(0.5)
        t = tau(fr.F, 0.5, 0.0, f=fr.f)
        # speeding up the reaction c-fold leaves the profiles (and M)
        # unchanged while R gains the factor c, so tau = dM/dR drops c-fold
        c = 2.7

        def Fs(u):
            return c * fr.F(u)

        def fs(u):
            return c * fr.f(u)

        ts = tau(Fs, c * 0.5, 0.0, f=fs)
        assert abs(t / c - ts) < 1e-6 * max(1.0, abs(ts))

    def test_family_keeps_period(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0, f=fr.f)
        pts = trace_family(fr.F, start, steps=40, ds=0.01, f=fr.f)
        assert len(pts) == 41
        for p in pts:
            assert abs(p.P - start.P) < 1e-8

    def test_mass_strictly_varies(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0, f=fr.f)
        pts = trace_family(fr.F, start, steps=15, ds=0.01, f=fr.f)
        Ms = np.array([p.M for p in pts])
        assert np.all(np.diff(Ms) > 0) or np.all(np.diff(Ms) < 0)

    def test_integral_identity_along_family(self):
        # dM/ds = (1/2L) dR/ds <1, H^{-1} 1> with 2L = P
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0, f=fr.f)
        pts = trace_family(fr.F, start, steps=2, ds=1e-3, f=fr.f)
        dM = pts[2].M - pts[0].M
        dR = pts[2].R - pts[0].R
        inner = inner_H_inv_one(cubic_operator(0.5, n=2000))
        assert abs(dM - dR * inner / start.P) < 1e-2 * abs(dM)

    def test_reversibility(self):
        fr = CubicFront.from_k(0.5)
        start = family_point(fr.F, 0.5, 0.0, f=fr.f)
        fwd = trace_family(fr.F, start, steps=10, ds=0.002, f=fr.f)
        back = trace_family(fr.F, fwd[-1], steps=10, ds=-0.002, f=fr.f)
        assert abs(back[-1].E_const - start.E_const) < 1e-6
        assert abs(back[-1].kappa - start.kappa) < 1e-6
