import re

import numpy as np
import pytest
import scipy.linalg

from spectral_atlas.curves import constant_eigenvalue_curve, envelope_point
from spectral_atlas.integrator import (
    INPUT_PATTERN,
    DivergentGainError,
    build_network,
    build_T,
    beta_for,
    constant_tau_rho1,
    gain,
    impulse_response,
    measured_gain,
)
from spectral_atlas.lowrank import decompose_cofactor, perturbed_matrix
from spectral_atlas.presets import example1

B6 = np.concatenate([np.ones(6), np.zeros(2)])
LAM = -0.05  # 20 s time constant


@pytest.fixture(scope="module")
def normal():
    return build_network(preset="ag_normal")


@pytest.fixture(scope="module")
def normal_dec(normal):
    return decompose_cofactor(normal)


class TestBuildT:
    def test_slow_rate_placed(self):
        T, beta = build_T(6, 200.0, 5.0)
        top = np.max(np.linalg.eigvalsh(200.0 * T))
        assert np.isclose(top, -5.0, atol=1e-9)

    def test_structure(self):
        T, beta = build_T(4, 100.0, 2.0)
        assert np.allclose(np.diag(T), -1.0 + beta)
        assert np.allclose(np.diag(T, 1), beta)
        assert np.count_nonzero(T) == 4 + 2 * 3

    def test_large_N_limit(self):
        assert np.isclose(beta_for(100000, 200.0, 5.0), (1 - 5 / 200) / 3, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_T(1, 200.0, 5.0)
        with pytest.raises(ValueError):
            build_T(6, 200.0, 300.0)


class TestBuildNetwork:
    def test_unperturbed_spectrum(self, normal):
        # block triangular: spec(alpha T) plus the double Purkinje rate
        ev = np.sort(np.linalg.eigvals(normal.M).real)
        T, _ = build_T(6, 200.0, 5.0)
        expect = np.sort(np.concatenate([np.linalg.eigvalsh(200.0 * T), [-200.0, -200.0]]))
        assert np.allclose(ev, expect, atol=1e-8)

    def test_feedback_wiring(self, normal):
        A = perturbed_matrix(normal, 0.3, 0.7)
        # rho entries land in the u-slot columns
        assert np.isclose(A[0, 6], -200.0 * 0.3)
        assert np.isclose(A[2, 7], -200.0 * 0.7)

    def test_presets_differ(self):
        a = build_network(preset="ag_normal")
        b = build_network(preset="ag_in")
        assert not np.array_equal(a.M[6], b.M[6])
        assert np.array_equal(a.f1, b.f1)

    def test_bad_preset(self):
        with pytest.raises(ValueError):
            build_network(preset="nope")
        with pytest.raises(ValueError):
            build_network(preset="custom")

    @pytest.mark.parametrize(
        "preset,w1,w2",
        [
            ("ag_normal", [-1, 1, -1, 0, -1, 0], [1, -1, 1, 1, 0, 0]),
            ("ag_in", [-1, 1, 0, 0, -1, 0], [1, -1, 0, 0, 1, 0]),
        ],
    )
    def test_preset_bits(self, preset, w1, w2):
        # the paper's constants: alpha = 200, lambda1 = 5, N = 6, feedback
        # into vestibular units 0 and 2, read out by the two Purkinje cells
        alpha, e6, e8 = 200.0, np.eye(6), np.eye(8)
        T, _ = build_T(6, alpha, 5.0)
        M = alpha * np.block([[T, np.zeros((6, 2))], [np.array([w1, w2]), -np.eye(2)]])
        p = build_network(preset=preset)
        assert np.array_equal(p.M, M)
        assert np.array_equal(p.f1, np.r_[-alpha * e6[0], 0.0, 0.0])
        assert np.array_equal(p.f2, np.r_[-alpha * e6[2], 0.0, 0.0])
        assert np.array_equal(p.g1, e8[6]) and np.array_equal(p.g2, e8[7])
        assert np.array_equal(INPUT_PATTERN, np.r_[np.ones(6), 0, 0])
        assert not INPUT_PATTERN.flags.writeable


class TestConstantTau:
    def test_paper_coefficients(self, normal_dec):
        # rho1 ~ (0.137 + 2.536 rho2) / (1 + 0.371 rho2)
        d = normal_dec
        a = -d.D(LAM) / d.P1(LAM)
        b = -d.P2(LAM) / d.P1(LAM)
        c = d.Q(LAM) / d.P1(LAM)
        assert abs(a - 0.137) < 0.01
        assert abs(b - 2.536) < 0.01
        assert abs(c - 0.371) < 0.01

    def test_eigenvalue_held(self, normal, normal_dec):
        for r2 in np.linspace(0.0, 1.2, 7):
            r1 = constant_tau_rho1(normal_dec, LAM, r2, problem=normal)
            ev = np.linalg.eigvals(perturbed_matrix(normal, r1, r2))
            assert np.min(np.abs(ev - LAM)) < 1e-6

    def test_tangency_first_quadrant(self, normal_dec):
        sols = [s for s in envelope_point(normal_dec, LAM) if s[0] > 0 and s[1] > 0]
        assert len(sols) == 1
        r1, r2 = sols[0]
        assert abs(r2 - 1.22) < 0.01 and abs(r1 - 2.23) < 0.01

    def test_asymptote_raises(self, normal_dec):
        pole = -normal_dec.P1(LAM) / normal_dec.Q(LAM)
        with pytest.raises(ZeroDivisionError):
            constant_tau_rho1(normal_dec, LAM, pole)
        with pytest.raises(ZeroDivisionError):
            constant_tau_rho1(normal_dec, LAM, np.array([0.0, pole, 1.0]))


def old_constant_tau_rho1(dec, lam, rho2, problem=None):
    """The scalar implementation before the array form, kept as a reference:
    its own pole test and one determinant per Newton step."""
    den = dec.P1(lam) + rho2 * dec.Q(lam)
    scale = max(abs(dec.D(lam)), abs(dec.P1(lam)), 1.0)
    if abs(den) <= 1e-12 * scale:
        raise ZeroDivisionError("constant-eigenvalue curve has an asymptote here")
    r1 = -(dec.D(lam) + rho2 * dec.P2(lam)) / den
    if problem is not None:
        eye = np.eye(problem.n)
        for _ in range(3):
            det = np.linalg.det(perturbed_matrix(problem, r1, rho2) - lam * eye)
            r1 = r1 - det / den
    return float(r1)


class TestConstantTauArray:
    @pytest.mark.parametrize("preset", ["ag_normal", "ag_in"])
    @pytest.mark.parametrize("lam", [-0.05, -0.2, -1.0])
    @pytest.mark.parametrize("polish", [False, True])
    def test_array_equals_point_calls(self, preset, lam, polish):
        prob = build_network(preset=preset)
        dec = decompose_cofactor(prob)
        problem = prob if polish else None
        grid = np.linspace(0.0, 1.2, 60)
        r1 = constant_tau_rho1(dec, lam, grid, problem)
        assert isinstance(r1, np.ndarray) and r1.shape == grid.shape
        points = [constant_tau_rho1(dec, lam, r2, problem) for r2 in grid]
        assert all(type(v) is float for v in points)
        assert r1.tolist() == points
        # and the loop the command line ran before, on the old scalar code
        assert r1.tolist() == [old_constant_tau_rho1(dec, lam, r2, problem) for r2 in grid]

    def test_example1_pole_is_one_rule(self):
        # Q = -1, so P1 + rho2 Q vanishes at rho2 = P1(lambda)
        dec = decompose_cofactor(example1())
        lam = -1.0
        pole = float(dec.P1(lam))
        grid = np.array([pole - 1.0, pole, pole + 1.0])
        br = constant_eigenvalue_curve(dec, lam, grid)
        assert br.gaps == [(pole - 1.0, pole)]
        assert [p.parameter for p in br.points] == [pole - 1.0, pole + 1.0]
        with pytest.raises(ZeroDivisionError):
            constant_tau_rho1(dec, lam, pole)
        # near the pole the curve keeps a point exactly when the integrator
        # rule returns one
        for off in (1e-15, 1e-13, 1e-12, 1e-11, 1e-9):
            for r2 in (pole * (1.0 + off), pole * (1.0 - off)):
                kept = len(constant_eigenvalue_curve(dec, lam, [r2]).points) == 1
                try:
                    constant_tau_rho1(dec, lam, r2)
                    raised = False
                except ZeroDivisionError:
                    raised = True
                assert kept != raised


class TestGain:
    @pytest.mark.parametrize(
        "r2,predicted", [(0.65, 2.52), (0.955, 5.92), (1.095, 12.88)]
    )
    def test_predicted_operating_points(self, normal, normal_dec, r2, predicted):
        r1 = constant_tau_rho1(normal_dec, LAM, r2)
        g = gain(normal, r1, r2, B6)
        assert abs(g - predicted) <= 0.02 * predicted

    def test_normal_matrix_bounded(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        A = 0.5 * (A + A.T)
        from spectral_atlas.lowrank import LowRankProblem

        f = rng.standard_normal(5)
        p = LowRankProblem(A, f, f)
        b = rng.standard_normal(5)
        g = gain(p, 0.4, 0.0, b)
        assert -1.0 - 1e-9 <= g <= 1.0 + 1e-9

    def test_divergent_at_tangency(self, normal, normal_dec):
        sols = [s for s in envelope_point(normal_dec, LAM) if s[0] > 0 and s[1] > 0]
        r1, r2 = sols[0]
        with pytest.raises(DivergentGainError):
            gain(normal, r1, r2, B6)

    @pytest.mark.xfail(
        strict=True,
        reason="decompose_cofactor's coefficient chop gives ag_normal a wrong "
        "decomposition, so its envelope point is no tangency; the eigenvalues "
        "closest to -0.05 there are -0.0499 +- 0.0581i",
    )
    def test_envelope_point_is_double_eigenvalue(self, normal, normal_dec):
        sols = [s for s in envelope_point(normal_dec, LAM) if s[0] > 0 and s[1] > 0]
        r1, r2 = sols[0]
        ev = np.linalg.eigvals(perturbed_matrix(normal, r1, r2))
        scale = max(1.0, float(np.max(np.abs(ev))))
        assert np.count_nonzero(np.abs(ev - LAM) < 1e-6 * scale) == 2

    def test_rational_shape_and_pole(self, normal, normal_dec):
        # along the operating curve the gain is a degree-(2,2) rational
        # function of rho2 whose pole is the envelope tangency
        r2s = np.linspace(0.0, 1.15, 24)
        gs = np.array(
            [gain(normal, constant_tau_rho1(normal_dec, LAM, r2), r2, B6) for r2 in r2s]
        )
        A = np.column_stack(
            [np.ones_like(r2s), r2s, r2s**2, -gs * r2s, -gs * r2s**2]
        )
        a0, a1, a2, b1, b2 = np.linalg.lstsq(A, gs, rcond=None)[0]
        fit = (a0 + a1 * r2s + a2 * r2s**2) / (1 + b1 * r2s + b2 * r2s**2)
        assert np.max(np.abs(fit - gs)) < 1e-2
        poles = np.roots([b2, b1, 1.0])
        pole = poles[np.argmin(np.abs(poles - 1.22))]
        assert abs(pole - 1.22) < 0.01


def old_gain(p, rho1, rho2, b, separation=1e-6):
    """gain as it was computed point by point, one eigensolve with left
    eigenvectors from LAPACK each, unit vectors and the conjugated inner
    product."""
    b = np.asarray(b, float)
    A = perturbed_matrix(p, rho1, rho2)
    values, vl, vr = scipy.linalg.eig(A, left=True, right=True)
    left = np.conj(vl)
    order = np.argsort(-values.real)
    i1 = order[0]
    lam1 = values[i1]
    if abs(values[order[1]].real - lam1.real) <= separation * max(1.0, abs(lam1)):
        if abs(np.conj(values[order[1]]) - lam1) > separation * max(1.0, abs(lam1)):
            raise DivergentGainError("dominant eigenvalue is not simple")
    e1 = vr[:, i1]
    f1 = left[:, i1]
    e1 = e1 / np.linalg.norm(e1)
    f1 = f1 / np.linalg.norm(f1)
    inner = np.vdot(f1, e1)
    if abs(inner) < 1e-10:
        raise DivergentGainError("left and right dominant eigenvectors are orthogonal")
    if inner.real < 0:
        f1 = -f1
        inner = -inner
    g = (b @ e1) * (f1 @ b) / (inner * (b @ b))
    if abs(g.imag) > 1e-8 * max(1.0, abs(g)):
        raise DivergentGainError("gain came out complex; dominant mode is a pair")
    return float(g.real)


class TestGainStacked:
    @pytest.mark.parametrize("lam", [-0.05, -0.1, -0.2, -0.5, -1.0])
    @pytest.mark.parametrize("hi", [1.15, 1.2])
    def test_equals_point_calls(self, normal, normal_dec, lam, hi):
        grid = np.linspace(0.0, hi, 40)
        r1 = constant_tau_rho1(normal_dec, lam, grid, normal)
        g = gain(normal, r1, grid, B6)
        assert isinstance(g, np.ndarray) and g.shape == grid.shape
        ref = np.array([old_gain(normal, a, c, B6) for a, c in zip(r1, grid)])
        assert np.max(np.abs(g - ref) / np.abs(ref)) <= 1e-12
        points = [gain(normal, a, c, B6) for a, c in zip(r1, grid)]
        assert all(type(v) is float for v in points)
        assert np.max(np.abs(np.array(points) - ref) / np.abs(ref)) <= 1e-12

    def test_broadcast_shape(self, normal, normal_dec):
        grid = np.linspace(0.0, 1.1, 6)
        r1 = constant_tau_rho1(normal_dec, LAM, grid, normal)
        g = gain(normal, r1.reshape(2, 3), grid.reshape(2, 3), B6)
        assert g.shape == (2, 3)
        assert g.ravel().tolist() == gain(normal, r1, grid, B6).tolist()

    def test_first_failing_point_named(self):
        # ag_in's operating curve reaches a leading complex pair; the stacked
        # call fails at the point where the point-by-point loop first failed
        prob = build_network(preset="ag_in")
        grid = np.linspace(0.0, 1.2, 60)
        r1 = constant_tau_rho1(decompose_cofactor(prob), LAM, grid, prob)
        first = None
        for a, c in zip(r1, grid):
            try:
                old_gain(prob, a, c, B6)
            except DivergentGainError:
                first = c
                break
        assert first is not None
        with pytest.raises(DivergentGainError, match="dominant mode is a pair") as err:
            gain(prob, r1, grid, B6)
        assert f"rho2 = {float(first)!r}" in str(err.value)


class TestImpulse:
    def test_decay_from_rest_coupling(self, normal):
        t, resp = impulse_response(normal, 0.0, 0.0, B6, t_end=1.0)
        assert resp[0] == pytest.approx(B6 @ B6)
        assert np.max(resp) == resp[0]
        assert resp[-1] < resp[0]

    def test_matches_matrix_exponential(self, normal):
        r1, r2 = 1.0, 0.5
        t, resp = impulse_response(normal, r1, r2, B6, t_end=0.5)
        A = perturbed_matrix(normal, r1, r2)
        for k in [len(t) // 3, len(t) - 1]:
            ref = B6 @ (scipy.linalg.expm(t[k] * A) @ B6)
            assert np.isclose(resp[k], ref, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize(
        "r2,measured", [(0.65, 2.54), (0.955, 5.87), (1.095, 12.53)]
    )
    def test_measured_operating_points(self, normal, normal_dec, r2, measured):
        r1 = constant_tau_rho1(normal_dec, LAM, r2)
        t, resp = impulse_response(normal, r1, r2, B6, t_end=80.0)
        assert abs(measured_gain(resp, B6) - measured) <= 0.03 * measured

    def test_overflow_names_the_first_non_finite_time(self, normal):
        with pytest.raises(FloatingPointError, match="not finite") as err:
            impulse_response(normal, 2.2, 1.1, B6, t_end=60.0)
        t_bad = float(re.search(r"from t = (\S+)", str(err.value)).group(1))
        # one step short of the named time the response is finite
        dt = impulse_response(normal, 2.2, 1.1, B6, t_end=1e-9)[0][1]
        t, resp = impulse_response(normal, 2.2, 1.1, B6, t_end=t_bad - 1.5 * dt)
        assert t[-1] == pytest.approx(t_bad - dt)
        assert np.all(np.isfinite(resp))

    def test_t_end_zero_is_one_row(self, normal):
        t, resp = impulse_response(normal, 0.3, 0.2, B6, t_end=0.0)
        assert t.tolist() == [0.0]
        assert resp.tolist() == [B6 @ B6]

    def test_measured_gain_validation(self):
        with pytest.raises(ValueError):
            measured_gain([], B6)
        assert measured_gain(np.zeros(5), B6) == 0.0


def old_impulse_response(p, rho1, rho2, b, t_end):
    """The stepwise RK4 loop impulse_response replaced: one R @ v per step."""
    b = np.asarray(b, float)
    A = perturbed_matrix(p, rho1, rho2)
    rad = float(np.max(np.abs(np.linalg.eigvals(A))))
    dt = 0.5 * (0.1 / max(rad, 1e-300))  # half the stability cap
    nsteps = int(np.ceil(t_end / dt))
    H = dt * A
    R = np.eye(len(b)) + H @ (
        np.eye(len(b)) + H @ (np.eye(len(b)) / 2.0 + H @ (np.eye(len(b)) / 6.0 + H / 24.0))
    )
    ts = np.arange(nsteps + 1) * dt
    out = np.empty(nsteps + 1)
    v = b.copy()
    for i in range(nsteps + 1):
        out[i] = b @ v
        if i < nsteps:
            v = R @ v
    return ts, out


class TestImpulsePanels:
    """The panel evaluation reproduces the stepwise RK4 iterate b^T R^i b."""

    @pytest.mark.parametrize(
        "preset,r1,r2,t_end",
        [
            # 1025 rows in panels of 33 and 7825 in panels of 89: the last
            # panel is partly filled
            ("ag_normal", 0.0, 0.0, 0.2),
            ("ag_normal", None, 1.095, 80.0),  # criterion 5's largest gain
            ("ag_in", 1.0, 0.3, 1.0),
            ("ag_in", 1.7, 0.55, 6.0),  # grows to about 2e169
        ],
    )
    def test_matches_stepwise_loop(self, preset, r1, r2, t_end, normal_dec):
        p = build_network(preset=preset)
        if r1 is None:
            r1 = constant_tau_rho1(normal_dec, LAM, r2)
        t_old, old = old_impulse_response(p, r1, r2, B6, t_end)
        t, resp = impulse_response(p, r1, r2, B6, t_end)
        assert np.array_equal(t, t_old)
        scale = np.maximum(1.0, np.maximum.accumulate(np.abs(old)))
        assert np.all(np.abs(resp - old) <= 1e-11 * scale)


class TestMiswiredPreset:
    def test_hopf_before_envelope_on_curve(self):
        p = build_network(preset="ag_in")
        dec = decompose_cofactor(p)
        from spectral_atlas.phase import classify_point

        first_rhp = first_real = None
        prev = None
        for r2 in np.linspace(0.0, 0.6, 121):
            r1 = constant_tau_rho1(dec, LAM, r2)
            lab = classify_point(p, r1, r2)
            if prev is not None:
                if first_rhp is None and lab.n_rhp != prev.n_rhp:
                    first_rhp = r2
                if first_real is None and lab.n_real != prev.n_real:
                    first_real = r2
            prev = lab
        assert first_rhp is not None and first_real is not None
        assert first_rhp < first_real

    def test_oscillation_frequency_matches_pair(self):
        from scipy.optimize import brentq

        p = build_network(preset="ag_in")
        dec = decompose_cofactor(p)

        def pair_real(r2):
            r1 = constant_tau_rho1(dec, LAM, r2)
            ev = np.linalg.eigvals(perturbed_matrix(p, r1, r2))
            ev = ev[np.abs(ev.imag) > 1e-8]
            return float(np.max(ev.real))

        r2c = brentq(pair_real, 0.45, 0.5)
        r1c = constant_tau_rho1(dec, LAM, r2c)
        ev = np.linalg.eigvals(perturbed_matrix(p, r1c, r2c))
        pair = ev[np.abs(ev.imag) > 1e-6]
        om = abs(pair[np.argmax(pair.real)].imag)

        r2 = r2c + 0.005
        r1 = constant_tau_rho1(dec, LAM, r2)
        t, resp = impulse_response(p, r1, r2, B6, t_end=6.0)
        late = resp[len(resp) // 2 :]
        late = late - late.mean()
        freqs = np.fft.rfftfreq(len(late), d=t[1] - t[0]) * 2 * np.pi
        amp = np.abs(np.fft.rfft(late))
        om_meas = freqs[np.argmax(amp[1:]) + 1]
        assert abs(om_meas - om) / om < 0.05
