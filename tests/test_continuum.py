import numpy as np
import pytest

from spectral_atlas.continuum import (
    BranchParam,
    ContinuumSpec,
    ResonantFrequencyError,
    bigF,
    branch_lambda,
    cell_response,
    continuum_envelope,
    eigencondition,
    eigencondition_closed,
    envelope_asymptotes,
    envelope_rho,
    greens_coefficients,
    gvector,
    lemma_f_domega,
    quadrant_sign_check,
)
from spectral_atlas.curves import branches_to_csv


@pytest.fixture(scope="module")
def spec():
    return ContinuumSpec()


def fd_matrix(spec, rho1, rho2, n=3599):
    """Finite-difference discretization of the coupled line/cell system.

    Interior nodes j=1..n with h = L/(n+1); n is chosen so the coupling
    points fall exactly on grid nodes and the delta couplings become 1/h
    column entries.
    """
    import scipy.sparse

    h = spec.L / (n + 1)
    beta, dx = spec.beta, spec.dx
    j1 = round(spec.x1 / h)
    j2 = round(spec.x2 / h)
    assert abs(j1 * h - spec.x1) < 1e-12 and abs(j2 * h - spec.x2) < 1e-12
    main = np.full(n + 2, (-1.0 + 3.0 * beta) - 2.0 * beta * dx**2 / h**2)
    main[n:] = -1.0
    off = np.full(n + 1, beta * dx**2 / h**2)
    off[n - 1 :] = 0.0
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    A[j1 - 1, n] = rho1 * dx**2 / h
    A[j2 - 1, n + 1] = rho2 * dx**2 / h
    A[n, :n] = h / dx**3
    A[n + 1, :n] = h / dx**3
    return A.tocsc()


def fd_eigs_near(spec, rho1, rho2, lam, k=2, n=3599):
    """The k discretized eigenvalues closest to lam (sparse shift-invert)."""
    import scipy.sparse.linalg

    A = fd_matrix(spec, rho1, rho2, n)
    # offset the shift so the factorization is not taken at the eigenvalue
    return scipy.sparse.linalg.eigs(
        A, k=k, sigma=lam + 1e-4, return_eigenvectors=False
    )


class TestSpecs:
    def test_beta_matches_discrete_model(self, spec):
        # same tuning rule as the network: slow decay rate 5 at alpha = 200
        assert np.isclose(
            spec.beta, (1 - 5 / 200) / (1 + 2 * np.cos(np.pi / 13)), atol=1e-14
        )

    def test_band_edge_limit(self):
        # -1 + 3 beta -> -1/40 as the line is refined
        s = ContinuumSpec(N=100000)
        assert np.isclose(-1 + 3 * s.beta, -1 / 40, atol=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuumSpec(x1=0.5, x2=1.0 / 3.0)
        with pytest.raises(ValueError):
            BranchParam(1.0, "quartic")
        with pytest.raises(ValueError):
            BranchParam(-1.0, "trig")


class TestBranchLambda:
    def test_formulas(self, spec):
        beta, dx = spec.beta, spec.dx
        om = 3.7
        assert np.isclose(
            branch_lambda(BranchParam(om, "trig"), spec),
            -1 + 3 * beta - beta * dx**2 * om**2,
        )
        assert np.isclose(
            branch_lambda(BranchParam(om, "hyper"), spec),
            -1 + 3 * beta + beta * dx**2 * om**2,
        )

    def test_branch_junction_continuous(self, spec):
        edge = -1 + 3 * spec.beta
        for br in ("trig", "hyper"):
            assert np.isclose(branch_lambda(BranchParam(1e-8, br), spec), edge)

    def test_unperturbed_modes(self, spec):
        # with rho = 0 the modes are sin(n pi x): lambda_n must exhaust the
        # discretized spectrum nearest the band edge
        edge = -1 + 3 * spec.beta
        ev = np.sort(fd_eigs_near(spec, 0.0, 0.0, edge, k=5).real)[::-1]
        for n_mode in range(1, 6):
            lam = branch_lambda(BranchParam(n_mode * np.pi, "trig"), spec)
            assert abs(ev[n_mode - 1] - lam) < 1e-6


class TestDualRoutes:
    def test_greens_matches_closed_form(self, spec):
        rng = np.random.default_rng(3)
        for br, om_hi in (("trig", 30.0), ("hyper", 15.0)):
            for _ in range(20):
                om = rng.uniform(0.4, om_hi)
                if br == "trig" and abs(np.sin(om)) < 1e-2:
                    continue
                bp = BranchParam(om, br)
                r1, r2 = rng.uniform(-3, 3, 2)
                a = eigencondition(spec, bp, r1, r2)
                b = eigencondition_closed(spec, bp, r1, r2)
                assert abs(a - b) <= 1e-7 * max(1.0, abs(b))

    def test_matching_residual(self, spec):
        for br in ("trig", "hyper"):
            w, res = greens_coefficients(spec, BranchParam(7.0, br), 1.0, 2.0)
            assert w.shape == (4,)
            assert res < 1e-10

    def test_resonant_omega_raises(self, spec):
        with pytest.raises(ResonantFrequencyError):
            greens_coefficients(spec, BranchParam(2 * np.pi, "trig"), 1.0, 1.0)

    def test_rho_zero_is_one(self, spec):
        for br in ("trig", "hyper"):
            assert eigencondition(spec, BranchParam(2.0, br), 0.0, 0.0) == 1.0

    def test_gvector_is_piece_integrals(self, spec):
        bp = BranchParam(5.0, "trig")
        g = gvector(spec, bp)
        from scipy.integrate import quad

        om = bp.omega
        segs = [
            quad(lambda x: np.sin(om * x), 0, spec.x1)[0],
            quad(lambda x: np.sin(om * x), spec.x1, spec.x2)[0],
            quad(lambda x: np.cos(om * x), spec.x1, spec.x2)[0],
            quad(lambda x: np.sin(om * (spec.L - x)), spec.x2, spec.L)[0],
        ]
        assert np.allclose(g, segs, atol=1e-12)


class TestAgainstDiscretization:
    @pytest.mark.parametrize(
        "branch,om", [("trig", 7.0), ("trig", 17.0), ("hyper", 4.0)]
    )
    def test_eigencondition_zero_is_eigenvalue(self, spec, branch, om):
        bp = BranchParam(om, branch)
        P1 = cell_response(spec, bp, spec.x1)
        P2 = cell_response(spec, bp, spec.x2)
        r2 = 0.7
        r1 = -(1.0 + r2 * P2) / P1
        assert abs(eigencondition(spec, bp, r1, r2)) < 1e-10
        lam = branch_lambda(bp, spec)
        ev = fd_eigs_near(spec, r1, r2, lam)
        assert np.min(np.abs(ev - lam)) < 5e-6

    def test_even_modes_unaffected(self, spec):
        # zero-mean modes do not excite the cells: they persist at any rho
        for n_mode in (2, 4):
            lam = branch_lambda(BranchParam(n_mode * np.pi, "trig"), spec)
            ev = fd_eigs_near(spec, 0.7, -0.4, lam)
            assert np.min(np.abs(ev - lam)) < 1e-6

    def test_envelope_point_is_double_eigenvalue(self, spec):
        for branch, om in (("trig", 7.0), ("hyper", 3.0)):
            bp = BranchParam(om, branch)
            r1, r2 = envelope_rho(spec, bp)
            lam = branch_lambda(bp, spec)
            near = np.sort(np.abs(fd_eigs_near(spec, r1, r2, lam) - lam))
            assert near[0] < 1e-3 and near[1] < 1e-3


class TestEnvelope:
    def test_tangency_conditions(self, spec):
        # eigencondition and its omega derivative both vanish on the envelope
        for branch, om in (("trig", 7.0), ("hyper", 3.0)):
            bp = BranchParam(om, branch)
            r1, r2 = envelope_rho(spec, bp)
            assert abs(eigencondition_closed(spec, bp, r1, r2)) < 1e-10
            h = 1e-6
            d = (
                eigencondition_closed(spec, BranchParam(om + h, branch), r1, r2)
                - eigencondition_closed(spec, BranchParam(om - h, branch), r1, r2)
            ) / (2 * h)
            assert abs(d) < 1e-6

    def test_asymptote_locations(self, spec):
        asy = envelope_asymptotes(spec, (0.5, 40.0), "trig")
        assert len(asy) == 4
        for got, mult in zip(asy, (4, 6, 8, 12)):
            assert abs(got - mult * np.pi) < 0.01

    def test_asymptotes_independent_of_N(self, spec):
        base = envelope_asymptotes(spec, (0.5, 40.0), "trig")
        for N in (24, 50, 100):
            other = envelope_asymptotes(ContinuumSpec(N=N), (0.5, 40.0), "trig")
            assert np.allclose(base, other, atol=1e-6)

    def test_trig_curve_has_gaps_at_asymptotes(self, spec):
        br = continuum_envelope(spec, np.linspace(0.5, 40.0, 2000), "trig")
        assert br.parameter_name == "omega"
        asy = envelope_asymptotes(spec, (0.5, 40.0), "trig")
        for a in asy:
            assert any(lo <= a <= hi for lo, hi in br.gaps)

    def test_crossing_point_is_kept(self, spec):
        # N1 ^ N2 changes sign across the asymptote at 4 pi: the gap spans
        # the crossing and both of its ends stay on the curve
        grid = np.linspace(1.0, 14.0, 200)
        br = continuum_envelope(spec, grid, "trig")
        (a,) = envelope_asymptotes(spec, (1.0, 14.0), "trig")
        i = int(np.searchsorted(grid, a))
        assert br.gaps == [(grid[i - 1], grid[i])]
        assert [p.parameter for p in br.points] == grid.tolist()

    def test_hyper_curve_second_quadrant(self, spec):
        br = continuum_envelope(spec, np.linspace(0.05, 20.0, 400), "hyper")
        r1, r2 = br.rho_arrays()
        assert np.all(r1 > 0) and np.all(r2 < 0)

    def test_hyper_curve_begins_near_benchmark(self, spec):
        # the low-omega end of the hyperbolic branch sits near
        # (rho2, rho1) = (-0.09, 0.09) and then grows into the quadrant
        oms = np.linspace(0.05, 4.0, 200)
        rs = np.array([envelope_rho(spec, BranchParam(o, "hyper")) for o in oms])
        dist = np.max(np.abs(rs - np.array([0.09, -0.09])), axis=1)
        assert np.min(dist) < 0.02
        # the omega -> 0 limit point itself
        r1, r2 = envelope_rho(spec, BranchParam(0.01, "hyper"))
        assert abs(r1 - 0.09) < 0.03 and abs(r2 + 0.09) < 0.03

    def test_structure_stable_over_N(self):
        # same quadrant structure and asymptote set at every line resolution
        for N in (12, 24, 50, 100):
            s = ContinuumSpec(N=N)
            br = continuum_envelope(s, np.linspace(0.1, 15.0, 200), "hyper")
            r1, r2 = br.rho_arrays()
            assert np.all(r1 > 0) and np.all(r2 < 0)

    def test_csv(self, spec):
        br = continuum_envelope(spec, np.linspace(0.5, 20.0, 100), "trig")
        text = branches_to_csv([br])
        lines = text.strip().splitlines()
        assert lines[0] == "kind,branch,parameter,rho1,rho2"
        assert any(line.startswith("# gap") for line in lines)
        body = [l for l in lines if not l.startswith("#")][1:]
        assert all(l.split(",")[1] == "trig" for l in body)


class TestQuadrantLemma:
    def test_sign_ratio_negative_grid(self, spec):
        xs = np.linspace(0.05, 0.95, 20)
        for om in (0.5, 2.0, 5.0, 10.0, 20.0):
            for i, a in enumerate(xs):
                for b in xs[i + 1 :]:
                    sr, _ = quadrant_sign_check(spec, om, a, b)
                    assert sr < 0

    def test_response_derivative_positive(self, spec):
        for om in np.linspace(0.3, 25.0, 25):
            for x in np.linspace(0.05, 0.95, 25):
                assert lemma_f_domega(spec, om, x) > 0

    def test_derivative_matches_difference_quotient(self, spec):
        h = 1e-6
        for om, x in [(0.8, 0.3), (4.0, 0.52), (11.0, 0.7)]:
            fd = (
                cell_response(spec, BranchParam(om + h, "hyper"), x)
                - cell_response(spec, BranchParam(om - h, "hyper"), x)
            ) / (2 * h)
            assert np.isclose(lemma_f_domega(spec, om, x), fd, rtol=1e-6)

    def test_comparison_function_boundary_and_sign(self, spec):
        xs = np.linspace(0.0, 1.0, 41)
        for om in (0.5, 2.0, 10.0):
            F = bigF(spec, om, xs)
            assert abs(F[0]) < 1e-10 and abs(F[-1]) < 1e-10
            assert np.all(F[1:-1] < 0)

    def test_sign_ratio_matches_envelope_ratio(self, spec):
        for om in (0.5, 2.0, 6.0):
            sr, _ = quadrant_sign_check(spec, om)
            r1, r2 = envelope_rho(spec, BranchParam(om, "hyper"))
            assert np.isclose(sr, r1 / r2, rtol=1e-9)
