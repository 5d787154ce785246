import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from multiroot.bergman import APPENDIX_SLICE, COMPLEX_EXACT, BallContext, kappa
from multiroot.certificates import (
    PointQuantities,
    _alpha_threshold,
    _gamma_radius_of,
    _u_low,
    alpha_certificate,
    deflated_gamma_bound,
    deflated_radius_formula,
    gamma_radius,
    point_quantities,
    rank_stability_radius,
    singular_alpha_certificate,
)
from multiroot.deflation import deflation_sequence
from multiroot.errors import CertificateUnavailableError, DomainError
from multiroot.rank import singular_values
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    jacobian_at,
    system_evaluate,
    ts_recenter,
)

from conftest import gy2_at, scaled

C2 = (0.0, 0.0)


def linear_golden_system():
    """The regular linear system (2(x+y), 4(x-y)) on B(0,1) of the goldens."""
    eqs = (
        TruncatedSeries(C2, 1, {(1, 0): 2.0, (0, 1): 2.0}),
        TruncatedSeries(C2, 1, {(1, 0): 4.0, (0, 1): -4.0}),
    )
    return AnalyticSystem(2, eqs, C2, 1.0)


def identity_system(radius):
    """(x, y) at order 2 on B(0, radius): J = I, so mu = 1 at the origin."""
    eqs = (
        TruncatedSeries(C2, 2, {(1, 0): 1.0}),
        TruncatedSeries(C2, 2, {(0, 1): 1.0}),
    )
    return AnalyticSystem(2, eqs, C2, radius)


def exact_selected_f0():
    """S(f) of the worked example at the exact root (order-2 polynomials)."""
    return AnalyticSystem(
        2,
        (
            TruncatedSeries(C2, 2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0}),
            TruncatedSeries(C2, 2, {(1, 1): 2.0, (1, 0): 2.0, (0, 1): 2.0}),
            TruncatedSeries(C2, 2, {(1, 1): 2.0, (0, 2): -1.0, (1, 0): 2.0, (0, 1): 2.0}),
            TruncatedSeries(C2, 2, {(2, 0): 1.0, (1, 1): -2.0, (1, 0): 2.0, (0, 1): 2.0}),
        ),
        C2,
        1.0,
    )


def random_regular_system(rng, quad_scale=0.2):
    """Square 2x2 system with a known root at the origin."""
    while True:
        a = rng.standard_normal((2, 2))
        if np.linalg.svd(a, compute_uv=False)[-1] > 0.3:
            break
    eqs = []
    for i in range(2):
        coeffs = {(1, 0): a[i, 0], (0, 1): a[i, 1]}
        for alpha in [(2, 0), (1, 1), (0, 2)]:
            coeffs[alpha] = quad_scale * rng.standard_normal()
        eqs.append(TruncatedSeries(C2, 2, coeffs))
    return AnalyticSystem(2, tuple(eqs), C2, 1.0)


class TestPointQuantities:
    def test_worked_example(self, gy2_trace):
        trace, point, backend = gy2_trace
        q = point_quantities(trace.deflated, point, backend)
        assert q.beta == pytest.approx(0.00078147, rel=1e-3)
        assert q.kappa == pytest.approx(3.0000, rel=1e-4)
        assert q.gamma == pytest.approx(2.6737, rel=1e-3)
        assert q.alpha == pytest.approx(0.0023444, rel=1e-3)
        assert q.alpha == pytest.approx(q.beta * q.kappa, rel=1e-12)
        assert q.gamma >= 1.0 and q.kappa >= 1.0

    def test_zero_at_exact_root_of_linear_system(self):
        f = linear_golden_system()
        q = point_quantities(f, C2, COMPLEX_EXACT)
        assert q.beta == 0.0
        assert q.alpha == 0.0

    def test_row_scaling_tradeoff(self, gy2_trace):
        trace, point, backend = gy2_trace
        f = trace.deflated
        tripled = f.with_equations(scaled(eq, 3.0) for eq in f.equations)
        q = point_quantities(f, point, backend)
        qs = point_quantities(tripled, point, backend)
        # beta is the Newton step length: invariant under common row scaling
        assert qs.beta == pytest.approx(q.beta, rel=1e-12)
        assert qs.lam == pytest.approx(3.0 * q.lam, rel=1e-12)
        assert qs.mu == pytest.approx(q.mu / 3.0, rel=1e-12)
        assert qs.lam * qs.mu == pytest.approx(q.lam * q.mu, rel=1e-12)
        assert qs.gamma == pytest.approx(q.gamma, rel=1e-12)

    def test_gamma_is_at_least_one(self):
        # R = 2: kappa = 3/2 and the slice lambda is 0.5642, so
        # lambda kappa mu = 0.846 < 1 and gamma is the floor 1.
        q = point_quantities(identity_system(2.0), C2, APPENDIX_SLICE)
        assert (q.kappa, q.mu) == (1.5, 1.0)
        assert q.lam * q.kappa * q.mu == pytest.approx(0.8463, rel=1e-4)
        assert q.gamma == 1.0

    def test_kappa_is_at_least_one(self):
        # R = 5 > n + 1: (n + 1) / (R (1 - nu^2)) = 3/5 at the center, so
        # kappa is the floor 1.
        q = point_quantities(identity_system(5.0), C2, APPENDIX_SLICE)
        assert q.kappa == 1.0

    def test_singular_jacobian_rejected(self):
        eqs = (
            TruncatedSeries(C2, 2, {(2, 0): 1.0}),
            TruncatedSeries(C2, 2, {(0, 2): 1.0}),
        )
        f = AnalyticSystem(2, eqs, C2, 1.0)
        with pytest.raises(CertificateUnavailableError):
            point_quantities(f, C2, COMPLEX_EXACT)


class TestAlphaCertificate:
    def test_worked_example(self, gy2_trace):
        trace, point, backend = gy2_trace
        report = alpha_certificate(trace.deflated, point, backend)
        assert report.alpha_ok
        assert report.quantities.alpha == pytest.approx(0.0023444, rel=1e-3)
        assert report.alpha_bound == pytest.approx(0.079267, rel=1e-3)
        assert report.theta_low == pytest.approx(0.00078644, rel=1e-3)
        assert report.theta_low < report.theta_high
        assert not report.notes  # theta ball fits inside the ambient ball

    def test_beta_zero_gives_theta_zero(self):
        report = alpha_certificate(linear_golden_system(), C2, COMPLEX_EXACT)
        assert report.alpha_ok
        assert report.theta_low == 0.0

    def test_failure_is_report_not_error(self, gy2_trace):
        trace, point, backend = gy2_trace
        f = trace.deflated
        # inflate the constant terms until the alpha test flips
        bumped = f.with_equations(
            TruncatedSeries(
                eq.center, eq.order, dict(eq.coefficients) | {(0, 0): eq.constant + 0.2}
            )
            for eq in f.equations
        )
        report = alpha_certificate(bumped, point, backend)
        assert not report.alpha_ok
        assert report.theta_low is None and report.theta_high is None


class TestRationalisedForms:
    """The alpha threshold, the window's low end u_low and the gamma radius
    keep their digits as gamma grows: each is a - sqrt(b) computed as
    (a^2 - b) / (a + sqrt(b)), checked against the difference taken in
    50-digit arithmetic."""

    GAMMAS = [1.0, 6.0, 1e5, 1e7, 1e8]

    @staticmethod
    def assert_close(got, want):
        assert got > 0
        assert abs(got - float(want)) <= 1e-14 * abs(float(want))

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_against_fifty_digits(self, gamma):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            g = mpmath.mpf(gamma)
            bound = 2 * g + 1 - mpmath.sqrt((2 * g + 1) ** 2 - 1)
            self.assert_close(_alpha_threshold(gamma), bound)
            for alpha in (float(bound) / 2, float(bound) * 1e-3):
                a = mpmath.mpf(alpha)
                disc = (a + 1) ** 2 - 4 * a * (g + 1)
                u_low = (a + 1 - mpmath.sqrt(disc)) / (2 * (g + 1))
                self.assert_close(_u_low(alpha, gamma), u_low)
            q = PointQuantities(0.0, 1.0, 3.0, 1.0, gamma, 0.0, 0.0)
            radius = (2 * g + 1 - mpmath.sqrt(4 * g * g + 3 * g)) / (3 * (g + 1))
            self.assert_close(_gamma_radius_of(q), radius)

    @pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
    def test_exact_root_near_the_sphere_passes(self, backend):
        # A linear system that vanishes at x0, with ||x0 - omega|| / R =
        # 0.9999: gamma exceeds 1e8, where the subtraction read 0.0.
        rng = np.random.default_rng(29)
        for _ in range(4):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
            omega = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x0 = tuple((omega + 0.9999 * direction / np.linalg.norm(direction)).tolist())
            eqs = tuple(
                TruncatedSeries(x0, 1, {(1, 0): a[i, 0], (0, 1): a[i, 1]}) for i in range(2)
            )
            f = AnalyticSystem(2, eqs, tuple(omega.tolist()), 1.0)
            report = alpha_certificate(f, x0, backend)
            assert report.quantities.gamma > 1e8
            assert report.alpha_ok and report.theta_low == 0.0 < report.alpha_bound


class TestGammaRadius:
    def test_linear_system_golden(self):
        f = linear_golden_system()
        q = point_quantities(f, C2, "appendix_slice")
        assert q.kappa == pytest.approx(3.0, rel=1e-6)
        assert q.gamma == pytest.approx(2.6761, rel=1e-3)
        assert gamma_radius(f, C2, "appendix_slice") == pytest.approx(
            0.026858, rel=1e-3
        )

    def test_gamma_floor_formula(self):
        # at the gamma = 1 floor the radius reduces to (3 - sqrt 7) / (2 kappa)
        g = 1.0
        kap = 3.0
        value = (2 * g + 1 - math.sqrt(4 * g * g + 3 * g)) / (kap * (g + 1))
        assert value == pytest.approx((3 - math.sqrt(7)) / (2 * kap), rel=1e-12)

    def test_convergence_envelope_on_random_systems(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            f = random_regular_system(rng)
            radius = gamma_radius(f, C2, COMPLEX_EXACT)
            assert radius > 0
            ang = rng.random() * 2 * math.pi
            x = np.array([math.cos(ang), math.sin(ang)]) * 0.9 * radius
            x = x.astype(complex)
            e0 = np.linalg.norm(x)
            for k in range(1, 6):
                j0 = jacobian_at(f, tuple(x))
                v = system_evaluate(f, tuple(x))
                x = x - np.linalg.solve(j0, v)
                ek = np.linalg.norm(x)
                envelope = 0.5 ** (2**k - 1) * e0
                assert ek <= envelope * (1 + 1e-9) + 1e-15
            assert np.linalg.norm(x) <= 1e-12


class TestDeflatedGammaBound:
    def test_worked_example_components(self, gy2_trace):
        trace, point, backend = gy2_trace
        bound = deflated_gamma_bound(trace, point, backend)
        assert bound.ell == 1
        assert bound.p0 == 2
        assert bound.p == 1
        assert bound.mu_max == pytest.approx(1 / 2.0012, rel=1e-3)
        # recompute gamma0 from the closed form with the trace's measurements
        from multiroot.bergman import lambda_bound

        lam0 = lambda_bound(trace.input_system, point, backend)
        kap = kappa(point, BallContext.of(trace.input_system))
        expected = (2 * 2 / (2 + 1)) * lam0 * kap**2 * bound.mu_max
        assert bound.gamma0 == pytest.approx(expected, rel=1e-12)
        assert bound.gamma_ell == pytest.approx(1 + bound.gamma0, rel=1e-12)
        assert bound.radius > 0

    def test_upper_bounds_measured_gamma(self, gy2_trace):
        trace, point, backend = gy2_trace
        measured = point_quantities(trace.deflated, point, backend).gamma
        bound = deflated_gamma_bound(trace, point, backend)
        assert bound.gamma_ell >= measured

    def test_ell_zero_equals_gamma0(self):
        eqs = (
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): -1.0}),
        )
        f = AnalyticSystem(2, eqs, C2, 2.0)
        trace = deflation_sequence(f, (0.4995, 0.5005), COMPLEX_EXACT)
        assert trace.thickness == 0
        bound = deflated_gamma_bound(trace, (0.4995, 0.5005), COMPLEX_EXACT)
        assert bound.gamma_ell == pytest.approx(bound.gamma0, rel=1e-12)

    def test_radius_monotone_in_ell(self):
        for gamma0 in (1.0, 2.5, 7.0):
            radii = [
                deflated_radius_formula(gamma0, ell, kap=3.0, p=2, nu_zeta=0.1, n=2)
                for ell in range(0, 8)
            ]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize(
        "gamma0,ell,kap,p,nu_zeta,n,first_term_smaller",
        [
            # 1/(p + 1) = 0.25 against ~3.3.
            (0.01, 0, 1.0, 3, 0.1, 3, True),
            # 1/(p + 1) = 1/3 against ~2.9e-4.
            (2.5, 1, 3.0, 2, 0.1, 3, False),
            (0.7, 2, 1.5, 1, 0.3, 5, False),
        ],
    )
    def test_radius_against_exact_rationals(
        self, gamma0, ell, kap, p, nu_zeta, n, first_term_smaller
    ):
        """u/kappa with u = min(1/(p+1), x / (6 g (4 kappa^p (1 + g) + x))),
        g = ell + gamma0 and x = (1 - nu^2)^((n+1)/2), evaluated exactly
        from the same float arguments (odd n, so the power is an integer)."""
        g = ell + Fraction(gamma0)
        k, nz = Fraction(kap), Fraction(nu_zeta)
        x = (1 - nz * nz) ** ((n + 1) // 2)
        first = Fraction(1, p + 1)
        second = x / (6 * g * (4 * k**p * (1 + g) + x))
        assert (first < second) == first_term_smaller
        want = min(first, second) / k
        got = deflated_radius_formula(gamma0, ell, kap, p, nu_zeta, n)
        assert got == pytest.approx(float(want), rel=1e-14)


class TestSingularAlphaCertificate:
    def test_worked_example(self, gy2):
        system, point, backend = gy2
        report, trace = singular_alpha_certificate(system, point, backend)
        assert report.alpha_ok
        assert report.theta_low == pytest.approx(0.00078644, rel=1e-3)
        assert trace.thickness == 1
        assert not report.notes

    def test_regular_reduces_to_alpha(self):
        eqs = (
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): -1.0}),
        )
        f = AnalyticSystem(2, eqs, C2, 2.0)
        x0 = (0.4995, 0.5005)
        report, trace = singular_alpha_certificate(f, x0, COMPLEX_EXACT)
        assert trace.thickness == 0
        direct = alpha_certificate(trace.deflated, x0, COMPLEX_EXACT)
        assert report.alpha_ok == direct.alpha_ok
        assert report.theta_low == pytest.approx(direct.theta_low, rel=1e-12)

    def test_deflated_system_failing_alpha_is_a_note(self, tmp_path):
        # 48 times the fixture's offset from the root, appendix backend: the
        # deflation succeeds, but its square system fails the alpha test.
        system, point, backend = gy2_at(tmp_path, (-0.024, 0.0288), "appendix")
        report, trace = singular_alpha_certificate(system, point, backend)
        assert trace.deflated is not None and trace.failure is None
        assert not report.alpha_ok
        assert report.quantities.alpha > report.alpha_bound
        assert report.notes[0] == "hypothesis 2 failed: the deflated system fails the alpha test"

    def test_far_point_reports_hypothesis_failure(self, gy2):
        system, _point, backend = gy2
        far = (0.5, 0.4)
        recentered = AnalyticSystem(
            2,
            tuple(ts_recenter(eq, far, eq.order) for eq in system.equations),
            far,
            system.ball_radius,
        )
        report, trace = singular_alpha_certificate(recentered, far, backend)
        assert not report.alpha_ok
        assert trace.deflated is None
        assert any("hypothesis 1.1 failed at k=0" in note for note in report.notes)


class TestRankStabilityRadius:
    def test_zero_epsilon(self):
        f = exact_selected_f0()
        assert rank_stability_radius(f, C2, 0.0, COMPLEX_EXACT) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_zeta_outside_the_ball_is_an_error(self, eps):
        f = exact_selected_f0()
        with pytest.raises(DomainError, match="outside the open ball"):
            rank_stability_radius(f, (1.5, 0.0), eps, COMPLEX_EXACT)

    def test_epsilon_above_cap_rejected(self):
        f = exact_selected_f0()
        with pytest.raises(DomainError):
            rank_stability_radius(f, C2, 2 - math.sqrt(2), COMPLEX_EXACT)

    def test_epsilon_from_half_sigma_r_rejected(self):
        # Df = diag(0.5, 2): sigma_r = 0.5, so the cap is sigma_r/2 = 0.25,
        # below both sigma_r and 2 - sqrt 2.
        f = AnalyticSystem(
            2,
            (TruncatedSeries(C2, 1, {(1, 0): 0.5}), TruncatedSeries(C2, 1, {(0, 1): 2.0})),
            C2,
            1.0,
        )
        assert rank_stability_radius(f, C2, math.nextafter(0.25, 0.0), COMPLEX_EXACT) > 0
        for eps in (0.25, 0.4, math.nextafter(0.5, 0.0)):
            with pytest.raises(DomainError, match="sigma_r/2"):
                rank_stability_radius(f, C2, eps, COMPLEX_EXACT)

    def test_worked_example_sample_and_check(self):
        f = exact_selected_f0()
        zeta = C2
        j0 = jacobian_at(f, zeta)
        sv = singular_values(j0)
        r = sum(1 for s in sv if s > 1e-12 * sv[0])
        assert r == 1
        eps = 0.2
        radius = rank_stability_radius(f, zeta, eps, COMPLEX_EXACT)
        assert radius > 0
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g /= np.linalg.norm(g)
            x = tuple(radius * rng.random() ** 0.25 * g)
            sx = singular_values(jacobian_at(f, x))
            assert sum(1 for s in sx if s > eps) == r

    def test_sample_and_check_on_random_systems(self):
        rng = np.random.default_rng(57)
        checked = 0
        while checked < 20:
            f = random_regular_system(rng, quad_scale=0.3)
            sv = singular_values(jacobian_at(f, C2))
            sigma_r = sv[-1]
            if sigma_r < 0.3:
                continue
            checked += 1
            eps = 0.5 * min(2 - math.sqrt(2), sigma_r / 2)
            radius = rank_stability_radius(f, C2, eps, COMPLEX_EXACT)
            for _ in range(100):
                g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                g /= np.linalg.norm(g)
                x = tuple(radius * rng.random() ** 0.25 * g)
                sx = singular_values(jacobian_at(f, x))
                assert sum(1 for s in sx if s > eps) == 2


def _far_trace():
    """A run whose gate fails at k=0: ||(1 + x, y)|| = 1 at the origin."""
    eqs = (
        TruncatedSeries(C2, 1, {(0, 0): 1.0, (1, 0): 1.0}),
        TruncatedSeries(C2, 1, {(0, 1): 1.0}),
    )
    return deflation_sequence(AnalyticSystem(2, eqs, C2, 1.0), C2, COMPLEX_EXACT)


def _unpivoted_trace():
    trace = deflation_sequence(linear_golden_system(), C2, COMPLEX_EXACT)
    return dataclasses.replace(trace, mu_values=())


def _doubled_system():
    f = linear_golden_system()
    return f.with_equations(f.equations * 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: point_quantities(_doubled_system(), C2, COMPLEX_EXACT),
            CertificateUnavailableError,
            "point quantities need a square system; got 4 equations in dimension 2",
            id="non-square",
        ),
        pytest.param(
            lambda: deflated_gamma_bound(_far_trace(), C2, COMPLEX_EXACT),
            CertificateUnavailableError, "trace is incomplete (no deflated system)",
            id="no-deflated-system",
        ),
        pytest.param(
            lambda: deflated_gamma_bound(_unpivoted_trace(), C2, COMPLEX_EXACT),
            CertificateUnavailableError, "trace carries no pivot-block data", id="no-pivot-data",
        ),
        pytest.param(
            lambda: rank_stability_radius(linear_golden_system(), C2, -0.1, COMPLEX_EXACT),
            DomainError, "epsilon must be nonnegative", id="epsilon",
        ),
        pytest.param(
            lambda: rank_stability_radius(
                AnalyticSystem(2, (TruncatedSeries(C2, 2, {(2, 0): 1.0, (0, 2): 1.0}),), C2, 1.0),
                C2, 0.1, COMPLEX_EXACT,
            ),
            DomainError, "Jacobian vanishes at zeta; no nonzero singular value",
            id="zero-jacobian",
        ),
    ],
)
def test_input_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
