import collections
import math
import re
import warnings

import numpy as np
import pytest

from multiroot import bergman
from multiroot.bergman import (
    APPENDIX_SLICE,
    COMPLEX_EXACT,
    BallContext,
    derivative_bound,
    gamma_bar_bound,
    kappa,
    lambda_bound,
    norm_a2,
    nu,
    series_norm_a2,
)
from multiroot.certificates import singular_alpha_certificate
from multiroot.cli import parse_system
from multiroot.deflation import deflation_sequence, newton_iterate, truncated_deflation
from multiroot.errors import DomainError, StructuralError
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    jacobian_at,
    ts_derivative,
    ts_evaluate,
)

from conftest import (
    FIXTURES,
    interior_point,
    monte_carlo_norm_complex,
    random_polynomial,
    random_system,
    scaled,
)
from test_batched import _load_gen

GEN = _load_gen()
C2 = (0.0, 0.0)
BALL = BallContext(C2, 1.0, 2)


def const_system(value=1.0, n=2, radius=1.0):
    one = TruncatedSeries((0.0,) * n, 0, {(0,) * n: value})
    return AnalyticSystem(n, (one,), (0.0,) * n, radius)


class TestNu:
    def test_center(self):
        assert nu(C2, BALL) == 0.0

    def test_worked_example_point(self):
        assert nu((-0.0005, 0.0006), BALL) == pytest.approx(7.8102e-4, rel=1e-4)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            nu((1.0, 0.0), BALL)


class TestKappa:
    def test_unit_ball_center(self):
        assert kappa(C2, BALL) == 3.0

    def test_clamps_at_one(self):
        assert kappa(C2, BallContext(C2, 3.0, 2)) == 1.0

    def test_worked_example_point(self):
        assert kappa((-0.0005, 0.0006), BALL) == pytest.approx(3.0000, rel=1e-4)


class TestNormA2:
    def test_worked_example_system_norms(self, gy2_selected, gy2_trace):
        selected, _records, _point, backend = gy2_selected
        assert backend == APPENDIX_SLICE
        assert norm_a2(selected, backend) == pytest.approx(2.4045, rel=1e-3)
        trace, _point, _backend = gy2_trace
        kerneled = trace.steps[1].system
        assert norm_a2(kerneled, backend) == pytest.approx(3.9048, rel=1e-3)

    def test_constant_complex_exact(self):
        assert norm_a2(const_system(), COMPLEX_EXACT) == pytest.approx(1.0)

    def test_monomial_weight_beyond_float_factorials(self):
        # 171! outgrows a float, but the weight 2! 171! / 173! does not: it
        # is the exact ratio, correctly rounded.
        assert bergman._monomial_weight((171, 0), 2, 1.0) == 2 / (172 * 173)

    def test_constant_appendix_slice(self):
        got = norm_a2(const_system(), APPENDIX_SLICE)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-9)

    def test_monomial_formula_against_monte_carlo(self):
        # the anti-hallucination gate for the closed-form monomial norm
        rng = np.random.default_rng(7)
        for seed in range(2):
            f = random_polynomial(rng, 2, 3)
            exact = series_norm_a2(f, BALL, COMPLEX_EXACT)
            mc = monte_carlo_norm_complex(f, BALL, samples=400_000, seed=seed)
            assert abs(exact - mc) / exact < 1e-2

    def test_complex_norm_monotone_under_new_monomial(self):
        f = TruncatedSeries(C2, 3, {(1, 0): 1.0, (0, 2): 2.0})
        base = series_norm_a2(f, BALL, COMPLEX_EXACT)
        g = TruncatedSeries(C2, 3, dict(f.coefficients) | {(2, 1): 0.5})
        grown = series_norm_a2(g, BALL, COMPLEX_EXACT)
        extra = series_norm_a2(
            TruncatedSeries(C2, 3, {(2, 1): 0.5}), BALL, COMPLEX_EXACT
        )
        assert grown > base
        assert grown**2 == pytest.approx(base**2 + extra**2, rel=1e-12)

    def test_recenter_invariance(self):
        # norm is a property of the function, not of the expansion point
        rng = np.random.default_rng(13)
        f = random_polynomial(rng, 2, 3)
        from multiroot.series import ts_recenter

        shifted = ts_recenter(f, (0.2, -0.1), 3)
        for backend in (COMPLEX_EXACT, APPENDIX_SLICE):
            a = series_norm_a2(f, BALL, backend)
            b = series_norm_a2(shifted, BALL, backend)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
    @pytest.mark.parametrize("center", [C2, (0.3, -0.2)])
    def test_series_with_no_terms(self, backend, center):
        assert series_norm_a2(TruncatedSeries(center, 2, {}), BALL, backend) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_appendix_slice_against_quadrature(self, n):
        # the closed-form real-ball moments against a tensor quadrature that
        # is exact for these degrees and never recenters the series
        rng = np.random.default_rng(100 + n)
        for radius in (0.6, 1.7):
            center = tuple(rng.uniform(-0.5, 0.5, n))
            omega = tuple(rng.uniform(-0.3, 0.3, n) + 1j * rng.uniform(-0.3, 0.3, n))
            ball = BallContext(omega, radius, n)
            f = random_polynomial(rng, n, 3, center=center)
            want = real_slice_norm_by_quadrature(f, ball)
            got = series_norm_a2(f, ball, APPENDIX_SLICE)
            assert abs(got - want) <= 1e-12 * want


def _poly_values(f: TruncatedSeries, z: np.ndarray) -> np.ndarray:
    dz = z - np.array(f.center, dtype=complex)
    vals = np.zeros(len(z), dtype=complex)
    for alpha, c in f.coefficients.items():
        vals += c * np.prod(dz**np.array(alpha), axis=1)
    return vals


def real_slice_norm_by_quadrature(f: TruncatedSeries, ball: BallContext) -> float:
    """Gauss-Legendre in r (and in cos(phi) for n = 3) times a uniform rule in
    theta; exact while |f|^2 r^(n-1) has degree below 2 * nodes."""
    n, radius = ball.dim, ball.radius
    nodes = 12
    t, wt = np.polynomial.legendre.leggauss(nodes)
    r, wr = radius * (t + 1) / 2, radius * wt / 2
    theta = 2 * np.pi * np.arange(2 * nodes) / (2 * nodes)
    wtheta = np.full(theta.shape, 2 * np.pi / (2 * nodes))
    if n == 2:
        rr, th = (a.ravel() for a in np.meshgrid(r, theta, indexing="ij"))
        w = np.outer(wr * r, wtheta).ravel()
        x = np.stack([rr * np.cos(th), rr * np.sin(th)], axis=1)
    elif n == 3:
        rr, cp, th = (a.ravel() for a in np.meshgrid(r, t, theta, indexing="ij"))
        w = np.einsum("i,j,k->ijk", wr * r**2, wt, wtheta).ravel()
        sp = np.sqrt(1 - cp**2)
        x = np.stack([rr * sp * np.cos(th), rr * sp * np.sin(th), rr * cp], axis=1)
    else:
        raise ValueError("oracle covers n = 2 and n = 3")
    z = x + np.array(ball.omega, dtype=complex)
    integral = float(np.sum(w * np.abs(_poly_values(f, z)) ** 2))
    return math.sqrt(math.factorial(n) / math.pi**n / radius ** (2 * n) * integral)


class TestLambdaBound:
    def test_at_center_equals_norm(self, gy2_selected):
        selected, _r, point, backend = gy2_selected
        assert lambda_bound(selected, point, backend) == pytest.approx(
            norm_a2(selected, backend), rel=1e-9
        )
        assert lambda_bound(selected, point, backend) == pytest.approx(2.4045, rel=1e-3)

    def test_homogeneity(self):
        rng = np.random.default_rng(19)
        f = random_system(rng)
        doubled = f.with_equations(scaled(eq, 2.0) for eq in f.equations)
        x = (0.1, 0.2)
        assert lambda_bound(doubled, x, COMPLEX_EXACT) == pytest.approx(
            2.0 * lambda_bound(f, x, COMPLEX_EXACT), rel=1e-12
        )


class TestDerivativeBound:
    def test_k0_is_lambda(self):
        rng = np.random.default_rng(37)
        f = random_system(rng)
        x = (0.3, -0.1)
        assert derivative_bound(f, x, 0, COMPLEX_EXACT) == pytest.approx(
            lambda_bound(f, x, COMPLEX_EXACT)
        )

    def test_k1_dominates_jacobian_norm(self):
        rng = np.random.default_rng(41)
        f = random_system(rng)
        for _ in range(100):
            x = interior_point(rng)
            exact = np.linalg.svd(jacobian_at(f, x), compute_uv=False)[0]
            assert exact <= derivative_bound(f, x, 1, COMPLEX_EXACT) * (1 + 1e-12)

    def test_k2_worked_example(self):
        f = AnalyticSystem(
            2,
            (
                TruncatedSeries(
                    C2, 3, {(3, 0): 1 / 3, (1, 2): 1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
                ),
                TruncatedSeries(
                    C2, 3, {(2, 1): 1.0, (1, 2): -1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
                ),
            ),
            C2,
            1.0,
        )
        bound = derivative_bound(f, C2, 2, COMPLEX_EXACT)
        assert bound == pytest.approx(12.0 * norm_a2(f, COMPLEX_EXACT), rel=1e-12)
        hess = []
        for eq in f.equations:
            for i in range(2):
                for j in range(2):
                    hess.append(ts_evaluate(ts_derivative(ts_derivative(eq, i), j), C2))
        assert np.linalg.norm(hess) <= bound

    def test_monotone_in_radius_and_nu(self):
        # Nonincreasing in R holds for equations of degree <= k (the norm
        # grows at most like R^k against the explicit R^k): degree-3 terms
        # with k = 2 genuinely reverse it, so the grid sticks to degree 2.
        rng = np.random.default_rng(43)
        eqs = tuple(random_polynomial(rng, 2, 2, order=2) for _ in range(2))
        prev = None
        for radius in (1.0, 1.5, 2.0, 3.0):
            f = AnalyticSystem(2, eqs, C2, radius)
            val = derivative_bound(f, C2, 2, COMPLEX_EXACT)
            if prev is not None:
                assert val <= prev * (1 + 1e-12)
            prev = val
        f = AnalyticSystem(2, tuple(random_polynomial(rng, 2, 3) for _ in range(2)), C2, 1.0)
        prev = None
        for r in np.linspace(0.0, 0.8, 9):
            val = derivative_bound(f, (r, 0.0), 2, COMPLEX_EXACT)
            if prev is not None:
                assert val >= prev * (1 - 1e-12)
            prev = val


class TestGammaBar:
    def test_small_lambda_returns_kappa(self):
        f = AnalyticSystem(
            2, (TruncatedSeries(C2, 2, {(2, 0): 0.01}),), C2, 1.0
        )
        assert gamma_bar_bound(f, C2, COMPLEX_EXACT) == pytest.approx(3.0)

    def test_large_lambda_attained_at_k2(self):
        f = AnalyticSystem(
            2, (TruncatedSeries(C2, 2, {(2, 0): 10.0}),), C2, 1.0
        )
        lam = lambda_bound(f, C2, COMPLEX_EXACT)
        kap = kappa(C2, BALL)
        assert lam * kap > 1
        got = gamma_bar_bound(f, C2, COMPLEX_EXACT)
        # supremum of (lam * kap^k)^(1/(k-1)) over integer k >= 2
        brute = max((lam * kap**k) ** (1.0 / (k - 1)) for k in range(2, 60))
        assert got == pytest.approx(brute, rel=1e-12)
        assert got == pytest.approx(lam * kap**2, rel=1e-12)

    def test_dominates_direct_gamma_bar_for_quadratic(self):
        f = AnalyticSystem(2, (TruncatedSeries(C2, 2, {(2, 0): 1.0}),), C2, 1.0)
        # only nonzero derivative tensor is D^2 f = diag-ish with entry 2
        direct = (2.0 / math.factorial(2)) ** (1.0 / (2 - 1))
        assert direct <= gamma_bar_bound(f, C2, COMPLEX_EXACT)


class TestNormOnce:
    """A series' norm is computed once for each ball and backend, and kept
    with the series."""

    @pytest.fixture
    def computed(self, monkeypatch):
        """Counts of the norm computations by (series, center, radius,
        backend); the series are kept alive so that no id is reused."""
        counts = collections.Counter()
        seen = []
        for name in ("_series_norm_complex", "_series_norm_slice_sq"):
            def counted(f, ball, compute=getattr(bergman, name), name=name):
                seen.append(f)
                counts[id(f), ball.omega, ball.radius, name] += 1
                return compute(f, ball)

            monkeypatch.setattr(bergman, name, counted)
        return counts

    def test_once_per_certificate_and_trajectory(self, computed, tmp_path):
        paths = [FIXTURES / "gy2.json", GEN.gy2_inputs(tmp_path, 0, 1)[1]]
        paths += GEN.family_inputs(tmp_path, 802, 1)[0]
        for path in paths:
            f, x0, options = parse_system(str(path))
            backend = options["backend"]
            for run in (
                lambda: singular_alpha_certificate(f, x0, backend),
                lambda: newton_iterate(f, x0, 4, backend),
            ):
                computed.clear()
                run()
                assert computed, path.name
                assert max(computed.values()) == 1, path.name

    @staticmethod
    def spied(patch) -> list:
        """Every series whose norm is computed from now on, as (order,
        stored terms)."""
        seen = []
        for name in ("_series_norm_complex", "_series_norm_slice_sq"):
            def spy(f, ball, compute=getattr(bergman, name)):
                seen.append((f.order, list(f.coefficients.items())))
                return compute(f, ball)

            patch.setattr(bergman, name, spy)
        return seen

    def test_newton_step_one_reuses_the_deflation_norms(self, monkeypatch, tmp_path):
        """The parsed system is centered at x0 already, so Newton's step 1
        runs on it, not on a recentered copy: no norm that a deflation run
        kept with its equations is computed again."""
        paths = [FIXTURES / "gy2.json", *GEN.family_inputs(tmp_path, 802, 1)[0]]
        for path in paths:
            f, x0, options = parse_system(str(path))
            backend = options["backend"]
            deflation_sequence(f, x0, backend)
            kept = [(eq.order, list(eq.coefficients.items())) for eq in f.equations if eq._norm]
            assert kept, path.name
            with monkeypatch.context() as patch:
                seen = self.spied(patch)
                newton_iterate(f, x0, 1, backend)
            assert not [key for key in seen if key in kept], path.name

    def test_truncated_deflation_keeps_equations_within_the_order(self, monkeypatch):
        """gy2 at ell = 1: a selected equation already within the round's
        order is kept with its norm, so each of the 10 distinct series is
        normed once."""
        f, x0, options = parse_system(str(FIXTURES / "gy2.json"))
        with monkeypatch.context() as patch:
            seen = self.spied(patch)
            truncated_deflation(f, x0, 1, options["backend"])
        assert len(seen) == 10
        assert len({repr(key) for key in seen}) == 10

    def test_each_ball_and_backend_its_own(self):
        rng = np.random.default_rng(29)
        f = random_polynomial(rng, 2, 3)
        balls = [(C2, 1.0), (C2, 0.7), ((0.1, -0.2), 1.0)]
        # Every ball under both backends, twice over, on one series object.
        for omega, radius in balls * 2:
            ball = BallContext(omega, radius, 2)
            for backend in (COMPLEX_EXACT, APPENDIX_SLICE, COMPLEX_EXACT):
                fresh = TruncatedSeries(f.center, f.order, f.coefficients)
                assert series_norm_a2(f, ball, backend) == series_norm_a2(fresh, ball, backend)
                system = AnalyticSystem(2, (f,), omega, radius)
                fresh_system = AnalyticSystem(2, (fresh,), omega, radius)
                assert norm_a2(system, backend) == norm_a2(fresh_system, backend)


class TestSliceOverflow:
    """Finite input whose slice norm exceeds double precision raises
    ``OverflowError``, as the complex backend does, and numpy warns of
    nothing; a NaN coefficient keeps its NaN norm."""

    @pytest.mark.parametrize(
        "f, ball",
        [
            (TruncatedSeries(C2, 2, {(1, 0): 1e308}), BALL),
            (TruncatedSeries(C2, 2, {(2, 0): 1.0}), BallContext(C2, 1e300, 2)),
        ],
        ids=["coefficient", "radius"],
    )
    def test_overflow_raises(self, f, ball):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for backend in (COMPLEX_EXACT, APPENDIX_SLICE):
                with pytest.raises(OverflowError):
                    series_norm_a2(f, ball, backend)

    def test_nan_coefficient(self):
        f = TruncatedSeries(C2, 2, {(1, 0): math.nan, (0, 1): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(series_norm_a2(f, BALL, APPENDIX_SLICE))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: norm_a2(const_system(), "bogus"), DomainError,
            "unknown norm backend 'bogus'; expected one of ('complex_exact', 'appendix_slice')",
            id="backend",
        ),
        pytest.param(
            lambda: BallContext(C2, 0.0, 2), DomainError, "ball radius must be positive",
            id="radius-zero",
        ),
        pytest.param(
            lambda: BallContext(C2, -1.0, 2), DomainError, "ball radius must be positive",
            id="radius-negative",
        ),
        pytest.param(
            lambda: BallContext(C2, 1.0, 3), StructuralError, "ball center has wrong dimension",
            id="ball-dimension",
        ),
        pytest.param(
            lambda: nu((0.0,), BALL), StructuralError, "point has wrong dimension", id="nu"
        ),
        pytest.param(
            lambda: derivative_bound(const_system(), C2, -1, COMPLEX_EXACT), DomainError,
            "derivative order k must be nonnegative", id="derivative-order",
        ),
    ],
)
def test_input_check(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
