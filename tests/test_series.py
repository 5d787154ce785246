import re

import numpy as np
import pytest

from multiroot.deflation import _kerneling_pivots, kernel_op
from multiroot.errors import SingularPivotError, StructuralError
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    _evaluate,
    jacobian_at,
    recenter_series,
    series_close,
    ts_derivative,
    ts_evaluate,
    ts_recenter,
    ts_truncate,
)

from conftest import linear_system, random_polynomial

C2 = (0.0, 0.0)


def S(order, coeffs, center=C2):
    return TruncatedSeries(center, order, coeffs)


# The two equations of the worked example.
F1_COEFFS = {(3, 0): 1 / 3, (1, 2): 1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
F2_COEFFS = {(2, 1): 1.0, (1, 2): -1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


class TestDerivative:
    def test_worked_example_jacobian_entry(self):
        f1 = S(3, F1_COEFFS)
        d = ts_derivative(f1, 0)
        assert d.coefficients == {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0}
        assert d.order == 2

    def test_derivative_of_constant(self):
        assert ts_derivative(S(2, {(0, 0): 4.0}), 1).coefficients == {}

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(3)
        f = random_polynomial(rng, 2, 4, order=4)
        xy = ts_derivative(ts_derivative(f, 0), 1)
        yx = ts_derivative(ts_derivative(f, 1), 0)
        assert xy.coefficients.keys() == yx.coefficients.keys()
        assert all(xy.coefficient(k) == yx.coefficient(k) for k in xy.coefficients)


class TestEvaluate:
    def test_selected_equation_value(self, gy2_selected):
        selected, records, point, _ = gy2_selected
        # the y-derivative of the first input equation carries this golden value
        idx = next(
            i for i, r in enumerate(records) if r.source == 0 and r.derivative == (0, 1)
        )
        value = ts_evaluate(selected.equations[idx], point)
        assert abs(value - 0.00019940) <= 1e-3 * 0.00019940

    def test_value_at_center_is_constant(self):
        f = S(2, {(0, 0): 2.5, (1, 1): 7.0})
        assert ts_evaluate(f, C2) == 2.5

    def test_square_of_sum_at_ones(self):
        f = S(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})
        assert ts_evaluate(f, (1.0, 1.0)) == pytest.approx(4.0)


class TestRecenter:
    def test_worked_example_shift(self):
        f1 = S(3, F1_COEFFS)
        g = ts_recenter(f1, (-0.0005, 0.0006), 3)
        assert g.constant == pytest.approx(9.78e-9, rel=1e-3)
        assert g.coefficient((1, 0)) == pytest.approx(2.0061e-4, rel=1e-3)

    def test_same_center_is_identity(self):
        f = S(3, F1_COEFFS)
        g = ts_recenter(f, C2, 3)
        assert g.coefficients == f.coefficients

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_polynomial(rng, 2, 3)
            p = tuple(rng.standard_normal(2))
            back = ts_recenter(ts_recenter(f, p, 3), C2, 3)
            scale = 1.0 + max(abs(v) for v in f.coefficients.values())
            keys = set(back.coefficients) | set(f.coefficients)
            assert all(
                abs(back.coefficient(k) - f.coefficient(k)) <= 1e-12 * scale
                for k in keys
            )

    def test_exactness_via_evaluation(self):
        rng = np.random.default_rng(17)
        for coeffs in (F1_COEFFS, F2_COEFFS):
            f = S(3, coeffs)
            for _ in range(5):
                p = tuple(0.4 * rng.standard_normal(2))
                g = ts_recenter(f, p, 3)
                z = tuple(0.4 * rng.standard_normal(2))
                assert ts_evaluate(g, z) == pytest.approx(
                    ts_evaluate(f, z), rel=1e-12, abs=1e-12
                )

    def test_order_increase_rejected(self):
        with pytest.raises(StructuralError):
            ts_recenter(S(2, {}), (1.0, 1.0), 3)


class TestJacobian:
    def test_linear_system_constant_matrix(self):
        f = AnalyticSystem(
            2,
            (S(1, {(1, 0): 2.0, (0, 1): -1.0}), S(1, {(0, 1): 3.0})),
            C2,
            1.0,
        )
        j = jacobian_at(f, (0.3, -0.2))
        assert np.allclose(j, np.array([[2.0, -1.0], [0.0, 3.0]]))

    def test_against_central_differences(self):
        rng = np.random.default_rng(29)
        f = AnalyticSystem(
            2,
            tuple(random_polynomial(rng, 2, 3, real=True) for _ in range(2)),
            C2,
            1.0,
        )
        x = (0.21, -0.13)
        h = 1e-7
        jac = jacobian_at(f, x)
        for i, eq in enumerate(f.equations):
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd = (
                    ts_evaluate(eq, tuple(np.array(x) + e))
                    - ts_evaluate(eq, tuple(np.array(x) - e))
                ) / (2 * h)
                assert abs(fd - jac[i, j]) <= 1e-6 * (1.0 + abs(jac[i, j]))


class TestSchurComplement:
    """The Schur complement that the kerneling operator K appends."""

    def exact_f0(self):
        # Stored at order 3, so K keeps the order-2 complement.
        return AnalyticSystem(
            2,
            (
                S(3, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(3, {(1, 1): 2.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(3, {(1, 1): 2.0, (0, 2): -1.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(3, {(2, 0): 1.0, (1, 1): -2.0, (1, 0): 2.0, (0, 1): 2.0}),
            ),
            C2,
            1.0,
        )

    def test_worked_example_order2(self):
        # Degree-2 expansions of (2/(x+1)) * (2x-2y+x^2-y^2, 2x-3y+x^2-xy-y^2,
        # -x-x^2-xy+y^2), the displayed Schur complement of the example.
        schur = kernel_op(self.exact_f0(), ((0,), (0,))).equations[1:]
        expected = [
            {(1, 0): 4.0, (0, 1): -4.0, (2, 0): -2.0, (1, 1): 4.0, (0, 2): -2.0},
            {(1, 0): 4.0, (0, 1): -6.0, (2, 0): -2.0, (1, 1): 4.0, (0, 2): -2.0},
            {(1, 0): -2.0, (1, 1): -2.0, (0, 2): 2.0},
        ]
        assert len(schur) == 3
        for entry, exp in zip(schur, expected):
            assert entry.order == 2
            keys = set(entry.coefficients) | set(exp)
            assert all(
                abs(entry.coefficient(k) - exp.get(k, 0.0)) <= 1e-12 for k in keys
            )

    def test_rank_r_constant_matrix_gives_zero(self):
        # f_i = sum_j m_ij x_j has the constant Jacobian m of rank r.
        rng = np.random.default_rng(31)
        for s, n, r in [(4, 3, 1), (5, 4, 2), (6, 5, 3)]:
            m = (rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))) @ (
                rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            )
            f = linear_system(m)
            rows, cols, _smin = _kerneling_pivots(m, np.zeros(s), r, np.linalg.norm(m, 2))
            schur = kernel_op(f, (rows, cols)).equations[r:]
            assert len(schur) == (s - r) * (n - r)
            scale = np.abs(m).max()
            assert all(
                abs(c) <= 1e-12 * scale
                for e in schur
                for c in e.coefficients.values()
            )

    def test_many_variables_at_high_order(self):
        # In 20 variables the data reaches 25 of the ~3.1e6 exponents of degree <= 8.  With
        # f1 = x0 + x0^2/2 + x1 x19 and f2 = x0 the pivot is A = 1 + x0, and
        # the complement is -x19 / (1 + x0) = -sum_k (-x0)^k x19 in column 1
        # and -x1 / (1 + x0) in column 19, truncated at degree 8.
        n, order = 20, 8
        zero = (0,) * n
        unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        x0x0 = (2,) + (0,) * (n - 1)
        x1x19 = tuple(int(i in (1, n - 1)) for i in range(n))
        f = AnalyticSystem(
            n,
            (
                TruncatedSeries(zero, order + 1, {unit[0]: 1.0, x0x0: 0.5, x1x19: 1.0}),
                TruncatedSeries(zero, order + 1, {unit[0]: 1.0}),
            ),
            zero,
            1.0,
        )
        schur = kernel_op(f, ((0,), (0,))).equations[1:]
        assert len(schur) == n - 1
        want_1 = {(k,) + (0,) * (n - 2) + (1,): -((-1.0) ** k) for k in range(order)}
        want_19 = {(k, 1) + (0,) * (n - 2): -((-1.0) ** k) for k in range(order)}
        assert schur[0].coefficients == want_1
        assert schur[-1].coefficients == want_19
        assert all(not e.coefficients for e in schur[1:-1])

    def test_entry_terms_run_by_degree_then_last_variable_first(self):
        # Every later norm and evaluation sums a Schur entry's terms in the
        # order it stores them, so rounding, and with it a pivot choice, can
        # depend on that order: by degree, then by the exponent of the last
        # variable, then of the one before.
        zero = (0.0,) * 3
        f1 = TruncatedSeries(
            zero, 3, {(1, 0, 0): 1.0, (1, 1, 0): 1.0, (1, 0, 1): 2.0, (0, 1, 1): 1.0,
                      (2, 0, 1): 1.0},
        )
        f2 = TruncatedSeries(
            zero, 3, {(1, 0, 0): 1.0, (1, 1, 0): 3.0, (0, 1, 1): 1.0, (0, 2, 0): 1.0,
                      (0, 0, 2): 1.0, (2, 0, 0): 1.0, (0, 1, 2): 1.0},
        )
        schur = kernel_op(AnalyticSystem(3, (f1, f2), zero, 1.0), ((0,), (0,))).equations[1:]
        assert [list(entry.coefficients) for entry in schur] == [
            [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2)],
            [(1, 0, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1)],
        ]

    def test_singular_pivot_rejected(self):
        f = AnalyticSystem(2, (S(1, {(1, 0): 1.0}), S(1, {(0, 1): 1.0})), C2, 1.0)
        # The Jacobian is [[1, 0], [0, 1]]: the pivot entry (0, 1) is 0.
        with pytest.raises(SingularPivotError):
            kernel_op(f, ((0,), (1,)))


class TestSeriesClose:
    """Series in other frames are never close, whatever their coefficients."""

    def test_other_center(self):
        a = S(2, {(1, 0): 1.0})
        assert series_close(a, S(2, {(1, 0): 1.0}), scale=2.0)
        assert not series_close(a, S(2, {(1, 0): 1.0}, center=(0.5, 0.0)), scale=2.0)

    def test_other_dimension(self):
        # Two zero series: equal term by term, but in 1 and 2 variables.
        assert not series_close(TruncatedSeries((0.0,), 2), S(2, {}), scale=1.0)


class TestAnalyticSystem:
    def test_center_outside_ball_rejected(self):
        with pytest.raises(StructuralError):
            AnalyticSystem(2, (S(1, {}, center=(5.0, 0.0)),), C2, 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(StructuralError):
            AnalyticSystem(2, (S(1, {}),), C2, 0.0)


X = S(2, {(1, 0): 1.0})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: S(-1, {}), "series order must be nonnegative", id="order"),
        pytest.param(
            lambda: S(2, {(1, 0, 0): 1.0}), "exponent (1, 0, 0) has length 3, expected 2",
            id="exponent-length",
        ),
        pytest.param(
            lambda: S(2, {(-1, 1): 1.0}), "negative exponent in (-1, 1)", id="exponent-sign"
        ),
        pytest.param(lambda: S(1, {(1, 1): 1.0}), "term of degree 2 exceeds order 1", id="degree"),
        pytest.param(lambda: ts_truncate(X, -1), "series order must be nonnegative", id="truncate"),
        pytest.param(
            lambda: ts_derivative(X, 2), "variable index 2 out of range for n=2", id="derivative"
        ),
        pytest.param(
            lambda: _evaluate((X,), np.zeros((1, 3))), "points have shape (1, 3), expected (k, 2)",
            id="evaluate-points",
        ),
        pytest.param(
            lambda: recenter_series((X,), (0.1, 0.1), (-1,)), "series order must be nonnegative",
            id="recenter-order",
        ),
        pytest.param(
            lambda: recenter_series((X,), (0.1,), (1,)), "new center has wrong dimension",
            id="recenter-center",
        ),
        pytest.param(
            lambda: AnalyticSystem(2, (X,), (0.0,), 1.0), "ball center has wrong dimension",
            id="system-ball",
        ),
        pytest.param(
            lambda: AnalyticSystem(2, (), C2, 1.0), "a system needs at least one equation",
            id="system-empty",
        ),
        pytest.param(
            lambda: AnalyticSystem(2, (X, S(1, {}, center=(0.0, 0.0, 0.0))), C2, 1.0),
            "equation dimension disagrees with system", id="system-dimension",
        ),
        pytest.param(
            lambda: AnalyticSystem(2, (X, S(1, {}, center=(0.1, 0.0))), C2, 1.0),
            "equations disagree on center", id="system-centers",
        ),
    ],
)
def test_input_check(call, message):
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        call()
