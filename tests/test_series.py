import numpy as np
import pytest

from multiroot.errors import SingularPivotError, StructuralError
from multiroot.series import (
    AnalyticSystem,
    SeriesMatrix,
    TruncatedSeries,
    jacobian,
    schur_complement,
    ts_add,
    ts_derivative,
    ts_evaluate,
    ts_mul,
    ts_recenter,
    ts_truncate,
)

from conftest import random_polynomial

C2 = (0.0, 0.0)


def S(order, coeffs, center=C2):
    return TruncatedSeries(center, order, coeffs)


# The two equations of the worked example.
F1_COEFFS = {(3, 0): 1 / 3, (1, 2): 1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
F2_COEFFS = {(2, 1): 1.0, (1, 2): -1.0, (2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


class TestAdd:
    def test_linearity(self):
        a = S(1, {(0, 0): 1.0, (1, 0): 1.0})
        b = S(1, {(0, 0): 2.0, (0, 1): 1.0})
        out = ts_add(a, b)
        assert out.coefficients == {(0, 0): 3.0, (1, 0): 1.0, (0, 1): 1.0}

    def test_identity(self):
        f = S(2, {(1, 1): 2.5, (0, 0): -1.0})
        zero = S(2, {})
        assert ts_add(f, zero).coefficients == f.coefficients

    def test_cancellation(self):
        f = S(2, {(2, 0): 1.0})
        out = ts_add(f, S(2, {(2, 0): -1.0}))
        assert out.coefficients == {}

    def test_order_is_min(self):
        out = ts_add(S(3, {(3, 0): 1.0}), S(1, {(1, 0): 1.0}))
        assert out.order == 1
        assert (3, 0) not in out.coefficients

    def test_center_mismatch(self):
        with pytest.raises(StructuralError):
            ts_add(S(1, {}), S(1, {}, center=(1.0, 0.0)))

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            ts_add(S(1, {}), TruncatedSeries((0.0,), 1, {}))


class TestMul:
    def test_one_minus_x_squared(self):
        a = ts_truncate(S(1, {(0, 0): 1.0, (1, 0): 1.0}), 2)
        b = ts_truncate(S(1, {(0, 0): 1.0, (1, 0): -1.0}), 2)
        assert ts_mul(a, b).coefficients == {(0, 0): 1.0, (2, 0): -1.0}

    def test_truncation_kills_xy(self):
        x = S(1, {(1, 0): 1.0})
        y = S(1, {(0, 1): 1.0})
        assert ts_mul(x, y).coefficients == {}

    def test_square_of_sum(self):
        f = ts_truncate(S(1, {(1, 0): 1.0, (0, 1): 1.0}), 2)
        out = ts_mul(f, f)
        assert out.coefficients == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


class TestRingAxioms:
    def test_axioms_on_random_series(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_polynomial(rng, 2, 3)
            b = random_polynomial(rng, 2, 3)
            c = random_polynomial(rng, 2, 3)
            scale = 1.0 + max(
                max(abs(v) for v in s.coefficients.values()) for s in (a, b, c)
            ) ** 3
            for lhs, rhs in [
                (ts_mul(ts_mul(a, b), c), ts_mul(a, ts_mul(b, c))),
                (ts_mul(a, b), ts_mul(b, a)),
                (ts_mul(a, ts_add(b, c)), ts_add(ts_mul(a, b), ts_mul(a, c))),
                (ts_add(a, b), ts_add(b, a)),
            ]:
                keys = set(lhs.coefficients) | set(rhs.coefficients)
                err = max(
                    abs(lhs.coefficient(k) - rhs.coefficient(k)) for k in keys
                )
                assert err <= 1e-12 * scale


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
        f = ts_mul(
            ts_truncate(S(1, {(1, 0): 1.0, (0, 1): 1.0}), 2),
            ts_truncate(S(1, {(1, 0): 1.0, (0, 1): 1.0}), 2),
        )
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
    def test_worked_example(self):
        f = AnalyticSystem(2, (S(3, F1_COEFFS), S(3, F2_COEFFS)), C2, 1.0)
        jac = jacobian(f)
        assert (jac.rows, jac.cols) == (2, 2)
        assert jac.entry(0, 0).coefficients == {
            (2, 0): 1.0,
            (0, 2): 1.0,
            (1, 0): 2.0,
            (0, 1): 2.0,
        }

    def test_linear_system_constant_matrix(self):
        f = AnalyticSystem(
            2,
            (S(1, {(1, 0): 2.0, (0, 1): -1.0}), S(1, {(0, 1): 3.0})),
            C2,
            1.0,
        )
        j = jacobian(f).eval_at((0.3, -0.2))
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
        jac = jacobian(f).eval_at(x)
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
    def exact_f0(self):
        return AnalyticSystem(
            2,
            (
                S(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(2, {(1, 1): 2.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(2, {(1, 1): 2.0, (0, 2): -1.0, (1, 0): 2.0, (0, 1): 2.0}),
                S(2, {(2, 0): 1.0, (1, 1): -2.0, (1, 0): 2.0, (0, 1): 2.0}),
            ),
            C2,
            1.0,
        )

    def test_worked_example_order2(self):
        # Degree-2 expansions of (2/(x+1)) * (2x-2y+x^2-y^2, 2x-3y+x^2-xy-y^2,
        # -x-x^2-xy+y^2), the displayed Schur complement of the example.
        jac = jacobian(self.exact_f0())
        schur = schur_complement(jac, [0], [0], order=2)
        expected = [
            {(1, 0): 4.0, (0, 1): -4.0, (2, 0): -2.0, (1, 1): 4.0, (0, 2): -2.0},
            {(1, 0): 4.0, (0, 1): -6.0, (2, 0): -2.0, (1, 1): 4.0, (0, 2): -2.0},
            {(1, 0): -2.0, (1, 1): -2.0, (0, 2): 2.0},
        ]
        assert (schur.rows, schur.cols) == (3, 1)
        for entry, exp in zip(schur.entries, expected):
            keys = set(entry.coefficients) | set(exp)
            assert all(
                abs(entry.coefficient(k) - exp.get(k, 0.0)) <= 1e-12 for k in keys
            )

    def test_full_size_pivot_is_empty(self):
        f = AnalyticSystem(2, (S(1, {(1, 0): 1.0}), S(1, {(0, 1): 1.0})), C2, 1.0)
        schur = schur_complement(jacobian(f), [0, 1], [0, 1], order=1)
        assert (schur.rows, schur.cols) == (0, 0)

    def test_rank_r_constant_matrix_gives_zero(self):
        rng = np.random.default_rng(31)
        for s, n, r in [(4, 3, 1), (5, 4, 2), (6, 5, 3)]:
            m = (rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))) @ (
                rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            )
            entries = tuple(
                TruncatedSeries((0.0,) * n, 1, {(0,) * n: m[i, j]})
                for i in range(s)
                for j in range(n)
            )
            mat = SeriesMatrix(s, n, entries)
            # pick a nonsingular pivot block from the factorization structure
            from multiroot.deflation import pivot_selection

            rows, cols = pivot_selection(m, r)
            schur = schur_complement(mat, rows, cols, order=1)
            scale = np.abs(m).max()
            assert all(
                abs(c) <= 1e-12 * scale
                for e in schur.entries
                for c in e.coefficients.values()
            )

    def test_many_variables_at_high_order(self):
        # In 20 variables at order 8 the exponent codes outgrow int64.  With
        # A = 1 + x0, B = x19, C = 1 and D = 0 the complement is
        # -x19 / (1 + x0) = -sum_k (-x0)^k x19, truncated at degree 8.
        n, order = 20, 8
        zero = (0,) * n
        x0, x19 = (tuple(int(i == k) for i in range(n)) for k in (0, n - 1))
        entries = (
            TruncatedSeries(zero, order, {zero: 1.0, x0: 1.0}),
            TruncatedSeries(zero, order, {x19: 1.0}),
            TruncatedSeries(zero, order, {zero: 1.0}),
            TruncatedSeries(zero, order, {}),
        )
        schur = schur_complement(SeriesMatrix(2, 2, entries), [0], [0], order)
        assert (schur.rows, schur.cols) == (1, 1)
        want = {(k,) + (0,) * (n - 2) + (1,): -((-1.0) ** k) for k in range(order)}
        assert schur.entry(0, 0).coefficients == want

    def test_singular_pivot_rejected(self):
        f = AnalyticSystem(2, (S(1, {(1, 0): 1.0}), S(1, {(0, 1): 1.0})), C2, 1.0)
        jac = jacobian(f)  # [[1,0],[0,1]]
        with pytest.raises(SingularPivotError):
            schur_complement(jac, [0], [1], order=1)  # pivot entry is 0


class TestAnalyticSystem:
    def test_center_outside_ball_rejected(self):
        with pytest.raises(StructuralError):
            AnalyticSystem(2, (S(1, {}, center=(5.0, 0.0)),), C2, 1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(StructuralError):
            AnalyticSystem(2, (S(1, {}),), C2, 0.0)
