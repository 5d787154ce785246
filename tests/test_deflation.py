import gc
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from multiroot import deflation
from multiroot.bergman import COMPLEX_EXACT, BallContext
from multiroot.certificates import singular_alpha_certificate
from multiroot.cli import parse_system
from multiroot.deflation import (
    _EXTRACT_BRUTE_LIMIT,
    _PIVOT_BRUTE_LIMIT,
    _kerneling_pivots,
    _pivot_residuals,
    _subsets,
    ALPHA0,
    deflation_sequence,
    eta_threshold,
    extract_square,
    is_small,
    kernel_op,
    newton_iterate,
    select_detailed,
    singular_newton_step,
    truncated_deflation,
)
from multiroot.errors import (
    DomainError,
    ExtractionError,
    HypothesisFailure,
    RankDeficiencyError,
    SingularPivotError,
    TruncationExhaustedError,
)
from multiroot.rank import numerical_rank, singular_values
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    jacobian_at,
    recenter_series,
    recenter_system,
    system_evaluate,
    ts_derivative,
    ts_recenter,
)

from conftest import (
    DEFLATED_GOLDEN,
    KERNELED_GOLDEN,
    OJIKA1,
    REPO,
    SELECTED_GOLDEN,
    assert_system_multiset,
    gy2_at,
    kss,
    linear_system,
    ojika1,
    recentered,
)
from test_batched import _load_gen

C2 = (0.0, 0.0)
C3 = (0.0, 0.0, 0.0)
GEN = _load_gen()

# 12 x 6 of rank 3: more candidate pivot blocks than the search cap.
_rng = np.random.default_rng(17)
PAST_PIVOT_CAP = _rng.standard_normal((12, 3)) @ _rng.standard_normal((3, 6))
# 101 x 2 of full rank: more candidate equation subsets than the search cap.
PAST_EXTRACT_CAP = np.array([
    [1.0 + 0.01 * k, 0.02 * k] if k % 2 else [-0.02 * k, 1.0 + 0.01 * k]
    for k in range(101)
])


def regular_system(point=(0.4995, 0.5005)):
    """(x + y - 1, x - y) near its simple root (1/2, 1/2)."""
    eqs = (
        TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),
        TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): -1.0}),
    )
    f = AnalyticSystem(2, eqs, (0.0, 0.0), 2.0)
    return f, point


def small_regular_system():
    """{0.03x, 0.03y}: a regular root at the origin, read as rank 0."""
    eqs = (TruncatedSeries(C2, 1, {(1, 0): 0.03}), TruncatedSeries(C2, 1, {(0, 1): 0.03}))
    return AnalyticSystem(2, eqs, C2, 1.0), C2


def three_directions_system():
    """Three linear equations 0.05 (cos t, sin t) . x at t = 0, 120 and 240
    degrees.  Their Jacobian at the origin has sigma = (0.0612, 0.0612) and
    reads full rank, but every pair has sigma_1 + sigma_2 = 0.0966 < 1/9 and
    reads rank 0, so no square subsystem can be extracted."""
    eqs = tuple(
        TruncatedSeries(
            C2, 1, {(1, 0): 0.05 * math.cos(2 * math.pi * k / 3),
                    (0, 1): 0.05 * math.sin(2 * math.pi * k / 3)},
        )
        for k in range(3)
    )
    return AnalyticSystem(2, eqs, C2, 1.0), C2


# KSS-4 iterate 1 of TestKSS.test_newton_stops_where_no_pivot_block_exists:
# the a-test reads rank 3 there, and no 3x3 pivot block clears the floor.
KSS4_NO_PIVOT_START = (
    0.9999999655786284, 0.9999994243013337, 1.0000009836721946, 0.9999994883739469
)


def kss4_no_pivot_system():
    x1 = singular_newton_step(kss(4, KSS4_NO_PIVOT_START), KSS4_NO_PIVOT_START, COMPLEX_EXACT)
    return kss(4, x1), x1


class TestConstants:
    def test_alpha0_is_first_positive_root(self):
        u = ALPHA0
        assert abs((1 - 4 * u + 2 * u**2) ** 2 - 2 * u) < 1e-12
        assert u == pytest.approx(0.1307169444, abs=1e-10)

    def test_alpha0_just_below_the_root(self):
        # p(u) = 4u^4 - 16u^3 + 20u^2 - 10u + 1 and its derivatives, in
        # exact rationals.
        def p(u):
            return 4 * u**4 - 16 * u**3 + 20 * u**2 - 10 * u + 1

        def dp(u):
            return 16 * u**3 - 48 * u**2 + 40 * u - 10

        def d2p(u):
            return 48 * u**2 - 96 * u + 40

        a = Fraction(ALPHA0)
        # p''' = 96(u - 1) < 0 on [0, a], so p'' >= p''(a) > 0 there: p'
        # rises from p'(0) = -10 to p'(a) < 0, and p falls to p(a) > 0.
        assert d2p(a) > 0
        assert dp(0) == -10 and -5.56 < dp(a) < -5.55
        assert p(a) > 0
        # The root lies between the 2nd and the 3rd double above ALPHA0.
        second = np.nextafter(np.nextafter(ALPHA0, 1.0), 1.0)
        third = np.nextafter(second, 1.0)
        assert p(Fraction(float(second))) > 0 > p(Fraction(float(third)))


class TestEtaThreshold:
    def test_worked_example_f0(self):
        assert eta_threshold(2.4045, 2, 1.0) == pytest.approx(0.0063992, rel=1e-3)

    def test_worked_example_f1(self):
        assert eta_threshold(3.9048, 2, 1.0) == pytest.approx(0.0044418, rel=1e-3)

    def test_zero_norm(self):
        assert eta_threshold(0.0, 2, 1.0) == pytest.approx(2 * ALPHA0 / 12, rel=1e-12)
        assert eta_threshold(0.0, 2, 1.0) == pytest.approx(0.021786, rel=1e-4)

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            eta_threshold(1.0, 1, 1.0)


class TestIsSmall:
    def test_f0_gate_passes(self, gy2_selected):
        selected, _r, point, backend = gy2_selected
        gate = is_small(selected, point, BallContext.of(selected), backend)
        assert gate.passed
        assert gate.value_norm == pytest.approx(2.8174e-4, rel=1e-3)
        assert gate.eta == pytest.approx(0.0063992, rel=1e-3)

    def test_f1_gate_passes(self, gy2_trace):
        trace, point, backend = gy2_trace
        gate = trace.steps[1].gate
        assert gate.passed
        assert gate.value_norm == pytest.approx(1.2165e-3, rel=1e-3)
        assert gate.eta == pytest.approx(0.0044418, rel=1e-3)

    def test_second_derivative_fails(self, gy2):
        system, point, backend = gy2
        # d2/dy2 of the first recentered equation: 1.9990 + 2x
        eq = ts_derivative(ts_derivative(system.equations[0], 1), 1)
        ball = BallContext.of(system)
        gate = is_small(eq, point, ball, backend)
        assert not gate.passed
        assert gate.value_norm == pytest.approx(1.9990, rel=1e-3)
        # independent oracle: disk integral of (a + b x)^2 in closed form
        a, b = 1.9990, 2.0
        norm = math.sqrt((2 / math.pi) * (a**2 + b**2 / 4.0))
        eta = 2 * ALPHA0 / (12 * (1 + norm))
        assert gate.eta == pytest.approx(eta, rel=1e-3)


class TestSelect:
    def test_worked_example_retains_four_gradients(self, gy2_selected):
        selected, records, _point, _backend = gy2_selected
        assert_system_multiset(selected, SELECTED_GOLDEN)
        assert sorted((r.source, r.derivative) for r in records) == [
            (0, (0, 1)),
            (0, (1, 0)),
            (1, (0, 1)),
            (1, (1, 0)),
        ]

    def test_non_small_system_unchanged(self):
        # (x + 1) at the origin: the top-level gate fails immediately
        f = AnalyticSystem(
            2, (TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 0): 1.0}),), C2, 1.0
        )
        out, _records = select_detailed(f, C2, COMPLEX_EXACT)
        assert out.size == 1
        assert out.equations[0].coefficients == f.equations[0].coefficients

    def test_exact_valuation_case(self):
        # x^2 at the origin selects its gradient {2x}
        f = AnalyticSystem(2, (TruncatedSeries(C2, 2, {(2, 0): 1.0}),), C2, 1.0)
        out, records = select_detailed(f, C2, COMPLEX_EXACT)
        assert out.size == 1
        assert out.equations[0].coefficients == {(1, 0): 2.0}
        assert records[0].derivative == (1, 0)

    def test_numerically_zero_system_exhausts(self):
        f = AnalyticSystem(
            2, (TruncatedSeries(C2, 2, {(0, 0): 1e-20}),), C2, 1.0
        )
        with pytest.raises(TruncationExhaustedError):
            select_detailed(f, C2, COMPLEX_EXACT)


class TestKernelingPivots:
    def test_greedy_fallback_block_is_nonsingular(self):
        # 12 x 6 of rank 3: comb(12, 3) * comb(6, 3) = 4400 candidate blocks,
        # past the search cap.  The search reports the count; it picks no
        # block by another rule.
        j0 = PAST_PIVOT_CAP
        assert math.comb(12, 3) * math.comb(6, 3) == 4400 > _PIVOT_BRUTE_LIMIT
        with pytest.raises(RankDeficiencyError) as err:
            _kerneling_pivots(j0, np.zeros(12), 3, float(np.linalg.norm(j0, 2)))
        assert str(err.value) == (
            "4400 candidate 3x3 pivot blocks exceed the search cap of 2000"
        )

    def test_past_the_cap_the_run_reports(self):
        trace = deflation_sequence(linear_system(PAST_PIVOT_CAP), (0.0,) * 6, COMPLEX_EXACT)
        assert trace.deflated is None
        assert trace.failure == (
            "RankDeficiencyError at k=0: 4400 candidate 3x3 pivot blocks exceed "
            "the search cap of 2000"
        )
        assert trace.steps[-1].rank_report.rank == 3
        assert trace.steps[-1].pivot_rows is None

    def test_a_search_at_its_cap_runs(self, monkeypatch):
        # 3 x 2 of rank 1: comb(3, 1) * comb(2, 1) = 6 candidate blocks.
        j0 = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], dtype=complex)
        monkeypatch.setattr(deflation, "_PIVOT_BRUTE_LIMIT", 6)
        assert _kerneling_pivots(j0, np.zeros(3), 1, float(np.linalg.norm(j0, 2)))[:2] == (
            (0,), (0,)
        )
        monkeypatch.setattr(deflation, "_PIVOT_BRUTE_LIMIT", 5)
        with pytest.raises(RankDeficiencyError, match="^6 candidate 1x1 pivot blocks exceed"):
            _kerneling_pivots(j0, np.zeros(3), 1, float(np.linalg.norm(j0, 2)))

    def test_exact_tie_goes_to_the_smaller_column(self):
        # The nonsingular 1 x 1 blocks (row 0, col 1) and (row 1, col 0) tie
        # exactly: the values are zero and both leave the Schur complement
        # 1 - 0 * 0 / 1 = 1.  The smaller column wins, before the smaller row.
        j0 = np.array([[0, 1], [1, 0]], dtype=complex)
        assert _kerneling_pivots(j0, np.zeros(2, dtype=complex), 1, 1.0) == ((1,), (0,), 1.0)

    def test_pivot_taking_every_row(self):
        # s == r: a 2 x 3 Jacobian of rank 2.  Every candidate takes both
        # rows, so its Schur block is empty and its residual is ||values||.
        j0 = np.array([[1, 2, 0], [2, 4, 1]], dtype=complex)
        values = np.array([3e-7, -4e-7j])
        got = _pivot_residuals(
            j0, values, np.array([[0, 1]] * 2), np.array([[0, 2], [1, 2]]),
            np.zeros((2, 0), dtype=int), np.array([[1], [0]]),
        )
        want = np.sqrt(np.sum(np.abs(values) ** 2))
        assert np.array_equal(got.view(np.uint64), np.full(2, want).view(np.uint64))
        # Columns (0, 1) are singular; (0, 2) and (1, 2) tie and the smaller
        # columns win.
        rows, cols, sigma_min = _kerneling_pivots(j0, values, 2, float(np.linalg.norm(j0, 2)))
        assert (rows, cols) == ((0, 1), (0, 2))
        assert sigma_min == singular_values(j0[:, [0, 2]])[-1]

    def test_reversed_subsets_are_the_complements(self):
        # Pivot residuals take row i of _subsets(m, m - r)[::-1] as the
        # complement of row i of _subsets(m, r).
        for m in range(1, 11):
            for r in range(m + 1):
                others = _subsets(m, m - r)[::-1]
                assert others.shape == (math.comb(m, r), m - r)
                for chosen, rest in zip(_subsets(m, r).tolist(), others.tolist()):
                    assert rest == sorted(set(range(m)) - set(chosen))


class TestKernelOp:
    def test_worked_example(self, gy2_trace):
        trace, _point, _backend = gy2_trace
        kerneled = trace.steps[1].system
        assert_system_multiset(kerneled, KERNELED_GOLDEN)

    def test_exact_case_vanishes_at_center(self, gy2_exact):
        system, point, backend = gy2_exact
        selected, _records = select_detailed(system, point, backend)
        report = numerical_rank(jacobian_at(selected, point))
        assert report.rank == 1
        kerneled = kernel_op(selected, ((0,), (0,)))
        values = system_evaluate(kerneled, point)
        assert np.all(np.abs(values) <= 1e-12)

    def test_full_rank_rejected(self):
        f, point = regular_system()
        report = numerical_rank(jacobian_at(f, point))
        assert report.rank == 2
        with pytest.raises(DomainError):
            kernel_op(f, ((0, 1), (0, 1)))

    def test_pivot_taking_every_row_keeps_only_it(self):
        # s == r: x + y^2 alone, pivot (0, 0); the complement has no rows.
        eq = TruncatedSeries(C2, 3, {(1, 0): 1.0, (0, 2): 1.0})
        kerneled = kernel_op(AnalyticSystem(2, (eq,), C2, 1.0), ((0,), (0,)))
        [pivot_row] = kerneled.equations
        assert pivot_row.order == 2
        assert pivot_row.coefficients == eq.coefficients

    def test_two_by_two_pivot_taking_every_row(self):
        # {x + y^2 + 2yz, z + x^2 + 3xyz}, pivot rows (0, 1) and columns
        # (0, 2): the pivot rows at order 2, and no Schur entry.
        eqs = (
            TruncatedSeries(C3, 3, {(1, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 1, 1): 2.0}),
            TruncatedSeries(C3, 3, {(0, 0, 1): 1.0, (2, 0, 0): 1.0, (1, 1, 1): 3.0}),
        )
        kerneled = kernel_op(AnalyticSystem(3, eqs, C3, 1.0), ((0, 1), (0, 2)))
        assert [eq.order for eq in kerneled.equations] == [2, 2]
        assert [eq.coefficients for eq in kerneled.equations] == [
            eqs[0].coefficients, {(0, 0, 1): 1.0, (2, 0, 0): 1.0},
        ]

    def test_singular_pivot_taking_every_row_is_rejected(self):
        # {x + y, 2x + 2y + z^2}: the block of rows (0, 1) and columns (0, 1)
        # is [[1, 1], [2, 2]], singular as every other such block.
        eqs = (
            TruncatedSeries(C3, 2, {(1, 0, 0): 1.0, (0, 1, 0): 1.0}),
            TruncatedSeries(C3, 2, {(1, 0, 0): 2.0, (0, 1, 0): 2.0, (0, 0, 2): 1.0}),
        )
        with pytest.raises(SingularPivotError):
            kernel_op(AnalyticSystem(3, eqs, C3, 1.0), ((0, 1), (0, 1)))


def assert_failed_round_step(trace, rank):
    """The trace's one step is the selection whose round failed after its
    rank test: gate passed, rank report on record, no pivots and no mu."""
    [step] = trace.steps
    assert step.kind == "selection" and step.gate.passed
    assert step.rank_report.rank == rank
    assert step.pivot_rows is None and step.pivot_cols is None and step.mu is None
    assert trace.thickness == 0 and trace.deflated is None


class TestDeflationSequence:
    def test_worked_example_trace(self, gy2_trace):
        trace, _point, _backend = gy2_trace
        assert trace.thickness == 1
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["selection", "kerneling", "extraction"]
        ranks = [s.rank_report.rank for s in trace.steps if s.rank_report]
        assert ranks == [1, 2, 2]
        assert trace.deflated is not None
        assert_system_multiset(trace.deflated, DEFLATED_GOLDEN)
        # every system along the trace passed its gate
        assert all(s.gate.passed for s in trace.steps if s.gate is not None)
        # rank never zero along the trace
        assert all(s.rank_report.rank >= 1 for s in trace.steps if s.rank_report)
        assert trace.p0 == 2
        assert trace.mu_values[0] == pytest.approx(1 / 2.0012, rel=1e-3)

    def test_regular_system_thickness_zero(self):
        # f is centered at the origin; the deflation expands it around the
        # point, so the deflated system is f's equations expanded there.
        f, point = regular_system()
        trace = deflation_sequence(f, point, COMPLEX_EXACT)
        assert trace.thickness == 0
        assert trace.deflated is not None
        assert trace.deflated.size == 2
        assert_system_multiset(
            trace.deflated,
            [dict(eq.coefficients) for eq in recenter_series(f.equations, point, [1, 1])],
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "equations, point",
        [
            (({(1, 2): -3.0}, {(2, 0): 1.0, (0, 3): -2.0}), (-0.0164, 0.0807)),
            (
                (
                    {(0, 3): 1.0, (2, 0): -2.0},
                    {(1, 1): 1.0, (0, 1): -3.0},
                    {(1, 1): 1.0, (0, 1): 3.0},
                ),
                (0.0041, -0.0047),
            ),
        ],
        ids=["two-equations", "three-equations"],
    )
    def test_series_centered_off_the_point_deflate(self, equations, point):
        # Series centered at the origin and a point off it.  The k=1 pivot
        # block is chosen on J(x0) and is singular at the origin, so it must
        # be inverted at x0: every system of the deflation is expanded around
        # x0, in the caller's ball.
        f = AnalyticSystem(2, tuple(TruncatedSeries(C2, 3, eq) for eq in equations), C2, 1.0)
        trace = deflation_sequence(f, point, COMPLEX_EXACT)
        assert trace.failure is None
        assert trace.thickness == 1 and trace.deflated is not None
        assert trace.input_system is f
        for step in trace.steps:
            assert step.system.center == point
            assert (step.system.ball_center, step.system.ball_radius) == (C2, 1.0)

    @pytest.mark.parametrize(
        "run",
        [
            lambda f, p: deflation_sequence(f, p, COMPLEX_EXACT).deflated,
            lambda f, p: truncated_deflation(f, p, 0, COMPLEX_EXACT).deflated,
            lambda f, p: select_detailed(f, p, COMPLEX_EXACT)[0],
        ],
        ids=["deflation_sequence", "truncated_deflation", "select_detailed"],
    )
    def test_point_outside_the_ball_is_an_error(self, run):
        # {x^2 - 4, y} is centered at the origin in B(0, 1); its root (2, 0)
        # lies outside, and so does (1, 0) on the sphere.  Every bound the
        # gate rests on needs x0 inside the ball.
        f = AnalyticSystem(
            2, (TruncatedSeries(C2, 2, {(2, 0): 1.0, (0, 0): -4.0}),
                TruncatedSeries(C2, 2, {(0, 1): 1.0})), C2, 1.0,
        )
        for point in [(2.0, 0.0), (1.0, 0.0)]:
            with pytest.raises(DomainError, match="point lies outside the open ball"):
                run(f, point)
        # Inside the ball, off the series' center, {x^2 - 0.81, y} deflates
        # at its root (0.9, 0).
        g = f.with_equations(
            (TruncatedSeries(C2, 2, {(2, 0): 1.0, (0, 0): -0.81}), f.equations[1])
        )
        assert run(g, (0.9, 0.0)).center == (0.9, 0.0)

    def test_far_point_gate_failure(self, gy2):
        system, _point, backend = gy2
        far = (0.5, 0.4)
        recentered = AnalyticSystem(
            2,
            tuple(ts_recenter(eq, far, eq.order) for eq in system.equations),
            far,
            system.ball_radius,
        )
        trace = deflation_sequence(recentered, far, backend)
        assert trace.deflated is None
        assert trace.gate_failed
        failing = [s for s in trace.steps if s.gate is not None and not s.gate.passed]
        assert failing and failing[-1].gate.value_norm > failing[-1].gate.eta

    def test_rank_zero_of_a_small_regular_root_is_a_report(self):
        # {0.03x, 0.03y} has a regular root at the origin, but the a-test
        # reads sigma_1 + sigma_2 = 0.06 < 1/9 as rank 0.
        f, point = small_regular_system()
        trace = deflation_sequence(f, point, COMPLEX_EXACT)
        assert trace.deflated is None and not trace.gate_failed
        assert trace.failure == (
            "numerical rank 0 at k=0: the rank test reads the Jacobian at x0 "
            "as zero (sigma_max = 0.03)"
        )
        assert_failed_round_step(trace, rank=0)
        assert (trace.p0, trace.p, trace.mu_values) == (1, 1, ())

    def test_rank_zero_of_gy2_far_out_is_a_report(self, tmp_path):
        # 64 times the fixture's offset from the root, with the complex norm:
        # the selected equations have nonzero gradients, but the singular
        # values of their Jacobian sum to less than 1/9.
        system, point, backend = gy2_at(tmp_path, (-0.032, 0.0384), "complex")
        selected, _records = select_detailed(system, point, backend)
        sigma = singular_values(jacobian_at(selected, point))
        assert 0.0 < sum(sigma) < 1.0 / 9.0
        trace = deflation_sequence(system, point, backend)
        assert trace.deflated is None and not trace.gate_failed
        assert trace.failure == (
            "numerical rank 0 at k=0: the rank test reads the Jacobian at x0 "
            f"as zero (sigma_max = {sigma[0]:.6g})"
        )
        assert f"{sigma[0]:.6g}" == "0.025425"
        assert_failed_round_step(trace, rank=0)

    def test_extraction_failure_round_is_a_step(self):
        f, point = three_directions_system()
        trace = deflation_sequence(f, point, COMPLEX_EXACT)
        assert trace.failure == (
            "ExtractionError at k=0: no equation subset achieves full numerical rank"
        )
        assert_failed_round_step(trace, rank=2)
        assert trace.steps[0].system.size == 3

    def test_empty_selection_is_a_report(self):
        # One numerically zero equation: selection retains nothing.
        f = AnalyticSystem(2, (TruncatedSeries(C2, 2, {(0, 0): 1e-20}),), C2, 1.0)
        trace = deflation_sequence(f, C2, COMPLEX_EXACT)
        assert trace.deflated is None and not trace.gate_failed
        assert trace.failure.startswith("TruncationExhaustedError at k=0: ")
        report, _trace = singular_alpha_certificate(f, C2, COMPLEX_EXACT)
        assert report.notes == (trace.failure,)
        assert newton_iterate(f, C2, 4, COMPLEX_EXACT) == [C2, C2]


class TestExtractSquare:
    def test_worked_example_rows(self, gy2_trace):
        trace, point, _backend = gy2_trace
        kerneled = trace.steps[1].system
        square = extract_square(kerneled, point)
        assert_system_multiset(square, DEFLATED_GOLDEN)
        assert numerical_rank(jacobian_at(square, point)).rank == 2

    def test_square_system_returned_as_is(self):
        f, point = regular_system()
        square = extract_square(f, point)
        assert square.equations == f.equations

    def test_parallel_rows_avoided(self):
        eqs = (
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): 1.0}),
            TruncatedSeries(C2, 1, {(1, 0): 2.0, (0, 1): 2.0}),
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): -1.0}),
            TruncatedSeries(C2, 1, {(1, 0): 0.5, (0, 1): 0.5}),
        )
        f = AnalyticSystem(2, eqs, C2, 1.0)
        square = extract_square(f, C2)
        grads = jacobian_at(square, C2)
        assert np.linalg.matrix_rank(grads) == 2

    def test_rank_deficient_rejected(self):
        eqs = (
            TruncatedSeries(C2, 1, {(1, 0): 1.0, (0, 1): 1.0}),
            TruncatedSeries(C2, 1, {(1, 0): 2.0, (0, 1): 2.0}),
        )
        f = AnalyticSystem(2, eqs, C2, 1.0)
        with pytest.raises(ExtractionError):
            extract_square(f, C2)

    def test_many_subsets_use_pivoting(self):
        # 101 equations give comb(101, 2) = 5050 subsets, past the search
        # cap.  Extraction reports the count; it picks no subset by another
        # rule.
        f = linear_system(PAST_EXTRACT_CAP)
        assert math.comb(f.size, 2) == 5050 > _EXTRACT_BRUTE_LIMIT
        with pytest.raises(ExtractionError) as err:
            extract_square(f, C2)
        assert str(err.value) == (
            "5050 candidate equation subsets exceed the search cap of 5000"
        )

    def test_a_search_at_its_cap_runs(self, monkeypatch):
        # 4 equations give comb(4, 2) = 6 candidate subsets.
        f = linear_system(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]))
        monkeypatch.setattr(deflation, "_EXTRACT_BRUTE_LIMIT", 6)
        assert extract_square(f, C2).size == 2
        monkeypatch.setattr(deflation, "_EXTRACT_BRUTE_LIMIT", 5)
        with pytest.raises(ExtractionError, match="^6 candidate equation subsets exceed"):
            extract_square(f, C2)

    def test_past_the_cap_the_run_reports(self):
        trace = deflation_sequence(linear_system(PAST_EXTRACT_CAP), C2, COMPLEX_EXACT)
        assert trace.deflated is None and trace.thickness == 0
        assert trace.failure == (
            "ExtractionError at k=0: 5050 candidate equation subsets exceed the "
            "search cap of 5000"
        )
        assert trace.steps[-1].rank_report.full_rank
        assert trace.steps[-1].pivot_rows is None


def griewank_osborne(x0):
    """29/16 x^3 - 2xy and y - x^2 (root at the origin), as the CLI reads
    them: recentered at x0, order 3, unit ball around x0."""
    eqs = (
        TruncatedSeries(C2, 3, {(3, 0): 29 / 16, (1, 1): -2.0}),
        TruncatedSeries(C2, 3, {(0, 1): 1.0, (2, 0): -1.0}),
    )
    return recenter_system(AnalyticSystem(2, eqs, C2, 1.0), x0)


class TestGriewankOsborne:
    X0 = (1e-4, -2e-4)

    def test_extraction_by_rank_test(self):
        trace = deflation_sequence(griewank_osborne(self.X0), self.X0, COMPLEX_EXACT)
        assert trace.thickness == 0
        assert trace.deflated_indices == (2, 3)

    def test_newton_reaches_root(self):
        traj = newton_iterate(griewank_osborne(self.X0), self.X0, 4, COMPLEX_EXACT)
        assert max(abs(v) for v in traj[-1]) < 1e-12

    def test_certificate_contains_root(self):
        report, _trace = singular_alpha_certificate(
            griewank_osborne(self.X0), self.X0, COMPLEX_EXACT
        )
        assert report.alpha_ok
        assert report.theta_low >= math.hypot(*self.X0)


class TestKSS:
    """Kobayashi-Suzuki-Sakai: the Jacobian at the root (1, ..., 1) is the
    all-ones matrix, of rank 1."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exact_root_deflates(self, n):
        root = (1.0,) * n
        trace = deflation_sequence(kss(n, root), root, COMPLEX_EXACT)
        assert trace.thickness == 1
        assert trace.deflated is not None and trace.deflated.size == n

    def test_newton_reaches_root_from_kss6_point(self):
        x0 = (0.999972, 0.999933, 0.999894, 0.999961, 1.000048, 0.999976)
        traj = newton_iterate(kss(6, x0), x0, 4, COMPLEX_EXACT)
        assert max(abs(v - 1.0) for v in traj[-1]) < 1e-12

    def test_newton_stops_before_a_longer_step(self):
        # Iterate 1 lies 2.7e-12 from the root with two coordinates exactly
        # 1.0.  Its kerneled system fails the k=1 gate (||F_1(x0)|| =
        # 3.05176e-05 > eta = 7.49158e-14), so the step returns the point
        # unchanged and the trajectory ends there.  The longer-step rule
        # itself is tested in TestNewtonStops.
        x0 = (1.0000008602438026, 0.9999960601258012, 1.0000025590583586, 1.0000065761140973)
        traj = newton_iterate(kss(4, x0), x0, 4, COMPLEX_EXACT)
        assert max(abs(v - 1.0) for v in traj[-1]) < 1e-11

    def test_newton_stops_where_no_pivot_block_exists(self):
        # Iterate 1 lies 3e-15 from the root with two coordinates exactly
        # 1.0; the a-test reads rank 3 there, but no 3x3 pivot block clears
        # the rounding floor.  The trajectory ends at that iterate.
        x0 = (0.9999999655786284, 0.9999994243013337, 1.0000009836721946, 0.9999994883739469)
        traj = newton_iterate(kss(4, x0), x0, 4, COMPLEX_EXACT)
        assert math.sqrt(sum(abs(v - 1.0) ** 2 for v in traj[-1])) < 1e-14

    def test_no_pivot_block_round_is_a_step(self):
        f, point = kss4_no_pivot_system()
        trace = deflation_sequence(f, point, COMPLEX_EXACT)
        assert trace.failure.startswith(
            "RankDeficiencyError at k=0: no nonsingular 3x3 pivot block found"
        )
        assert_failed_round_step(trace, rank=3)

    def test_failed_selection_is_a_report(self):
        # A start whose perturbation has exact zeros: the Jacobian has exact
        # rank 3, not the root's 1, and the kerneled system fails its gate
        # (||F_1(x0)|| = 1.9e-5 against eta = 2.5e-8).
        x0 = (1.0, 1.0, 1.0, 1 + 8.94e-6, 1 + 4.47e-6)
        f = kss(5, x0)
        trace = deflation_sequence(f, x0, COMPLEX_EXACT)
        assert trace.deflated is None and trace.gate_failed
        assert trace.failure.startswith("hypothesis 1.1 failed at k=1: ")
        report, _trace = singular_alpha_certificate(f, x0, COMPLEX_EXACT)
        assert report.notes == (trace.failure,)
        assert newton_iterate(f, x0, 4, COMPLEX_EXACT) == [x0, x0]


class TestNewtonStops:
    @pytest.mark.parametrize("last_y", [0.5, 0.625], ids=["equal", "longer"])
    def test_stops_before_a_step_no_shorter_than_the_last(self, monkeypatch, last_y):
        # Scripted steps of length 0.5, 0.25, then 0.25 or 0.375: the third
        # point is not recorded, and no fourth step is asked for.
        points = [(0.5 + 0j, 0j), (0.5 + 0j, 0.25 + 0j), (0.5 + 0j, complex(last_y))]
        calls = []

        def step(f, x0, backend):
            calls.append(x0)
            return points[len(calls) - 1]

        monkeypatch.setattr(deflation, "singular_newton_step", step)
        f, _point = regular_system()
        traj = newton_iterate(f, (0.0, 0.0), 4, COMPLEX_EXACT)
        assert traj == [(0j, 0j), points[0], points[1]]
        assert calls == [(0j, 0j), points[0], points[1]]

    def test_stagnation_stop(self, tmp_path):
        # gy2_002 (appendix norm) moves 7.7e-4, 2.1e-7, 1.2e-14, then 9.4e-17:
        # each move is shorter than the last, and the fourth is the first at
        # or under 1e-15 (1 + ||x||), so the trajectory stops after it with
        # steps left.  A 1e-13 rule would stop one point earlier.
        f, x0, opts = parse_system(str(GEN.gy2_inputs(tmp_path, 0, 2)[2]))
        traj = newton_iterate(f, x0, 6, opts["backend"])
        assert len(traj) == 5

        def norm(v):
            return math.sqrt(sum(abs(c) ** 2 for c in v))

        moves = [norm(np.subtract(a, b)) for a, b in zip(traj, traj[1:])]
        scales = [1.0 + norm(a) for a in traj[:-1]]
        assert moves == sorted(moves, reverse=True)
        assert [m <= 1e-15 * s for m, s in zip(moves, scales)] == [False] * 3 + [True]
        assert 1e-15 * scales[2] < moves[2] <= 1e-13 * scales[2]


class TestTruncatedDeflation:
    def test_exact_order1_system(self, gy2_exact):
        system, point, backend = gy2_exact
        trace = truncated_deflation(system, point, 1, backend)
        assert trace.thickness == 1
        final = trace.steps[1].system
        expected = [
            {(1, 0): 2.0, (0, 1): 2.0},
            {(1, 0): 4.0, (0, 1): -4.0},
            {(1, 0): 4.0, (0, 1): -6.0},
            {(1, 0): -2.0},
        ]
        assert_system_multiset(final, expected, rtol=1e-12)

    def test_same_newton_step_as_full(self, gy2):
        system, point, backend = gy2
        full = deflation_sequence(system, point, backend)
        trunc = truncated_deflation(system, point, 1, backend)
        for trace in (full, trunc):
            assert trace.deflated is not None
        def step(trace):
            j0 = jacobian_at(trace.deflated, point)
            v = system_evaluate(trace.deflated, point)
            return np.array([complex(t) for t in point]) - np.linalg.solve(j0, v)
        a, b = step(full), step(trunc)
        assert np.linalg.norm(a - b) <= 1e-10 * (1 + np.linalg.norm(a))

    def test_later_systems_lie_within_the_schedule(self):
        # Only F_0 is cut, at ell + 1; kerneling and selection lower the
        # orders of the later systems to ell + 1 - k by themselves.  Both
        # inputs have order 4, above ell + 1, so the cut shows.
        x0 = ojika1(1e-3)[1]
        system, point, options = parse_system(str(REPO / "fixtures" / "gy2.json"), 4)
        cases = [
            ((recentered(OJIKA1, x0, order=4), x0, COMPLEX_EXACT), 2, [3, 2, 1]),
            ((system, point, options["backend"]), 1, [2, 1]),
        ]
        for (f, start, backend), ell, orders in cases:
            trace = truncated_deflation(f, start, ell, backend)
            assert trace.deflated is not None
            assert [
                step.system.max_order() for step in trace.steps if step.kind != "extraction"
            ] == orders

    def test_ell0_regular(self):
        f, point = regular_system()
        trace = truncated_deflation(f, point, 0, COMPLEX_EXACT)
        assert trace.thickness == 0
        assert trace.deflated is not None

    def test_order_too_small_rejected(self):
        f, point = regular_system()
        with pytest.raises(DomainError):
            truncated_deflation(f, point, 2, COMPLEX_EXACT)


class TestSingularNewton:
    def test_first_iterate_golden(self, gy2):
        system, point, backend = gy2
        x1 = singular_newton_step(system, point, backend)
        got = np.array([v.real for v in x1])
        want = np.array([1.5231e-7, -4.5263e-7])
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)

    def test_second_iterate_golden(self, gy2):
        system, point, backend = gy2
        traj = newton_iterate(system, point, 2, backend)
        got = np.array([v.real for v in traj[2]])
        want = np.array([1.0038e-13, -1.6932e-13])
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)

    def test_fixed_point_at_regular_root(self):
        f, _ = regular_system()
        root = (0.5, 0.5)
        step = singular_newton_step(f, root, COMPLEX_EXACT)
        assert abs(step[0] - 0.5) <= 1e-14 and abs(step[1] - 0.5) <= 1e-14

    def test_steps_one_matches_single_step(self, gy2):
        system, point, backend = gy2
        traj = newton_iterate(system, point, 1, backend)
        single = singular_newton_step(system, point, backend)
        assert traj[1] == single

    def test_quadratic_envelope(self, gy2):
        system, point, backend = gy2
        traj = newton_iterate(system, point, 4, backend)
        errors = [np.linalg.norm([complex(v) for v in x]) for x in traj]
        for prev, cur in zip(errors, errors[1:]):
            if cur <= 1e-15:
                break
            assert cur <= 1e3 * prev**2

    def test_constant_trajectory_at_root(self):
        f, _ = regular_system()
        traj = newton_iterate(f, (0.5, 0.5), 3, COMPLEX_EXACT)
        assert all(
            abs(x[0] - 0.5) <= 1e-14 and abs(x[1] - 0.5) <= 1e-14 for x in traj
        )


class TestOneStepPerSelection:
    def test_steps_match_selections(self, tmp_path, monkeypatch):
        # Every selection the run makes adds exactly one step, and the run
        # fails exactly when its last step is not the extraction.
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        import gen
        from multiroot.cli import parse_system

        selections = []

        def counted(f, x0, backend):
            result = select_detailed(f, x0, backend)
            selections.append(result)
            return result

        monkeypatch.setattr(deflation, "select_detailed", counted)
        cases = [
            parse_system(str(path))
            for block in gen.family_inputs(tmp_path, 5, 4)
            for path in block
        ]
        cases = [(f, x0, options["backend"]) for f, x0, options in cases]
        cases += [
            (*small_regular_system(), COMPLEX_EXACT),
            gy2_at(tmp_path, (-0.032, 0.0384), "complex"),
            (*three_directions_system(), COMPLEX_EXACT),
            (*kss4_no_pivot_system(), COMPLEX_EXACT),
            # Selection retains nothing: no selection, no step.
            (AnalyticSystem(2, (TruncatedSeries(C2, 2, {(0, 0): 1e-20}),), C2, 1.0), C2,
             COMPLEX_EXACT),
        ]
        endings = set()
        for f, x0, backend in cases:
            selections.clear()
            trace = deflation_sequence(f, x0, backend)
            kinds = [step.kind for step in trace.steps]
            assert len(kinds) - kinds.count("extraction") == len(selections)
            assert (trace.failure is None) == (kinds[-1:] == ["extraction"])
            endings.add((trace.failure or "deflated").split(" at k=")[0])
        assert endings == {
            "deflated", "hypothesis 1.1 failed", "numerical rank 0", "ExtractionError",
            "RankDeficiencyError", "TruncationExhaustedError",
        }


class TestThicknessTwo:
    """Ojika1, {x^2 + y - 3, x + y^2/8 - 3/2} at R = 1 and order 3, kernels
    twice, the second time on an already-kerneled system."""

    @pytest.mark.parametrize("d", [1e-3, 1e-4, 1e-5, 3e-6])
    def test_two_kerneling_rounds(self, d):
        f, x0 = ojika1(d)
        trace = deflation_sequence(f, x0, COMPLEX_EXACT)
        assert trace.failure is None
        assert trace.thickness == 2
        assert [s.kind for s in trace.steps] == ["selection", "kerneling", "kerneling", "extraction"]
        assert [s.rank_report.rank for s in trace.steps[:3]] == [1, 1, 2]
        assert (trace.p0, trace.p) == (1, 1)

    def test_mu_values(self):
        f, x0 = ojika1(1e-3)
        trace = deflation_sequence(f, x0, COMPLEX_EXACT)
        assert trace.mu_values == pytest.approx((1.0, 1.0, 1.53568), rel=1e-5)

    def test_newton_reaches_the_root(self):
        f, x0 = ojika1(1e-3)
        traj = newton_iterate(f, x0, 4, COMPLEX_EXACT)
        assert math.dist([v.real for v in traj[-1]], (1.0, 2.0)) <= 1e-12


class TestTwoByTwoPivot:
    """{x + y + z + x^2, x - 3y + y^2, 2x - 2y + z + z^2} at R = 1 and order 3
    kernels a 2 x 2 pivot block, so mu = 1/sigma_min differs from
    1/sigma_max."""

    X0 = tuple(1e-3 * v for v in (0.6, -0.3, 0.75))
    EQUATIONS = (
        {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0, (2, 0, 0): 1.0},
        {(1, 0, 0): 1.0, (0, 1, 0): -3.0, (0, 2, 0): 1.0},
        {(1, 0, 0): 2.0, (0, 1, 0): -2.0, (0, 0, 1): 1.0, (0, 0, 2): 1.0},
    )

    def test_block_and_mu(self):
        f = recentered(self.EQUATIONS, self.X0)
        step = deflation_sequence(f, self.X0, COMPLEX_EXACT).steps[0]
        assert (step.pivot_rows, step.pivot_cols) == ((0, 1), (0, 1))
        block = jacobian_at(step.system, self.X0)[:2, :2]
        sigma = np.linalg.svd(block, compute_uv=False)
        assert sigma == pytest.approx((3.2366, 1.2372), rel=1e-4)
        assert step.mu == 1.0 / sigma[-1]
        assert step.mu == pytest.approx(0.80829, rel=1e-5)

    def test_newton_reaches_the_root(self):
        f = recentered(self.EQUATIONS, self.X0)
        traj = newton_iterate(f, self.X0, 4, COMPLEX_EXACT)
        assert max(abs(v) for v in traj[-1]) <= 1e-15


class TestNoReferenceCycles:
    """Each operation frees what it built when it returns: with the cyclic
    garbage collector off, a collection afterwards finds nothing."""

    def test_each_operation(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        import gen

        paths = [REPO / "fixtures" / "gy2.json"]
        paths += [p for block in gen.family_inputs(tmp_path, 802, 1) for p in block]
        gc.collect()
        gc.disable()
        try:
            for path in paths:
                f, x0, options = parse_system(str(path))
                backend = options["backend"]
                assert gc.collect() == 0, path.stem
                for name, op in [
                    ("deflate", lambda: deflation_sequence(f, x0, backend)),
                    ("solve", lambda: newton_iterate(f, x0, 4, backend)),
                    ("certify", lambda: singular_alpha_certificate(f, x0, backend)),
                ]:
                    try:
                        op()
                    except HypothesisFailure:
                        pass  # a raised hypothesis failure is an outcome too
                    assert gc.collect() == 0, (path.stem, name)
        finally:
            gc.enable()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: eta_threshold(1.0, 2, 0.0), "eta threshold requires a positive radius",
            id="eta-radius",
        ),
        pytest.param(lambda: eta_threshold(-1.0, 2, 1.0), "negative norm", id="eta-norm"),
        pytest.param(
            lambda: truncated_deflation(kss(2, (1.0, 1.0)), (1.0, 1.0), -1, COMPLEX_EXACT),
            "ell must be nonnegative", id="ell",
        ),
        pytest.param(
            lambda: newton_iterate(kss(2, (1.0, 1.0)), (1.0, 1.0), 0, COMPLEX_EXACT),
            "steps must be >= 1", id="steps",
        ),
    ],
)
def test_input_check(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()
