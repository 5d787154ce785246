"""Selection against the plain recursive walk it replaces.

``reference_select`` gates every node with ``is_small`` (a norm each) and
builds every partial derivative.  ``select_detailed`` skips the work whose
outcome is already decided, and must retain the same series, bit for bit,
with the same records in the same order.
"""

import json
import math

import numpy as np
import pytest

from multiroot import deflation
from multiroot.bergman import APPENDIX_SLICE, COMPLEX_EXACT, BallContext
from multiroot.cli import build_trace_report, parse_system
from multiroot.deflation import (
    SelectionRecord,
    _kerneling_pivots,
    deflation_sequence,
    eta_threshold,
    is_small,
    kernel_op,
    select_detailed,
)
from multiroot.errors import TruncationExhaustedError
from multiroot.rank import numerical_rank
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    ZERO_RTOL,
    is_zero_series,
    jacobian_at,
    max_coeff,
    maxima_apart,
    recenter_series,
    series_close,
    system_evaluate,
    ts_derivative,
    ts_evaluate,
)

from conftest import FIXTURES
from test_batched import _load_gen

GEN = _load_gen()


def _unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def reference_walk(eq, record, pending, x0, ball, backend, retained):
    """Gate eq and recurse into its derivatives; a failed gate retains
    ``pending`` (eq's parent, its record and its max_coeff)."""
    gate = is_small(eq, x0, ball, backend)
    if not gate.passed:
        series, _rec, top = pending
        if not any(
            series is kept or series_close(series, kept, scale=1.0 + max(top, kept_top))
            for kept, _, kept_top in retained
        ):
            retained.append(pending)
        return
    if eq.order == 0:
        return
    parent_scale = max_coeff(eq)
    for i in range(eq.dim):
        d = ts_derivative(eq, i)
        if is_zero_series(d, ref_magnitude=parent_scale):
            continue
        drec = SelectionRecord(
            record.source,
            tuple(a + b for a, b in zip(record.derivative, _unit(eq.dim, i))),
        )
        reference_walk(d, drec, (eq, record, parent_scale), x0, ball, backend, retained)


def reference_select(f, x0, backend):
    """Selection by the plain walk."""
    ball = BallContext.of(f)
    retained = []
    for k, eq in enumerate(f.equations):
        rec = SelectionRecord(k, (0,) * f.dim)
        reference_walk(eq, rec, (eq, rec, max_coeff(eq)), x0, ball, backend, retained)
    if not retained:
        raise TruncationExhaustedError(
            "selection retained no equations: every branch stayed under its "
            "gate to the end of the stored truncation order"
        )
    system = f.with_equations(series for series, _, _ in retained)
    return system, tuple(rec for _, rec, _ in retained)


def raw(series):
    """A series as comparable raw bits: center, order, and every stored
    exponent with its coefficient's bits, in stored order."""
    coeffs = np.array(list(series.coefficients.values()), dtype=complex)
    return (
        series.center,
        series.order,
        tuple(series.coefficients),
        coeffs.view(np.uint64).tobytes(),
    )


def outcome(select, f, x0, backend):
    try:
        system, records = select(f, x0, backend)
    except TruncationExhaustedError as exc:
        return str(exc)
    return [raw(eq) for eq in system.equations], records


def assert_same_selection(f, x0, backend):
    """``select_detailed`` at x0 against the plain walk on f's series
    expanded around x0, the frame selection works in."""
    got = outcome(select_detailed, f, x0, backend)
    assert got == outcome(reference_select, expanded_at(f, x0), x0, backend)
    return got


def expanded_at(f, point):
    """f's series expanded around point at their own orders, in f's ball."""
    return f.with_equations(recenter_series(f.equations, point, [eq.order for eq in f.equations]))


def trace_bits(trace):
    """A trace as comparable bits: its report and every step's raw series."""
    return (
        json.dumps(build_trace_report(trace), sort_keys=True),
        [[raw(eq) for eq in step.system.equations] for step in trace.steps],
    )


@pytest.fixture(scope="module")
def family_systems(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("families")
    paths = [p for block in GEN.family_inputs(tmp, 5, 4) for p in block]
    return [parse_system(str(p)) for p in paths]


def first_kerneled(f, x0, backend):
    """K(S(f)) at x0, or None when S(f) already has full rank."""
    selected, _ = select_detailed(f, x0, backend)
    j0 = jacobian_at(selected, x0)
    report = numerical_rank(j0)
    if not 0 < report.rank < f.dim:
        return None
    rows, cols, _sigma_min = _kerneling_pivots(
        j0, system_evaluate(selected, x0), report.rank, report.sigma[0]
    )
    return kernel_op(selected, (rows, cols))


class TestAgainstReference:
    def test_family_systems_and_their_first_kerneling(self, family_systems):
        kerneled = 0
        for f, x0, opts in family_systems:
            assert_same_selection(f, x0, opts["backend"])
            k = first_kerneled(f, x0, opts["backend"])
            if k is not None:
                kerneled += 1
                assert_same_selection(k, x0, opts["backend"])
        assert len(family_systems) == 32 and kerneled >= 16

    @pytest.mark.parametrize("name", ["gy2.json", "gy2_exact.json"])
    def test_gy2_fixtures(self, name):
        f, x0, opts = parse_system(str(FIXTURES / name))
        assert_same_selection(f, x0, opts["backend"])
        k = first_kerneled(f, x0, opts["backend"])
        if k is not None:
            assert_same_selection(k, x0, opts["backend"])

    def test_off_center_points(self, family_systems):
        # One frame: at a point off f's center, selection and the whole
        # deflation are those of f's series expanded around the point, in
        # f's ball, bit for bit, and the selection is the plain walk's there.
        rng = np.random.default_rng(17)
        passed = 0
        for f, x0, opts in family_systems:
            backend = opts["backend"]
            for scale in (1e-7, 1e-4, 1e-2):
                step = scale * (rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim))
                point = tuple(np.array(x0) + step)
                g = expanded_at(f, point)
                got = assert_same_selection(f, point, backend)
                assert got == outcome(select_detailed, g, point, backend)
                assert trace_bits(deflation_sequence(f, point, backend)) == trace_bits(
                    deflation_sequence(g, point, backend)
                )
                passed += not isinstance(got, str)
        assert passed >= 64

    def test_repeated_equation_is_retained_once(self, family_systems):
        f, x0, opts = family_systems[0]
        doubled = f.with_equations(f.equations + f.equations)
        _eqs, records = assert_same_selection(doubled, x0, opts["backend"])
        assert all(rec.source < f.size for rec in records)


def gated_series(f, x0, backend, monkeypatch):
    """(The series the walk gates, in order; f expanded around x0, the system
    the walk runs on).

    The gate reads a node's value, its constant coefficient, before any
    other part of the walk reads that coefficient: each equation and each
    derivative the walk builds gets a coefficient dict that logs its series
    at the first such read."""
    seen = []

    class Reads(dict):
        def get(self, alpha, default=None):
            if not (any(alpha) or self.read):
                self.read = True
                seen.append(self.series)
            return super().get(alpha, default)

    def logged(series):
        series.coefficients = Reads(series.coefficients)
        series.coefficients.series, series.coefficients.read = series, False
        return series

    g = f.with_equations(map(logged, expanded_at(f, x0).equations))
    derivative = deflation.ts_derivative
    with monkeypatch.context() as patch:
        patch.setattr(deflation, "ts_derivative", lambda eq, i: logged(derivative(eq, i)))
        try:
            select_detailed(g, x0, backend)
        except TruncationExhaustedError:
            pass
    return seen, g


def reference_nodes(f, x0, backend, monkeypatch):
    """The series ``reference_select`` gates, in order."""
    seen = []
    gate = is_small

    def recording(series, x, ball, backend):
        seen.append(series)
        return gate(series, x, ball, backend)

    with monkeypatch.context() as patch:
        patch.setitem(reference_walk.__globals__, "is_small", recording)
        try:
            reference_select(f, x0, backend)
        except TruncationExhaustedError:
            pass
    return seen


def key(series):
    return series.order, tuple(series.coefficients), raw(series)[3]


def copy(series, reverse=False):
    """An equal series in a new object; ``reverse`` stores its terms in the
    opposite order, which the walk must not take for the same series."""
    items = list(series.coefficients.items())
    return TruncatedSeries(series.center, series.order, dict(items[::-1] if reverse else items))


class TestRepeatedSeries:
    """The walk decides each distinct finite series once per selection and
    reuses the outcome for every repeat; the selection must stay the plain
    walk's, bit for bit."""

    def test_planted_duplicates(self, family_systems, monkeypatch):
        rng = np.random.default_rng(31)
        offsets = 0
        for f, x0, opts in family_systems:
            eqs = f.equations
            planted = f.with_equations(
                eqs[:1] + tuple(map(copy, eqs)) + eqs[1:] + tuple(copy(e, True) for e in eqs[::-1])
            )
            backend = opts["backend"]
            for f_ in (planted, first_kerneled(planted, x0, backend)):
                if f_ is None:
                    continue
                assert_same_selection(f_, x0, backend)
                step = 1e-6 * (rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim))
                point = tuple(np.array(x0) + step)
                assert_same_selection(f_, point, backend)
                gated = [key(s) for s in gated_series(f_, point, backend, monkeypatch)[0]]
                assert len(gated) == len(set(gated))
                offsets += 1
        assert offsets >= 48

    @pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
    def test_coinciding_mixed_partials(self, backend, monkeypatch):
        # Dyadic coefficients keep every derivative exact, so d/dx d/dy and
        # d/dy d/dx of each monomial agree bit for bit.
        rng = np.random.default_rng(37)
        repeats = 0
        for _ in range(40):
            n = int(rng.integers(2, 5))
            center = tuple(rng.integers(-4, 5, n) / 8.0)
            equations = []
            for _ in range(int(rng.integers(1, 4))):
                coeffs = {}
                for _ in range(int(rng.integers(1, 5))):
                    alpha = [0] * n
                    for _ in range(int(rng.integers(2, 6))):
                        alpha[int(rng.integers(n))] += 1
                    coeffs[tuple(alpha)] = complex(*rng.integers(-8, 9, 2)) / 4.0
                equations.append(TruncatedSeries(center, 5, coeffs))
            f = AnalyticSystem(n, tuple(equations), center, 1.0)
            assert_same_selection(f, center, backend)
            point = tuple(np.array(center) + 1e-9 * (1 + 1j))
            assert_same_selection(f, point, backend)
            gated = [key(s) for s in gated_series(f, point, backend, monkeypatch)[0]]
            assert len(gated) == len(set(gated))
            # The plain walk gates a repeated series again; the walk gates
            # it once.
            plain = reference_nodes(expanded_at(f, point), point, backend, monkeypatch)
            plain = [key(s) for s in plain]
            repeats += len(set(plain)) < len(plain)
        assert repeats >= 20

    @pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
    @pytest.mark.parametrize(
        "coeffs",
        [
            {(0, 0): 1.0, (1, 1): math.nan},          # fails on its value
            {(1, 0): 1e-3, (2, 0): math.nan},         # fails on a NaN norm
            {(0, 0): math.inf, (1, 0): 1.0},          # fails on an infinite value
        ],
        ids=["nan-value", "nan-norm", "inf"],
    )
    def test_non_finite_duplicate_is_not_merged(self, backend, coeffs):
        # series_close is false on a NaN or an infinity, so the plain walk
        # retains each copy of such an equation: the walk must walk both.
        c = (0.0, 0.0)
        eq = TruncatedSeries(c, 3, coeffs)
        other = TruncatedSeries(c, 3, {(1, 0): 1.0, (0, 1): 1.0})
        f = AnalyticSystem(2, (eq, other, copy(eq)), c, 1.0)
        with np.errstate(invalid="ignore"):
            _eqs, records = assert_same_selection(f, c, backend)
        assert {0, 2} <= {rec.source for rec in records}

    def test_kss6_kerneled_gates_each_distinct_equation_once(self, family_systems, monkeypatch):
        f, x0, opts = next(s for s in family_systems if s[0].dim == 6)
        kerneled = first_kerneled(f, x0, opts["backend"])
        assert kerneled.size == 26
        distinct = {key(eq) for eq in kerneled.equations}
        assert len(distinct) == 7
        point = tuple(np.array(x0) + 1e-9)
        gated, expanded = gated_series(kerneled, point, opts["backend"], monkeypatch)
        top_level = [s for s in gated if any(s is eq for eq in expanded.equations)]
        assert len(top_level) == 7
        assert_same_selection(kerneled, point, opts["backend"])


def random_edge_system(rng, backend):
    """A system whose coefficients straddle the walk's shortcuts: values
    near eta(0), under and over the zero floor, and equations scaled so far
    up that the zero floor lies above eta(0)."""
    n = int(rng.integers(2, 5))
    order = int(rng.integers(1, 5))
    radius = float(rng.choice([0.5, 1.0, 2.0]))
    center = tuple(rng.standard_normal(n) * 0.1)
    eta0 = eta_threshold(0.0, n, radius)
    equations = []
    for _ in range(int(rng.integers(1, 4))):
        scale = 10.0 ** rng.choice([0.0, 13.0])
        coeffs = {}
        for _ in range(int(rng.integers(1, 8))):
            alpha = [0] * n
            for _ in range(int(rng.integers(0, order + 1))):
                alpha[int(rng.integers(n))] += 1
            kind = rng.integers(4)
            if kind == 0:
                c = eta0 * rng.uniform(0.3, 1.5)
            elif kind == 1:
                c = 1e-12 * scale * rng.uniform(0.2, 5.0)
            else:
                c = scale * 10.0 ** rng.uniform(-16, 0)
            coeffs[tuple(alpha)] = c * np.exp(2j * np.pi * rng.random())
        equations.append(TruncatedSeries(center, order, coeffs))
    return AnalyticSystem(n, tuple(equations), center, radius)


@pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
def test_edge_systems(backend):
    rng = np.random.default_rng(29)
    retained = 0
    for _ in range(300):
        f = random_edge_system(rng, backend)
        got = assert_same_selection(f, f.center, backend)
        retained += not isinstance(got, str)
    assert retained >= 100


@pytest.mark.parametrize("backend", [COMPLEX_EXACT, APPENDIX_SLICE])
def test_child_under_the_zero_floor(backend):
    # d/dy of 1e13 x^2 + 5 y is 5: its value exceeds eta(0), but the series
    # is numerically zero beside its parent's 1e13, so the walk skips it.
    c = (0.0, 0.0)
    f = AnalyticSystem(
        2,
        (
            TruncatedSeries(c, 3, {(2, 0): 1e13, (0, 1): 5.0}),
            TruncatedSeries(c, 3, {(1, 0): 1.0, (0, 1): 1.0}),
        ),
        c,
        1.0,
    )
    _eqs, records = assert_same_selection(f, c, backend)
    assert [r.derivative for r in records] == [(1, 0), (0, 0)]


def test_trace_reports_match_the_reference_walk(monkeypatch, family_systems):
    inputs = [parse_system(str(FIXTURES / n)) for n in ("gy2.json", "gy2_exact.json")]
    inputs += family_systems[:12]

    def reports():
        return [
            json.dumps(build_trace_report(deflation_sequence(f, x0, opts["backend"])), sort_keys=True)
            for f, x0, opts in inputs
        ]

    got = reports()
    monkeypatch.setattr(deflation, "select_detailed", reference_select)
    want = reports()
    assert got == want


def test_eta_at_zero_bounds_every_eta():
    rng = np.random.default_rng(23)
    norms = np.concatenate([[0.0, 5e-324, 1e-300, 1e300, math.inf], 10.0 ** rng.uniform(-20, 20, 400)])
    for n in range(2, 8):
        for radius in np.concatenate([[1.0, 1e-3, 1e3], 10.0 ** rng.uniform(-3, 3, 20)]):
            eta0 = eta_threshold(0.0, n, float(radius))
            assert all(eta_threshold(float(v), n, float(radius)) <= eta0 for v in norms)


def test_no_norm_for_a_value_above_eta0(monkeypatch, family_systems):
    """A walk node whose value exceeds eta(0) fails on the bound alone; the
    norm is computed only for the others."""
    seen = []
    norm = deflation.series_norm_a2

    def recording(f, ball, backend):
        seen.append(f)
        return norm(f, ball, backend)

    monkeypatch.setattr(deflation, "series_norm_a2", recording)
    for f, x0, opts in family_systems[:16]:
        ball = BallContext.of(f)
        eta0 = eta_threshold(0.0, ball.dim, ball.radius)
        seen.clear()
        try:
            select_detailed(f, x0, opts["backend"])
        except TruncationExhaustedError:
            pass
        assert seen
        assert all(abs(ts_evaluate(s, x0)) <= eta0 for s in seen)


class TestMaximaApart:
    """``retain`` skips the coefficient comparison of two series whose
    largest coefficients are apart; that must never skip a pair that
    ``series_close`` would call equal."""

    @staticmethod
    def pairs(rng):
        """Pairs (a, b) with b = a moved by about the zero threshold, in every
        coefficient and along a's largest one, over many magnitudes."""
        for _ in range(4000):
            n = int(rng.integers(1, 8))
            keys = [(k, 0) for k in range(n)]
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            values *= 10.0 ** rng.uniform(-14, 6)
            a = TruncatedSeries((0.0, 0.0), n, dict(zip(keys, values)))
            threshold = ZERO_RTOL * (1.0 + max_coeff(a))
            # Each coefficient moves by up to 1.1 thresholds; the largest one
            # moves along its own direction, which moves the maximum by as
            # much as the coefficient moves.
            moves = np.exp(2j * np.pi * rng.random(n)) * rng.uniform(0.0, 1.1, n)
            top = int(np.argmax(np.abs(values)))
            moves[top] = values[top] / abs(values[top]) * rng.choice([-1.0, 1.0]) * rng.uniform(0.9, 1.1)
            b = TruncatedSeries((0.0, 0.0), n, dict(zip(keys, values + threshold * moves)))
            yield a, b

    def test_never_skips_a_close_pair(self):
        rng = np.random.default_rng(41)
        close = far = edge = 0
        for a, b in self.pairs(rng):
            ta, tb = max_coeff(a), max_coeff(b)
            scale = 1.0 + max(ta, tb)
            if series_close(a, b, scale=scale):
                close += 1
                assert not maxima_apart(ta, tb), (ta, tb)
                edge += abs(ta - tb) > 0.9 * ZERO_RTOL * scale
            else:
                far += 1
        # Both outcomes occur, and many close pairs have maxima nearly a
        # whole threshold apart.
        assert close > 1000 and far > 1000 and edge > 100

    def test_skips_distinct_pairs(self):
        assert maxima_apart(1.0, 1.0 + 1e-9)
        assert not maxima_apart(1.0, 1.0 + 1e-12)
        assert maxima_apart(0.0, 5e-12)
        assert not maxima_apart(0.0, 1e-12)
