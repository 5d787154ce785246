"""The batched helpers of one deflation round against their one-item forms.

Each batched helper promises the one-item result bit for bit, so every
comparison here is exact: values are compared as raw float bits, which also
tells +0.0 from -0.0.
"""

import importlib.util
import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from multiroot.bergman import (
    APPENDIX_SLICE,
    BallContext,
    _monomial_weight,
    _slice_moments,
    series_norm_a2,
)
from multiroot.cli import parse_system
from multiroot.deflation import (
    _extract_square_indexed,
    _kerneling_pivots,
    _pivot_residuals,
    deflation_sequence,
    newton_iterate,
    singular_newton_step,
)
from multiroot.rank import (
    RankReport,
    numerical_rank,
    rank_from_singular_values,
    singular_values,
)
from multiroot.schur import jacobian_layout
from multiroot.series import (
    AnalyticSystem,
    TruncatedSeries,
    _evaluate,
    _evaluate_layout,
    _recenter_layout,
    jacobian_at,
    recenter_series,
    recenter_system,
    system_evaluate,
    system_evaluate_many,
    ts_derivative,
    ts_evaluate,
    ts_recenter,
    ts_truncate,
)

from conftest import REPO, kss, random_polynomial, random_system


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def family_equations():
    """Every benchmark family equation, recentered at a seeded point near its
    root at the family's order, as ``parse_system`` builds it."""
    rng = np.random.default_rng(802)
    out = []
    for name, (equations, root, order) in _load_gen().FAMILIES.items():
        n = len(equations[0][0][1])
        center = tuple(root + 1e-4 * rng.standard_normal(n))
        for k, terms in enumerate(equations):
            degree = max(sum(e) for _c, e in terms)
            full = TruncatedSeries((0.0,) * n, max(degree, order), {e: c for c, e in terms})
            out.append((f"{name}[{k}]", ts_recenter(full, center, order)))
    return out


FAMILY_EQUATIONS = family_equations()


def seeded_points(f: TruncatedSeries, rng) -> np.ndarray:
    """16 points: the center itself, then offsets from 1e-9 to 1."""
    center = np.array(f.center)
    offsets = rng.standard_normal((15, f.dim)) + 1j * rng.standard_normal((15, f.dim))
    offsets *= np.logspace(-9, 0, 15)[:, None]
    return np.vstack([center, center + offsets])


def reference_evaluate(f: TruncatedSeries, x) -> complex:
    """f at x in Python complex arithmetic: each term is its coefficient
    times dx_i^a from power tables built from 1 + 0j, variable by variable (a
    zero exponent skipped), and the terms are summed in stored order from
    0 + 0j."""
    dx = [complex(xi) - ci for xi, ci in zip(x, f.center)]
    powers = []
    for i in range(f.dim):
        row = [1.0 + 0.0j]
        for _ in range(max((alpha[i] for alpha in f.coefficients), default=0)):
            row.append(row[-1] * dx[i])
        powers.append(row)
    total = 0.0 + 0.0j
    for alpha, c in f.coefficients.items():
        term = c
        for i, a in enumerate(alpha):
            if a:
                term *= powers[i][a]
        total += term
    return total


def evaluate_many(f: TruncatedSeries, points) -> np.ndarray:
    return _evaluate((f,), points)[0]


class TestEvaluateMany:
    @pytest.mark.parametrize(
        "index,eq", enumerate(eq for _, eq in FAMILY_EQUATIONS), ids=[n for n, _ in FAMILY_EQUATIONS]
    )
    def test_family_equation_and_derivatives(self, index, eq):
        rng = np.random.default_rng(index)
        series = [eq] + [ts_derivative(eq, i) for i in range(eq.dim)]
        for f in series:
            points = seeded_points(f, rng)
            want = [reference_evaluate(f, x) for x in points]
            got = evaluate_many(f, points)
            assert all(g == w for g, w in zip(got, want))
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits([ts_evaluate(f, x) for x in points]), bits(want))

    def test_random_complex_series(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            f = random_polynomial(rng, n=n, degree=4, center=tuple(rng.standard_normal(n)))
            points = seeded_points(f, rng)
            want = [reference_evaluate(f, x) for x in points]
            assert np.array_equal(bits(evaluate_many(f, points)), bits(want))

    def test_zero_series(self):
        f = TruncatedSeries((0.5, 0.5), 2, {})
        assert np.array_equal(bits(evaluate_many(f, np.ones((3, 2)))), bits(np.zeros(3)))


class TestCenterShortcut:
    def test_value_is_the_constant(self):
        rng = np.random.default_rng(11)
        f = random_polynomial(rng, n=3, degree=3, center=(0.1, -0.2j, 0.3))
        assert ts_evaluate(f, f.center) == f.constant

    def test_no_constant_term_gives_zero(self):
        f = TruncatedSeries((1.0, 2.0), 2, {(1, 0): 3.0, (1, 1): -1.0})
        value = ts_evaluate(f, f.center)
        assert value == f.constant == 0
        assert isinstance(value, complex)

    def test_jacobian_is_the_linear_coefficients(self):
        x0 = (1.0 + 1e-4, 1.0 - 2e-4, 1.0 + 3e-5, 1.0)
        system = kss(4, x0)
        j0 = jacobian_at(system, system.center)
        linear = [
            [eq.coefficient(tuple(int(k == j) for k in range(4))) for j in range(4)]
            for eq in system.equations
        ]
        assert np.array_equal(j0, np.array(linear, dtype=complex))


def reference_residual(j0, values, rows, cols) -> float:
    """||K(f)(x0)|| of one pivot block, one block at a time."""
    s, n = j0.shape
    other_rows = [i for i in range(s) if i not in set(rows)]
    other_cols = [j for j in range(n) if j not in set(cols)]
    a0 = j0[np.ix_(rows, cols)]
    acc = float(np.sum(np.abs(values[list(rows)]) ** 2))
    if other_rows and other_cols:
        schur = j0[np.ix_(other_rows, other_cols)] - j0[np.ix_(other_rows, cols)] @ np.linalg.solve(
            a0, j0[np.ix_(rows, other_cols)]
        )
        acc += float(np.sum(np.abs(schur) ** 2))
    return math.sqrt(acc)


class TestPivotResiduals:
    @pytest.mark.parametrize("noise", [0.0, 1e-8])
    def test_rank_two_jacobian(self, noise):
        rng = np.random.default_rng(8)
        s, n, r = 10, 4, 2
        j0 = (rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        j0 = j0 + noise * rng.standard_normal((s, n))
        values = 1e-6 * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
        pairs = [(rows, cols) for rows in combinations(range(s), r) for cols in combinations(range(n), r)]
        rows = np.array([p[0] for p in pairs])
        cols = np.array([p[1] for p in pairs])
        other_rows = np.array([[i for i in range(s) if i not in p[0]] for p in pairs])
        other_cols = np.array([[j for j in range(n) if j not in p[1]] for p in pairs])
        got = _pivot_residuals(j0, values, rows, cols, other_rows, other_cols)
        want = [reference_residual(j0, values, *p) for p in pairs]
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

        # The pivot choice over the same candidates, by the same rule.
        kmin = min(want)
        scale = float(np.linalg.norm(j0, 2))
        band = kmin * (1.0 + 1e-3) + 1e-15 * scale
        tied = [(p[1], p[0]) for p, k in zip(pairs, want) if k <= band]
        cols_ref, rows_ref = min(tied)
        rows, cols, sigma_min = _kerneling_pivots(j0, values, r, scale)
        assert (rows, cols) == (rows_ref, cols_ref)
        # The search's batched sigma_min is the one-block SVD's, bit for bit.
        one_block = np.linalg.svd(j0[np.ix_(rows, cols)], compute_uv=False)[-1]
        assert np.array_equal(np.array(sigma_min).view(np.uint64), one_block.view(np.uint64))


def reference_extraction(f: AnalyticSystem, x0, j0) -> tuple[tuple[int, ...], RankReport]:
    """Extraction's subset choice, one subset at a time, and its rank report:
    the smallest residual, a NaN residual last, and a tie to the first
    subset."""
    n, s = f.dim, f.size
    values = system_evaluate(f, x0)
    x0a = np.array([complex(t) for t in x0])
    best = None
    combos = list(combinations(range(s), n))
    for combo, sigma in zip(combos, singular_values(j0[np.array(combos)])):
        if not rank_from_singular_values(sigma).full_rank:
            continue
        candidate = tuple(x0a - np.linalg.solve(j0[list(combo), :], values[list(combo)]))
        residual = float(np.linalg.norm([ts_evaluate(eq, candidate) for eq in f.equations]))
        if best is None or (math.isnan(residual), residual, combo) < best:
            best = (math.isnan(residual), residual, combo)
    return best[-1], numerical_rank(j0[list(best[-1]), :])


class TestExtraction:
    def test_subset_choice_matches_the_one_subset_loop(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = 2 + trial % 3
            f = random_system(rng, n=n, s=n + 2 + trial % 3, degree=3)
            if trial % 2:
                # A repeated equation: every subset holding both copies is singular.
                f = f.with_equations(f.equations + f.equations[:1])
            x0 = tuple(0.1 * rng.standard_normal(n))
            j0 = jacobian_at(f, x0)
            values = system_evaluate(f, x0)
            _square, chosen, report, _point = _extract_square_indexed(f, x0, j0, values)
            assert (chosen, report) == reference_extraction(f, x0, j0)

    @pytest.mark.filterwarnings("error")
    def test_nan_residual_ranks_last(self):
        """{x - 1.5, y, x + 2y + 1e308 x^2 - 1e308 x^3} at the origin: the
        Newton points of rows (0, 1) and (0, 2), (1.5, 0) and (1.5, -0.75),
        take the third equation to inf - inf, a NaN residual (its exact value
        is finite), and rows (1, 2) keep the origin, residual 1.5.  No numpy
        warning is printed."""
        origin = (0.0, 0.0)
        f = AnalyticSystem(2, (
            TruncatedSeries(origin, 3, {(1, 0): 1.0, (0, 0): -1.5}),
            TruncatedSeries(origin, 3, {(0, 1): 1.0}),
            TruncatedSeries(
                origin, 3, {(1, 0): 1.0, (0, 1): 2.0, (2, 0): 1e308, (3, 0): -1e308}
            ),
        ), origin, 1.0)
        j0 = jacobian_at(f, origin)
        values = system_evaluate(f, origin)
        _square, chosen, report, point = _extract_square_indexed(f, origin, j0, values)
        assert (chosen, point) == ((1, 2), (0j, 0j))
        assert (chosen, report) == reference_extraction(f, origin, j0)

    def test_smallest_residual_fails_the_rank_test(self):
        """{x, 0.01 y, x + y} at the origin: every Newton point is the
        origin, so all three subsets tie on residual 0.  Rows (0, 1) come
        first and are nonsingular, but sigma = (1, 0.01) reads as rank 1;
        rows (0, 2) are the first the rank test reads as full rank."""
        origin = (0.0, 0.0)
        f = AnalyticSystem(2, (
            TruncatedSeries(origin, 1, {(1, 0): 1.0}),
            TruncatedSeries(origin, 1, {(0, 1): 0.01}),
            TruncatedSeries(origin, 1, {(1, 0): 1.0, (0, 1): 1.0}),
        ), origin, 1.0)
        j0 = jacobian_at(f, origin)
        values = system_evaluate(f, origin)
        assert not rank_from_singular_values(singular_values(j0[[0, 1]])).full_rank
        _square, chosen, report, point = _extract_square_indexed(f, origin, j0, values)
        assert (chosen, point) == ((0, 2), (0j, 0j))
        assert report.full_rank
        assert (chosen, report) == reference_extraction(f, origin, j0)

    def test_benchmark_inputs(self, tmp_path):
        """The extraction rounds of the family inputs (8 per family, seed
        802) and of 8 gy2 points, at x0 and at the first Newton iterate."""
        gen = _load_gen()
        paths = [p for block in gen.family_inputs(tmp_path, 802, 8) for p in block]
        paths += gen.gy2_inputs(tmp_path, 0, 7)
        rounds = 0
        for path in paths:
            system, point, options = parse_system(str(path))
            backend = options["backend"]
            for x0 in newton_iterate(system, point, 1, backend):
                trace = deflation_sequence(recenter_system(system, x0), x0, backend)
                if trace.deflated is None:
                    continue
                f = trace.steps[-2].system
                j0 = jacobian_at(f, x0)
                values = system_evaluate(f, x0)
                _square, chosen, report, _point = _extract_square_indexed(f, x0, j0, values)
                assert (chosen, report) == reference_extraction(f, x0, j0), path.stem
                rounds += 1
        assert rounds >= len(paths)


class TestNormCaches:
    def test_caches_are_bounded(self):
        assert _monomial_weight.cache_info().maxsize is not None
        assert _slice_moments.cache_info().maxsize is not None

    def test_moment_matrix_is_read_only(self):
        f = random_polynomial(np.random.default_rng(10), n=2, degree=3)
        ball = BallContext((0.0, 0.0), 1.5, 2)
        first = series_norm_a2(f, ball, APPENDIX_SLICE)
        moments = _slice_moments(tuple(f.coefficients), 2, 1.5)
        assert moments.flags.writeable is False
        with pytest.raises(ValueError):
            moments[0, 0] = 1.0
        assert series_norm_a2(f, ball, APPENDIX_SLICE) == first


def family_systems():
    """Each benchmark family as one system, from ``FAMILY_EQUATIONS``."""
    groups: dict[str, list[TruncatedSeries]] = {}
    for name, eq in FAMILY_EQUATIONS:
        groups.setdefault(name.split("[")[0], []).append(eq)
    return [
        AnalyticSystem(eqs[0].dim, tuple(eqs), eqs[0].center, 1.0) for eqs in groups.values()
    ]


class TestEvaluatePadded:
    def test_mixed_term_counts_a_zero_equation_and_the_center(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4):
            center = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            eqs = [random_polynomial(rng, n=n, degree=d, center=center) for d in (1, 3, 4)]
            sparse = dict(list(eqs[2].coefficients.items())[::3])
            eqs += [
                TruncatedSeries(center, 4, sparse),
                TruncatedSeries(center, 2, {}),
                TruncatedSeries(center, 0, {(0,) * n: 2.5 - 1j}),
            ]
            f = AnalyticSystem(n, tuple(eqs), center, 10.0)
            points = seeded_points(eqs[0], rng)  # the center first
            want = [[reference_evaluate(eq, x) for eq in f.equations] for x in points]
            got = system_evaluate_many(f, points)
            assert got.shape == (len(points), len(eqs))
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_terms_with_zero_to_n_nonzero_exponents(self, n):
        """Many points; every term count from 1 to 12, and terms with every
        number of nonzero exponents from 0 to n, in a shuffled stored order."""
        rng = np.random.default_rng(40 + n)
        center = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        eqs = []
        for size in range(1, 13):
            coeffs = {}
            while len(coeffs) < size:
                alpha = [0] * n
                for i in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
                    alpha[i] = int(rng.integers(1, 4))
                coeffs[tuple(alpha)] = complex(*rng.standard_normal(2))
            eqs.append(TruncatedSeries(center, 3 * n, coeffs))
        nonzero = {sum(a > 0 for a in alpha) for eq in eqs for alpha in eq.coefficients}
        assert nonzero == set(range(n + 1))
        rng.shuffle(eqs)
        f = AnalyticSystem(n, tuple(eqs), center, 10.0)
        points = np.vstack([seeded_points(eqs[0], rng) for _ in range(4)])
        want = [[reference_evaluate(eq, x) for eq in f.equations] for x in points]
        assert np.array_equal(bits(system_evaluate_many(f, points)), bits(want))

    def test_far_points_overflow(self):
        """Offsets of 1e60 to 1e160, and one real offset of 1e200: powers and
        products overflow to inf, and inf times zero or the sum of opposite
        infinities gives NaN, as in Python's arithmetic."""
        rng = np.random.default_rng(44)
        center = (0.5, -0.25j, 1.0)
        eqs = [random_polynomial(rng, n=3, degree=d, center=center) for d in (2, 3, 4)]
        eqs.append(TruncatedSeries(center, 5, {(5, 0, 0): 1.0, (0, 2, 3): -2.0j, (0, 0, 0): 1.0}))
        f = AnalyticSystem(3, tuple(eqs), center, 1.0)
        points = np.array(center) + 10.0 ** rng.uniform(60, 160, (12, 1)) * (
            rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        )
        points = np.vstack([points, np.array(center) + [1e200, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = system_evaluate_many(f, points)
        want = [[reference_evaluate(eq, x) for eq in f.equations] for x in points]
        assert np.isinf(got).any() and np.isnan(got).any() and np.isfinite(got).any()
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("f", family_systems(), ids=lambda f: f"n{f.dim}")
    def test_family_systems(self, f):
        points = seeded_points(f.equations[0], np.random.default_rng(f.dim))
        want = [system_evaluate(f, x) for x in points]
        assert np.array_equal(bits(system_evaluate_many(f, points)), bits(want))


def reference_jacobian(f, x) -> list[list[complex]]:
    """Each entry on its own: the value at x of the partial derivative."""
    return [[ts_evaluate(ts_derivative(eq, j), x) for j in range(f.dim)] for eq in f.equations]


class TestJacobianAt:
    @pytest.mark.parametrize("f", family_systems(), ids=lambda f: f"n{f.dim}")
    def test_family_systems_on_and_off_center(self, f):
        points = seeded_points(f.equations[0], np.random.default_rng(f.dim))
        for x in points:
            want = reference_jacobian(f, x)
            assert np.array_equal(bits(jacobian_at(f, x)), bits(want))

    def test_random_systems_off_center(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            f = random_system(rng, n=n, s=n + 1, degree=3)
            for x in seeded_points(f.equations[0], rng)[1:]:
                want = reference_jacobian(f, x)
                assert np.array_equal(bits(jacobian_at(f, x)), bits(want))


def reference_recenter(f: TruncatedSeries, new_center, new_order: int) -> TruncatedSeries:
    """``ts_recenter`` with every row comb(a, b) delta^(a-b) built per term."""
    delta = [complex(nc) - oc for nc, oc in zip(new_center, f.center)]
    coeffs = {}
    for alpha, c in f.coefficients.items():
        per_var = [
            [math.comb(a, b) * delta[i] ** (a - b) for b in range(a + 1)]
            for i, a in enumerate(alpha)
        ]
        for beta in product(*(range(a + 1) for a in alpha)):
            if sum(beta) > new_order:
                continue
            w = c
            for i, b in enumerate(beta):
                w *= per_var[i][b]
            if w != 0:
                coeffs[beta] = coeffs.get(beta, 0.0) + w
    return TruncatedSeries(new_center, new_order, coeffs)


class TestRecenter:
    def test_against_the_per_term_rows(self):
        rng = np.random.default_rng(14)
        cases = [eq for _, eq in FAMILY_EQUATIONS]
        cases += [random_polynomial(rng, n=n, degree=4) for n in (2, 3, 4)]
        for f in cases:
            for new_order in range(f.order + 1):
                step = 10.0 ** rng.uniform(-6, 0) * rng.standard_normal(f.dim)
                # A shifted center, then f's own center.
                for new_center in (tuple(np.array(f.center) + step), f.center):
                    got = ts_recenter(f, new_center, new_order)
                    want = reference_recenter(f, new_center, new_order)
                    assert (got.center, got.order) == (want.center, want.order)
                    assert list(got.coefficients) == list(want.coefficients)
                    assert np.array_equal(
                        bits(list(got.coefficients.values())),
                        bits(list(want.coefficients.values())),
                    )


def assert_same_series(got: TruncatedSeries, want: TruncatedSeries) -> None:
    """Equal center and order, the same exponents in the same stored order,
    and the same coefficient bits."""
    assert (got.center, got.order) == (want.center, want.order)
    assert list(got.coefficients) == list(want.coefficients)
    assert np.array_equal(
        bits(list(got.coefficients.values())), bits(list(want.coefficients.values()))
    )


def one_input_per_family(tmp_path) -> list:
    """gy2's fixture and one family input (seed 802), as the CLI reads them."""
    gen = _load_gen()
    paths = [REPO / "fixtures" / "gy2.json"]
    paths += [p for block in gen.family_inputs(tmp_path, 802, 1) for p in block]
    return [parse_system(str(p)) for p in paths]


class TestRecenterSeries:
    """``recenter_series``, the one recentering kernel, against the per-term
    expansion ``reference_recenter``."""

    def test_family_systems_at_x0_and_at_their_iterates(self, tmp_path):
        for system, point, options in one_input_per_family(tmp_path):
            trajectory = newton_iterate(system, point, 3, options["backend"])
            far = tuple(np.array(point) + 0.1)
            for x in [*trajectory, far]:
                got = recenter_system(system, x)
                assert got.ball_center == got.center == tuple(map(complex, x))
                for g, eq in zip(got.equations, system.equations, strict=True):
                    assert_same_series(g, reference_recenter(eq, x, eq.order))

    def test_parse_system(self, tmp_path):
        """The parsed system is its polynomials, read at the origin,
        recentered at the file's point."""
        gen = _load_gen()
        for path in [p for block in gen.family_inputs(tmp_path, 5, 1) for p in block]:
            system, point, _options = parse_system(str(path))
            data = json.loads(path.read_text())
            data["point"] = [0.0] * system.dim
            origin = tmp_path / "origin.json"
            origin.write_text(json.dumps(data))
            polynomials, _zero, options = parse_system(str(origin))
            for got, full in zip(system.equations, polynomials.equations, strict=True):
                assert_same_series(got, reference_recenter(full, point, options["order"]))

    def test_mixed_orders_and_exact_zero_offsets(self):
        rng = np.random.default_rng(15)
        for n in (2, 3, 4):
            center = tuple(rng.standard_normal(n) + 1j * rng.standard_normal(n))
            fs = [random_polynomial(rng, n=n, degree=d, center=center) for d in (1, 4, 2, 3)]
            # Highest degree first, and sparse: an output exponent's first
            # contributions can be exact zeros, which do not place it.
            backwards = list(fs[1].coefficients.items())[::-2]
            fs += [TruncatedSeries(center, 4, dict(backwards)), TruncatedSeries(center, 2, {})]
            for trial in range(6):
                step = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 0)
                # Some coordinates keep the old center exactly: delta_i = 0.
                step[rng.random(n) < 0.4] = 0.0
                if trial < 2:
                    step[trial] = 0.0
                new_center = tuple(np.array(center) + step)
                orders = [int(rng.integers(0, f.order + 1)) for f in fs]
                got = recenter_series(fs, new_center, orders)
                for g, f, order in zip(got, fs, orders, strict=True):
                    assert_same_series(g, reference_recenter(f, new_center, order))

    def test_own_center(self):
        rng = np.random.default_rng(16)
        f = random_system(rng, n=3, s=4, degree=3)
        assert recenter_system(f, f.center) is f
        # A ball elsewhere moves with the series: a new system, equal series.
        moved = AnalyticSystem(3, f.equations, (0.1, 0.0, 0.0), 1.0)
        again = recenter_system(moved, f.center)
        assert again is not moved and again.ball_center == f.center
        for g, eq in zip(again.equations, f.equations, strict=True):
            assert_same_series(g, eq)
        for order in range(4):
            for g, eq in zip(recenter_series(f.equations, f.center, [order] * 4), f.equations):
                assert_same_series(g, ts_truncate(eq, order))

    def test_inf_and_nan_coefficients(self):
        """inf times an exact zero or one, and sums of opposite infinities,
        give Python's NaNs and signed zeros; at the own center the series is
        only truncated."""
        center = (0.25, -0.5j, 1.0)
        fs = [
            TruncatedSeries(center, 3, {(1, 0, 0): math.inf, (0, 2, 0): 1.0 - 2.0j}),
            TruncatedSeries(center, 3, {(0, 0, 0): math.nan, (1, 1, 1): complex(0.0, -math.inf)}),
            TruncatedSeries(
                center, 4, {(2, 0, 2): -math.inf, (2, 0, 1): math.inf, (0, 0, 1): 3.0}
            ),
        ]
        for shift in [(0.5, 0.0, 0.0), (0.0, 0.0, -1e-3), (1e-3, 2e-3j, -3e-3)]:
            new_center = tuple(np.array(center) + shift)
            for order in (0, 2, 3):
                got = recenter_series(fs, new_center, [order] * 3)
                for g, f in zip(got, fs):
                    assert_same_series(g, reference_recenter(f, new_center, order))
        for g, f in zip(recenter_series(fs, center, [2, 2, 2]), fs):
            assert_same_series(g, ts_truncate(f, 2))

    def test_overflow_raises(self):
        """(1e300)^2 in the factor table raises, as Python's power does."""
        f = TruncatedSeries((0.0, 0.0), 3, {(2, 1): 1.0, (0, 0): 1.0})
        with pytest.raises(OverflowError):
            reference_recenter(f, (1e300, 0.0), 3)
        with pytest.raises(OverflowError):
            ts_recenter(f, (1e300, 0.0), 3)
        with pytest.raises(OverflowError):
            recenter_system(AnalyticSystem(2, (f, f), (0.0, 0.0), 1.0), (1e300, 1.0))

    def test_layout_caches_are_bounded_and_read_only(self):
        f = random_system(np.random.default_rng(17), n=2, s=2, degree=3)
        recenter_system(f, (0.1, 0.2))
        system_evaluate_many(f, [(0.1, 0.2)])
        for cache in (_recenter_layout, _evaluate_layout, jacobian_layout):
            assert cache.cache_info().maxsize == 64
        patterns = tuple((eq.order, tuple(eq.coefficients)) for eq in f.equations)
        layout = _recenter_layout(2, patterns)
        with pytest.raises(ValueError):
            layout.term[0] = 1
        exponents = tuple(tuple(eq.coefficients) for eq in f.equations)
        layout = jacobian_layout(exponents, 2, 2, (0,), (0,))
        for array in (layout.src, layout.mult, layout.positions):
            with pytest.raises(ValueError):
                array[0] = 1


class TestNewtonStep:
    def test_step_is_newton_on_the_deflated_system(self, tmp_path):
        """``singular_newton_step`` takes extraction's Newton point: x0 -
        J^{-1} F(x0) of the deflated square system, bit for bit, at x0 and at
        the later iterates."""
        steps = 0
        for system, point, options in one_input_per_family(tmp_path):
            backend = options["backend"]
            for x0 in newton_iterate(system, point, 3, backend):
                got = singular_newton_step(system, x0, backend)
                trace = deflation_sequence(recenter_system(system, x0), x0, backend)
                if trace.deflated is None:
                    assert got == x0
                    continue
                square = trace.deflated
                delta = np.linalg.solve(jacobian_at(square, x0), system_evaluate(square, x0))
                want = tuple(complex(a - b) for a, b in zip(x0, delta))
                assert np.array_equal(bits(got), bits(want))
                steps += 1
        assert steps >= 9
