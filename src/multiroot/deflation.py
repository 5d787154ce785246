"""Deflation sequences and the singular Newton operator.

The pipeline, for a point x0 near a multiple root:

1. *Selection* replaces each equation by the partial derivatives one order
   below its observed valuation, found by recursive smallness gating: an
   equation whose value at x0 falls under the threshold

       eta = 2 alpha0 / ((n+1)(n+2) (R + ||f_k||) R^(n-2))

   is provisionally kept and its nonzero gradient entries are examined; the
   first derivative that fails the gate retains its parent, once.  The gate is
   decided bound first: eta(||f||) <= eta(0), so a value above eta(0) fails
   without a norm, and only the other values are tested against
   eta(||f||).  Selection expands f around x0 first, so a child's value is
   a linear coefficient of its parent, and a child that fails the bound is
   never built.  Each distinct series is walked once per selection: a
   repeat of one already walked takes its outcome.
2. *Kerneling* splits the Jacobian along an invertible r x r pivot block,
   r the numerical rank at x0, and appends the Schur-complement entries to
   the pivot equations.  ``kernel_op`` reads only the system and the block's
   indices; the rank and x0 enter through the pivot choice.
3. Steps 1-2 repeat until the Jacobian reaches full numerical rank; a square
   system of full rank is then extracted, by one search over the n-subsets
   of equations.  Both searches are exhaustive; one with more candidates
   than its cap fails, naming the count.  The number of kerneling rounds is
   the *thickness* of the sequence.

Classical Newton on the extracted square system is the singular Newton
operator of the original system.  Extraction already solves J_S delta =
F_S(x0) for every nonsingular subset S to compare their Newton points, so the
chosen subset's point x0 - delta is kept with the extraction step and is the
step; every system of a deflation is expanded around x0, in the caller's
ball, and one already centered there is deflated as it is, with the norms
its series keep.  Every routine here is a pure function over immutable
snapshots; traces are safe to share once built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .bergman import BallContext, _check_backend, norm_a2, nu, series_norm_a2
from .errors import (
    DomainError,
    ExtractionError,
    HypothesisFailure,
    RankDeficiencyError,
    TruncationExhaustedError,
)
from .rank import (
    RankReport,
    numerical_rank,
    rank_from_singular_values,
    singular_values,
)
from .schur import jacobian_schur
from .series import (
    ZERO_RTOL,
    AnalyticSystem,
    TruncatedSeries,
    is_zero_series,
    jacobian_at,
    max_coeff,
    maxima_apart,
    recenter_series,
    recenter_system,
    series_close,
    system_evaluate,
    system_evaluate_many,
    ts_derivative,
    ts_evaluate,
    ts_truncate,
)

__all__ = [
    "ALPHA0",
    "SmallnessGate",
    "SelectionRecord",
    "DeflationStep",
    "DeflationTrace",
    "eta_threshold",
    "is_small",
    "select_detailed",
    "kernel_op",
    "deflation_sequence",
    "truncated_deflation",
    "extract_square",
    "singular_newton_step",
    "newton_iterate",
]


# The smallest positive root of (1 - 4u + 2u^2)^2 - 2u, which expands to
# 4u^4 - 16u^3 + 20u^2 - 10u + 1.  The double lies between 2 and 3 ulps below
# the root, on the conservative side: a smaller alpha0 gives a smaller eta.
ALPHA0 = 0.130716944352002

_STAGNATION_RTOL = 1e-15
# Cost caps on the candidates of the pivot-block and extraction searches,
# each one batched pass.  Just below each cap (Intel Xeon, median of 7, peak
# by tracemalloc): 1,680 pivot blocks (9 x 6, rank 3) take ~15 ms and 2.9 MB;
# 4,950 subsets (100 x 2, all admitted) take ~107 ms and 61 MB.  The cap
# counts candidates, not their size: 2,000 blocks of a 50 x 40 rank-1
# Jacobian, each with a 49 x 39 Schur complement, take ~310 ms and 188 MB.
_PIVOT_BRUTE_LIMIT = 2000
_EXTRACT_BRUTE_LIMIT = 5000


@dataclass(frozen=True)
class SmallnessGate:
    """Outcome of one evaluation-smallness test."""

    eta: float
    value_norm: float
    passed: bool


@dataclass(frozen=True)
class SelectionRecord:
    """Provenance of one retained equation: source index and derivative."""

    source: int
    derivative: tuple[int, ...]

    @property
    def depth(self) -> int:
        return sum(self.derivative)


@dataclass(frozen=True)
class DeflationStep:
    """One system of the sequence with its gate, rank and pivot data.

    ``kind`` is "selection" for F_0 = S(f), "kerneling" for each later
    F_{k+1} = S(K(F_k)), and "extraction" for the final square system.  The
    pivot lists attached to a step are the ones derived from its own rank
    report: the Schur pivots when the rank is deficient, the extracted
    equation indices at full rank.  The extraction step also keeps
    ``newton_point``, x0 - J^{-1} F(x0) for the extracted square system F
    and its Jacobian J at x0: the singular Newton step.
    """

    kind: str
    system: AnalyticSystem
    gate: SmallnessGate | None
    rank_report: RankReport | None
    pivot_rows: tuple[int, ...] | None
    pivot_cols: tuple[int, ...] | None
    provenance: tuple[SelectionRecord, ...] = ()
    mu: float | None = None
    newton_point: tuple[complex, ...] | None = None


@dataclass(frozen=True)
class DeflationTrace:
    """The full record of a deflation run.

    ``steps`` has one step per selection the run made, followed, when the
    run deflates, by the extraction step.  A run ends in a deflated square
    system or in ``failure``, which names the failed hypothesis, the index k
    of the system F_k it failed on, and the detail; the last step is then
    the round that failed, with what it decided before the failure (a failed
    gate, or a rank report with no pivots).  A selection that retains
    nothing adds no step.  ``thickness`` is the number of kerneling rounds,
    p0 and p the valuations max(depth) + 1 of the first and of the later
    selections (both 0 when no selection was made), and ``mu_values`` the
    steps' mu.
    """

    steps: tuple[DeflationStep, ...]
    thickness: int
    deflated: AnalyticSystem | None
    input_system: AnalyticSystem
    deflated_indices: tuple[int, ...] | None
    p0: int
    p: int
    mu_values: tuple[float, ...]
    failure: str | None

    @property
    def gate_failed(self) -> bool:
        return self.deflated is None and any(
            s.gate is not None and not s.gate.passed for s in self.steps
        )

    @property
    def mu_max(self) -> float:
        return max(self.mu_values) if self.mu_values else float("nan")


def eta_threshold(norm_f: float, n: int, radius: float) -> float:
    """Smallness threshold 2 alpha0 / ((n+1)(n+2)(R + ||f||) R^(n-2))."""
    if n < 2:
        raise DomainError("eta threshold requires ambient dimension n >= 2")
    if radius <= 0:
        raise DomainError("eta threshold requires a positive radius")
    if norm_f < 0:
        raise DomainError("negative norm")
    return 2.0 * ALPHA0 / ((n + 1) * (n + 2) * (radius + norm_f) * radius ** (n - 2))


def _gate_value_norm(values: np.ndarray, n: int) -> float:
    """Evaluation norm used by system-level gates.

    Euclidean norm of the n smallest component magnitudes.  For square or
    underdetermined systems this is the plain euclidean norm; for the
    overdetermined systems produced by selection/kerneling it measures the
    best square subsystem, which is what the extracted system will consist
    of.  (See the test suite: the golden gate values, and the fact that the
    canonical example must pass its round-1 gate, both force this choice over
    the all-component norm.)
    """
    mags = np.sort(np.abs(values))
    take = mags[: min(n, mags.size)]
    return float(np.sqrt(np.sum(take**2)))


def is_small(
    f: TruncatedSeries | AnalyticSystem,
    x0: Sequence[complex],
    ball: BallContext,
    backend: str,
) -> SmallnessGate:
    """Gate test: is the evaluation at x0 below the eta threshold?"""
    if isinstance(f, AnalyticSystem):
        return _gate(ball, norm_a2(f, backend), _gate_value_norm(system_evaluate(f, x0), f.dim))
    return _gate(ball, series_norm_a2(f, ball, backend), abs(ts_evaluate(f, x0)))


def _gate(ball: BallContext, norm: float, value: float) -> SmallnessGate:
    """The gate of a value at x0 whose function has norm ``norm``: eta and
    the verdict, for ``is_small``, the selection walk and every round."""
    eta = eta_threshold(norm, ball.dim, ball.radius)
    return SmallnessGate(eta, value, value <= eta)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def select_detailed(
    f: AnalyticSystem,
    x0: Sequence[complex],
    backend: str,
) -> tuple[AnalyticSystem, tuple[SelectionRecord, ...]]:
    """Selection operator S, recursive smallness-gated derivative replacement,
    with provenance records for each retained equation.

    f's series are first expanded around x0 at their own orders, in f's
    ball, unless they are centered there already; an x0 outside the open
    ball raises ``DomainError``, since every bound the gate rests on needs
    it inside.  Each equation is then walked depth first, a passing node's
    nonzero partial derivatives in variable order.  A node that fails its
    gate retains its parent (the equation itself at the root) unless an
    equal series is already retained: ``walk`` returns whether the node
    failed, and a parent retains itself at its first failing child, before
    its later children are walked.  Work whose outcome is already decided
    is skipped; every decision is the one ``is_small``'s gate would take:

    - A node whose order and coefficients (in stored order) equal those of a
      node already walked, all of them finite, returns that node's result:
      its gate and its children's gates are the same, and every series its
      subtree would retain equals, coefficient for coefficient, one the first
      walk retained or found retained, so ``retain`` rejects it.  A NaN or
      an infinity makes ``series_close`` false, so such a node is walked.
    - A node's value at x0 is its constant coefficient, and it fails whenever
      |value| > eta(0): R + ||f|| >= R rounds monotonically, so eta(||f||)
      <= eta(0).  Only the other nodes pay for a norm.
    - A pending series whose largest coefficient differs from a retained
      one's by more than the zero threshold allows cannot equal it
      (``maxima_apart``), so it is not compared coefficient by coefficient.
    - Child i's value is |coefficient of e_i|.  When that exceeds both
      eta(0) and the zero floor ZERO_RTOL (1 + max_coeff), the child is
      nonzero and fails: its parent is retained and no derivative is built.
      A variable with no positive exponent has an empty derivative and is
      skipped.  A passing node of order 0 has no live variable and so no
      child: it is numerically the zero function at this truncation order,
      and its branch retains nothing (the recursive algorithm runs on an
      empty set).
    """
    x0 = tuple(complex(v) for v in x0)
    ball = BallContext.of(f)
    if f.center != x0:
        nu(x0, ball)
        f = f._with(recenter_series(f.equations, x0, [eq.order for eq in f.equations]))
    # The bound may decide every gate, so no norm would check the backend.
    _check_backend(backend)
    eta0 = eta_threshold(0.0, ball.dim, ball.radius)
    zero = (0,) * f.dim
    units = [_unit(f.dim, i) for i in range(f.dim)]
    retained: list[tuple[TruncatedSeries, SelectionRecord, float]] = []
    walked: dict[tuple, bool] = {}

    def retain(series: TruncatedSeries, record: SelectionRecord, top: float) -> None:
        for kept, _, kept_top in retained:
            if series is kept or (
                not maxima_apart(top, kept_top)
                and series_close(series, kept, scale=1.0 + max(top, kept_top))
            ):
                return
        retained.append((series, record, top))

    def walk(eq: TruncatedSeries, record: SelectionRecord) -> bool:
        key = (eq.order, tuple(eq.coefficients), tuple(eq.coefficients.values()))
        failed = walked.get(key)
        if failed is None:
            failed = gate_and_descend(eq, record)
            if math.isfinite(sum(map(abs, key[2]))):
                walked[key] = failed
        return failed

    def gate_and_descend(eq: TruncatedSeries, record: SelectionRecord) -> bool:
        # is_small's gate, with the value read once for both tests.
        value = abs(eq.coefficients.get(zero, 0.0))
        if value > eta0:
            return True
        if not _gate(ball, series_norm_a2(eq, ball, backend), value).passed:
            return True
        top = max_coeff(eq)
        zero_floor = ZERO_RTOL * (1.0 + top)
        live = [i for i, column in enumerate(zip(*eq.coefficients)) if any(column)]
        retained_self = False
        for i in live:
            value = abs(eq.coefficients.get(units[i], 0.0))
            if value > eta0 and value > zero_floor:
                failed = True
            else:
                d = ts_derivative(eq, i)
                if is_zero_series(d, ref_magnitude=top):
                    continue
                drec = SelectionRecord(
                    record.source, tuple(a + b for a, b in zip(record.derivative, units[i]))
                )
                failed = walk(d, drec)
            if failed and not retained_self:
                retain(eq, record, top)
                retained_self = True
        return False

    try:
        for k, eq in enumerate(f.equations):
            rec = SelectionRecord(k, zero)
            if walk(eq, rec):
                retain(eq, rec, max_coeff(eq))
    finally:
        # walk and gate_and_descend refer to each other; unbinding one frees
        # the walk's memo and series when the call returns, not at the next
        # pass of the cyclic garbage collector.
        gate_and_descend = None
    if not retained:
        raise TruncationExhaustedError(
            "selection retained no equations: every branch stayed under its "
            "gate to the end of the stored truncation order"
        )
    system = f._with(series for series, _, _ in retained)
    return system, tuple(rec for _, rec, _ in retained)


def _pivot_residuals(
    j0: np.ndarray, values: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    other_rows: np.ndarray, other_cols: np.ndarray,
) -> np.ndarray:
    """||K(f)(x0)|| for each candidate pivot (rows[i], cols[i]): the pivot
    equations' values and the evaluated Schur-complement entries
    D - C A^{-1} B, over the complementary rows and columns, for the whole
    stack of candidates at once.  With no complementary row the Schur block
    is empty and adds 0.0."""
    acc = np.sum(np.abs(values[rows]) ** 2, axis=-1)
    a = j0[rows[:, :, None], cols[:, None, :]]
    b = j0[rows[:, :, None], other_cols[:, None, :]]
    c = j0[other_rows[:, :, None], cols[:, None, :]]
    d = j0[other_rows[:, :, None], other_cols[:, None, :]]
    schur = d - c @ np.linalg.solve(a, b)
    acc = acc + np.sum(np.abs(schur.reshape(len(acc), -1)) ** 2, axis=-1)
    return np.sqrt(acc)


@functools.lru_cache(maxsize=64)
def _subsets(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m) in lexicographic order, one per row of a
    read-only array; built once per shape."""
    sets = tuple(combinations(range(m), r))
    chosen = np.array(sets, dtype=int).reshape(len(sets), r)
    chosen.flags.writeable = False
    return chosen


def _kerneling_pivots(
    j0: np.ndarray, values: np.ndarray, r: int, scale: float
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Pivot block choice for one kerneling round: (rows, cols, sigma_min).

    ``scale`` is ||J|| = sigma_max of j0, as the round's rank report holds it;
    it sets the rounding floor of the blocks' singular values and the width
    of the tie band.

    Among all nonsingular r x r pivot blocks, take the one minimizing the
    kerneling residual ||K(f)(x0)|| (the quantity the kerneling acceptance
    inequality tests); when the block takes every row (s == r), that is the
    norm of the pivot equations' values.  Candidates within 0.1% of the best
    are tied and resolved by smallest column indices, then smallest row
    indices, read off the subsets' lexicographic numbering.
    sigma_min is the block's smallest singular value.  More candidate blocks
    than ``_PIVOT_BRUTE_LIMIT`` raise ``RankDeficiencyError`` naming the
    count.
    """
    s, n = j0.shape
    count = math.comb(s, r) * math.comb(n, r)
    if count > _PIVOT_BRUTE_LIMIT:
        raise RankDeficiencyError(
            f"{count} candidate {r}x{r} pivot blocks exceed the search cap of "
            f"{_PIVOT_BRUTE_LIMIT}"
        )
    rows_a, cols_a = _subsets(s, r), _subsets(n, r)
    # Every candidate block at once: blocks[i, j] = j0[rows_a[i]][:, cols_a[j]].
    blocks = j0[rows_a[:, None, :, None], cols_a[None, :, None, :]]
    smin = singular_values(blocks, scale)[..., -1]
    ii, jj = np.nonzero(smin != 0.0)
    if not ii.size:
        raise RankDeficiencyError(
            f"no nonsingular {r}x{r} pivot block found (rank report disagrees "
            "with the matrix)"
        )
    # Row i of _subsets(m, m - r)[::-1] is the complement of rows_a[i].
    residuals = _pivot_residuals(
        j0, values, rows_a[ii], cols_a[jj],
        _subsets(s, s - r)[::-1][ii], _subsets(n, n - r)[::-1][jj],
    )
    band = residuals.min() * (1.0 + 1e-3) + 1e-15 * scale
    tied = np.flatnonzero(residuals <= band)
    best = tied[np.lexsort((ii[tied], jj[tied]))[0]]
    i, j = ii[best], jj[best]
    return tuple(rows_a[i].tolist()), tuple(cols_a[j].tolist()), float(smin[i, j])


def kernel_op(
    f: AnalyticSystem, pivots: tuple[Sequence[int], Sequence[int]]
) -> AnalyticSystem:
    """Kerneling operator K: pivot equations plus vec(Schur(Df)).

    ``pivots`` holds the row and column indices of an r x r pivot block of
    the Jacobian, where r is the rank being kerneled and r < n.  The output
    keeps the r pivot-row equations first, followed by the (s-r)(n-r)
    Schur-complement entries row-major, all truncated at the Jacobian's
    order (one below the system's), matching the truncated-deflation
    schedule.  The block is inverted at f's center, which in a deflation is
    x0, where the block was chosen.
    """
    row_idx, col_idx = pivots
    if len(row_idx) >= f.dim:
        raise DomainError("kerneling requires rank < n (nothing to eliminate)")
    order = max(f.min_order() - 1, 0)
    equations = [ts_truncate(f.equations[i], order) for i in row_idx]
    equations.extend(jacobian_schur(f, row_idx, col_idx, order))
    return f._with(equations)


def _extract_square_indexed(
    f: AnalyticSystem, x0: Sequence[complex], j0: np.ndarray, values: np.ndarray
) -> tuple[AnalyticSystem, tuple[int, ...], RankReport, tuple[complex, ...]]:
    """Extraction given the Jacobian j0 of f at x0, already read as rank n,
    and f's values at x0: (square system, its equation indices, its rank
    report, its Newton point x0 - J_S^{-1} F_S(x0)).

    The candidates are the nonsingular subsets S, those whose sigma_n stays
    above the rounding floor.  Each is ranked by one residual, ||f|| at its
    Newton point; a NaN ranks last, and a tie goes to the first subset, since
    subsets are numbered lexicographically.  The first candidate in that
    order that the rank test reads as full rank is taken; a full-rank report
    implies sigma_n > 0, so no subset of full rank is missed."""
    n = f.dim
    count = math.comb(f.size, n)
    if count > _EXTRACT_BRUTE_LIMIT:
        raise ExtractionError(
            f"{count} candidate equation subsets exceed the search cap of "
            f"{_EXTRACT_BRUTE_LIMIT}"
        )
    combos = _subsets(f.size, n)
    sigmas = singular_values(j0[combos])
    nonsingular = sigmas[:, -1] != 0.0
    candidates, sigmas = combos[nonsingular], sigmas[nonsingular]
    # Each candidate's Newton point, and every equation at all of them.
    delta = np.linalg.solve(j0[candidates], values[candidates][..., None])[..., 0]
    points = np.array([complex(t) for t in x0]) - delta
    residuals = [float(np.linalg.norm(row)) for row in system_evaluate_many(f, points)]
    ranked = sorted(range(len(residuals)), key=lambda k: (math.isnan(residuals[k]), residuals[k]))
    for best in ranked:
        report = rank_from_singular_values(sigmas[best])
        if report.full_rank:
            chosen = tuple(candidates[best].tolist())
            square = f._with(f.equations[i] for i in chosen)
            return square, chosen, report, tuple(points[best].tolist())
    raise ExtractionError("no equation subset achieves full numerical rank")


def extract_square(f: AnalyticSystem, x0: Sequence[complex]) -> AnalyticSystem:
    """A square subsystem whose Jacobian at x0 has full numerical rank.

    The candidates are the n-subsets of equations whose Jacobian at x0 is
    nonsingular; they are ranked by how well their Newton point satisfies
    the whole system (a NaN residual ranks last, and a tie goes to the
    lexicographically first subset), and the first that the threshold-free
    rank test reads as full rank is taken, in ascending equation order.
    More subsets than ``_EXTRACT_BRUTE_LIMIT`` raise ``ExtractionError``
    naming the count.
    """
    j0 = jacobian_at(f, x0)
    overall = numerical_rank(j0)
    if overall.rank < f.dim:
        raise ExtractionError(
            f"jacobian has numerical rank {overall.rank} < n = {f.dim}; no square "
            "system of full rank exists"
        )
    square, _idx, _report, _point = _extract_square_indexed(f, x0, j0, system_evaluate(f, x0))
    return square


def _run_rounds(
    f: AnalyticSystem,
    x0: Sequence[complex],
    backend: str,
    max_iters: int,
    order: int | None,
) -> DeflationTrace:
    """Shared loop behind deflation_sequence and truncated_deflation.

    Each selection adds one step when its round ends, built once with the
    round's gate and what the round decided before it ended: the rank
    report, the pivots and mu.  The run ends in the extracted square system
    or, at the first failed hypothesis, with ``failure`` naming it, and the
    trace is built from the steps.  ``order``, when given, truncates F_0,
    and with it every later system (see ``truncated_deflation``).
    """
    ball = BallContext.of(f)
    steps: list[DeflationStep] = []
    current, kind, k = f, "selection", 0
    failure = extraction = None
    try:
        while True:
            current, records = select_detailed(current, x0, backend)
            if k == 0 and order is not None:
                # An equation already within the order is kept, with its norms.
                current = current._with(
                    eq if eq.order <= order else ts_truncate(eq, order)
                    for eq in current.equations
                )
            values = system_evaluate(current, x0)
            gate = _gate(ball, norm_a2(current, backend), _gate_value_norm(values, current.dim))
            report = pivots = mu = None
            try:
                if not gate.passed:
                    failure = (
                        f"hypothesis 1.1 failed at k={k}: ||F_k(x0)|| = "
                        f"{gate.value_norm:.6g} > eta = {gate.eta:.6g}"
                    )
                    break
                j0 = jacobian_at(current, x0)
                report = numerical_rank(j0)
                if report.rank == 0:
                    failure = (
                        f"numerical rank 0 at k={k}: the rank test reads the "
                        f"Jacobian at x0 as zero (sigma_max = {report.sigma[0]:.6g})"
                    )
                    break
                if report.rank == current.dim:
                    square, chosen, square_report, point = _extract_square_indexed(
                        current, x0, j0, values
                    )
                    pivots = (chosen, tuple(range(current.dim)))
                    mu = 1.0 / square_report.sigma[-1]
                    extraction = DeflationStep(
                        "extraction", square, None, square_report, *pivots, newton_point=point
                    )
                    break
                rows, cols, sigma_min = _kerneling_pivots(
                    j0, values, report.rank, report.sigma[0]
                )
                pivots, mu = (rows, cols), 1.0 / sigma_min
            finally:
                # The round's step, with what it decided before it ended.
                steps.append(DeflationStep(
                    kind, current, gate, report, *(pivots or (None, None)), records, mu
                ))
            k += 1
            if k > max_iters:
                failure = f"round cap at k={k}: deflation exceeded {max_iters} kerneling rounds"
                break
            current, kind = kernel_op(current, pivots), "kerneling"
    except HypothesisFailure as exc:
        failure = f"{type(exc).__name__} at k={k}: {exc}"
    if extraction is not None:
        steps.append(extraction)
    valuations = [
        max(rec.depth for rec in s.provenance) + 1 for s in steps if s.kind != "extraction"
    ]
    p0 = valuations[0] if valuations else 0
    return DeflationTrace(
        steps=tuple(steps),
        thickness=k,
        deflated=None if extraction is None else extraction.system,
        input_system=f,
        deflated_indices=None if extraction is None else extraction.pivot_rows,
        p0=p0,
        p=max(valuations[1:], default=p0),
        mu_values=tuple(s.mu for s in steps if s.mu is not None),
        failure=failure,
    )


def deflation_sequence(
    f: AnalyticSystem,
    x0: Sequence[complex],
    backend: str,
    max_iters: int | None = None,
) -> DeflationTrace:
    """F0 = S(f), F_{k+1} = S(K(F_k)) until the Jacobian reaches rank n.

    Each round gates ||F(x0)|| against eta(||F||).  A failed hypothesis (the
    gate, a selection that retains nothing, rank 0, no pivot block, no
    extraction) ends the run with ``deflated = None`` and ``failure`` naming
    it; the round it ended is on record in the last step.  The iteration cap
    is a numerical safety net only (the exact theory terminates by strict
    multiplicity drop).
    """
    if max_iters is None:
        max_iters = f.dim * max(f.max_order(), 1) ** 2
    return _run_rounds(f, x0, backend, max_iters, None)


def truncated_deflation(
    f: AnalyticSystem,
    x0: Sequence[complex],
    ell: int,
    backend: str,
) -> DeflationTrace:
    """Deflation with the order schedule T_k truncated at (ell+1) - k.

    Equivalent to the full sequence as far as the singular Newton operator is
    concerned, provided ell is the true thickness and the input order is at
    least ell + 1.  Only F_0 is cut, at ell + 1; the cap allows ell rounds.
    """
    if ell < 0:
        raise DomainError("ell must be nonnegative")
    if f.min_order() < ell + 1:
        raise DomainError(
            f"series order {f.min_order()} too small for truncated deflation at ell={ell}"
        )
    # F_0 alone is cut: kernel_op truncates at the smallest order less one
    # and selection only lowers orders, so every later F_k already lies
    # within ell + 1 - k.
    return _run_rounds(f, x0, backend, ell, ell + 1)


def singular_newton_step(
    f: AnalyticSystem, x0: Sequence[complex], backend: str
) -> tuple[complex, ...]:
    """One step of the singular Newton operator at x0.

    The system is recentered and re-truncated at x0 (order preserved, ball
    carried to x0; a system already centered at x0 is used as it is), a
    deflation sequence is run, and classical Newton is applied to the
    extracted square system: the step is the extraction step's
    ``newton_point``, which extraction solved for when it chose the system.
    If no deflated system exists the point is returned unchanged.
    """
    x0 = tuple(complex(v) for v in x0)
    trace = deflation_sequence(recenter_system(f, x0), x0, backend)
    if trace.deflated is None:
        return x0
    return trace.steps[-1].newton_point


def newton_iterate(
    f: AnalyticSystem,
    x0: Sequence[complex],
    steps: int,
    backend: str,
) -> list[tuple[complex, ...]]:
    """Trajectory of the singular Newton operator, stopping at stagnation.

    Near a root the steps shrink.  A step no shorter than the one before it
    is driven by rounding error, not by the root (for instance a kerneling
    round whose pivot block is barely above the rounding floor), so the
    trajectory stops before it and its point is not recorded.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    traj = [tuple(complex(v) for v in x0)]
    last_move = math.inf
    for _ in range(steps):
        prev = traj[-1]
        nxt = singular_newton_step(f, prev, backend)
        if nxt == prev:
            # A failed hypothesis or an exact fixed point: record once and stop.
            traj.append(nxt)
            break
        move = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(nxt, prev)))
        if move >= last_move:
            break
        traj.append(nxt)
        scale = 1.0 + math.sqrt(sum(abs(a) ** 2 for a in prev))
        if move <= _STAGNATION_RTOL * scale:
            break
        last_move = move
    return traj
