"""Truncated multivariate power-series arithmetic.

Every system handled by this package is represented as a tuple of
:class:`TruncatedSeries`: finitely many Taylor coefficients around a common
center, indexed by exponent vectors.  A series of order ``p`` stores all
coefficients of total degree ``<= p``; absent exponents are zero.  All
operations are pure functions returning new values, so series and systems
are safe to share between threads.  A series keeps its last norm
(``multiroot.bergman``), so it must not be changed after construction; the
memo's write is idempotent.

Coefficients live in complex double precision; real data embeds with zero
imaginary parts.  Iteration over stored terms is always in graded
lexicographic order, which keeps every downstream computation and report
deterministic.

Two array kernels do the work on whole systems: ``_evaluate`` values series
away from their center, and ``recenter_series`` re-expands series around a
new center.  Each works on one flat array of all the series' terms (for
recentering, their contributions) in stored order, sums them into their
outputs from 0 + 0j with ``np.add.at``, and gives, bit for bit, what the
term-by-term Python arithmetic gives.  What depends only on where the coefficients are (the
exponents, and for recentering the orders) is a layout built once per
pattern in a bounded cache.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import StructuralError

__all__ = [
    "TruncatedSeries",
    "AnalyticSystem",
    "ts_derivative",
    "ts_evaluate",
    "ts_recenter",
    "ts_truncate",
    "max_coeff",
    "is_zero_series",
    "series_close",
    "maxima_apart",
    "jacobian_at",
    "system_evaluate",
    "system_evaluate_many",
    "recenter_series",
    "recenter_system",
]

# Relative threshold used by the zero test and by coefficient-wise equality.
ZERO_RTOL = 1e-12

Exponent = tuple[int, ...]
Point = tuple[complex, ...]


def _as_point(x: Sequence[complex]) -> Point:
    return tuple(map(complex, x))


def _grlex_key(alpha: Exponent) -> tuple[int, Exponent]:
    return (sum(alpha), alpha)


class TruncatedSeries:
    """A multivariate Taylor polynomial around a fixed center.

    Parameters
    ----------
    center:
        Point in C^n the series is expanded around.
    order:
        Maximum retained total degree.
    coefficients:
        Mapping from exponent tuples (length n, nonnegative ints) to complex
        coefficients.  Terms of total degree beyond ``order`` are rejected.
    """

    # _norm: multiroot.bergman's memo, (ball center, radius, backend) -> norms.
    __slots__ = ("center", "order", "coefficients", "_norm")

    def __init__(
        self,
        center: Sequence[complex],
        order: int,
        coefficients: dict[Exponent, complex] | None = None,
    ):
        if order < 0:
            raise StructuralError("series order must be nonnegative")
        self.center: Point = _as_point(center)
        self.order: int = int(order)
        n = len(self.center)
        coeffs: dict[Exponent, complex] = {}
        for alpha, c in (coefficients or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != n:
                raise StructuralError(
                    f"exponent {alpha} has length {len(alpha)}, expected {n}"
                )
            if any(a < 0 for a in alpha):
                raise StructuralError(f"negative exponent in {alpha}")
            if sum(alpha) > self.order:
                raise StructuralError(
                    f"term of degree {sum(alpha)} exceeds order {self.order}"
                )
            c = complex(c)
            if c != 0:
                coeffs[alpha] = coeffs.get(alpha, 0.0) + c
        self.coefficients = coeffs
        self._norm = None

    @classmethod
    def _of(
        cls, center: Point, order: int, coefficients: dict[Exponent, complex]
    ) -> "TruncatedSeries":
        """Constructor for the series operations below, whose center, order and
        exponents come from series that ``__init__`` already checked.  Skips
        those checks but normalises the coefficients exactly as ``__init__``
        does: zero terms dropped, each value 0.0 + c."""
        self = object.__new__(cls)
        self.center = center
        self.order = order
        self.coefficients = {a: 0.0 + c for a, c in coefficients.items() if c != 0}
        self._norm = None
        return self

    @property
    def dim(self) -> int:
        return len(self.center)

    def items(self) -> Iterator[tuple[Exponent, complex]]:
        """Stored terms in graded lexicographic order."""
        for alpha in sorted(self.coefficients, key=_grlex_key):
            yield alpha, self.coefficients[alpha]

    def coefficient(self, alpha: Sequence[int]) -> complex:
        return self.coefficients.get(tuple(int(a) for a in alpha), 0.0)

    @property
    def constant(self) -> complex:
        return self.coefficients.get((0,) * self.dim, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{a}:{c:.6g}" for a, c in itertools.islice(self.items(), 6))
        more = "..." if len(self.coefficients) > 6 else ""
        return f"TruncatedSeries(order={self.order}, {{{terms}{more}}})"


def ts_truncate(f: TruncatedSeries, order: int) -> TruncatedSeries:
    """Keep terms of total degree <= order.

    Raising the order is allowed: a :class:`TruncatedSeries` is treated as an
    exact polynomial, so the new coefficients are genuinely zero.
    """
    if order < 0:
        raise StructuralError("series order must be nonnegative")
    coeffs = {a: c for a, c in f.coefficients.items() if sum(a) <= order}
    return TruncatedSeries._of(f.center, order, coeffs)


def ts_derivative(f: TruncatedSeries, var: int) -> TruncatedSeries:
    """Formal partial derivative; the order drops by one (floor at zero)."""
    if not 0 <= var < f.dim:
        raise StructuralError(f"variable index {var} out of range for n={f.dim}")
    coeffs: dict[Exponent, complex] = {}
    for alpha, c in f.coefficients.items():
        k = alpha[var]
        if k > 0:
            beta = alpha[:var] + (k - 1,) + alpha[var + 1:]
            coeffs[beta] = coeffs.get(beta, 0.0) + k * c
    return TruncatedSeries._of(f.center, max(f.order - 1, 0), coeffs)


def ts_evaluate(f: TruncatedSeries, x: Sequence[complex]) -> complex:
    """Value of the truncated polynomial at the point x."""
    return _values_at((f,), x)[0]


def _values_at(fs: Sequence[TruncatedSeries], x: Sequence[complex]) -> list[complex]:
    """Values of the series fs, which share one center, at the point x.

    At the center every term but the constant carries an exact zero factor,
    so the values are the constants; elsewhere ``_evaluate`` computes them.
    """
    x = _as_point(x)
    if x == fs[0].center:
        return [complex(f.constant) for f in fs]
    return _evaluate(fs, [x])[:, 0].tolist()


def system_evaluate_many(f: "AnalyticSystem", points) -> np.ndarray:
    """The k x s matrix whose row j is ``system_evaluate(f, points[j])``."""
    return _evaluate(f.equations, points).T.copy()


class _EvaluateLayout:
    """Everything ``_evaluate`` needs of its series besides their coefficient
    values.  Terms are numbered in stored order, series after series;
    ``series`` holds each term's series, ``top`` the largest exponent, and
    ``passes`` for each pass j the terms with more than j nonzero exponents,
    the variable of the j-th one and its exponent."""

    def __init__(self, n: int, exponents: tuple[tuple[Exponent, ...], ...]):
        self.series = np.repeat(np.arange(len(exponents)), [len(eq) for eq in exponents])
        exps = np.array([a for eq in exponents for a in eq], dtype=int).reshape(-1, n)
        self.top = int(exps.max(initial=0))
        # The nonzero exponents, term by term in variable order, and the place
        # of each among its term's.
        terms, var = np.nonzero(exps)
        place = np.arange(len(terms)) - np.searchsorted(terms, terms)
        self.passes = [
            (terms[place == j], var[place == j], exps[terms[place == j], var[place == j]])
            for j in range(int(place.max(initial=-1)) + 1)
        ]
        # A layout is shared by every caller of its pattern.
        for array in (self.series, *(a for step in self.passes for a in step)):
            array.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _evaluate_layout(n: int, exponents: tuple[tuple[Exponent, ...], ...]) -> _EvaluateLayout:
    """The ``_EvaluateLayout`` of series whose stored exponents are
    ``exponents``, built once per pattern."""
    return _EvaluateLayout(n, exponents)


# inf and NaN propagate as in Python's arithmetic, without warnings.
@np.errstate(all="ignore")
def _evaluate(fs: Sequence[TruncatedSeries], points) -> np.ndarray:
    """Values of each series of fs, which share one center, at each row of
    points, shape (len(fs), k).

    The package's one evaluator away from a series' center.  Each term is its
    coefficient times dx_i^a for each variable in order (a zero exponent
    skipped), from power tables built by repeated multiplication from 1 + 0j,
    and each series' terms are summed one after another in stored order
    from 0 + 0j.  The offsets from the center and the power tables of all
    variables are formed once, and pass j multiplies every term with more
    than j nonzero exponents by the power of its j-th one.  Every series'
    terms go into one array, so numpy is set up once for all of them.  What
    depends only on the stored exponents is an ``_EvaluateLayout``, built
    once per pattern.  Complex products are formed from real and imaginary
    parts as Python forms them, so a value does not depend on the batch it
    is computed in: numpy's complex multiply moves the last bit with the
    batch size.
    """
    n = fs[0].dim
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2 or points.shape[1] != n:
        raise StructuralError(f"points have shape {points.shape}, expected (k, {n})")
    k = points.shape[0]
    layout = _evaluate_layout(n, tuple(tuple(f.coefficients) for f in fs))
    coeffs = np.array([c for f in fs for c in f.coefficients.values()], dtype=complex)
    center = np.array(fs[0].center, dtype=complex)
    dxr = (points.real - center.real).T
    dxi = (points.imag - center.imag).T
    # powers[a, i] = dx_i^a over the points, from 1 + 0j.
    pr = np.empty((layout.top + 1, n, k))
    pi = np.empty((layout.top + 1, n, k))
    pr[0], pi[0] = 1.0, 0.0
    for a in range(1, layout.top + 1):
        pr[a] = pr[a - 1] * dxr - pi[a - 1] * dxi
        pi[a] = pr[a - 1] * dxi + pi[a - 1] * dxr
    # Each term's running product over the points: [term, point].
    tr = np.repeat(coeffs.real[:, None], k, axis=1)
    ti = np.repeat(coeffs.imag[:, None], k, axis=1)
    for t, v, e in layout.passes:
        qr, qi = pr[e, v], pi[e, v]
        ar, ai = tr[t], ti[t]
        tr[t] = ar * qr - ai * qi
        ti[t] = ar * qi + ai * qr
    out = np.zeros((len(fs), k), dtype=complex)
    np.add.at(out.real, layout.series, tr)
    np.add.at(out.imag, layout.series, ti)
    return out


class _RecenterLayout:
    """Everything ``recenter_series`` needs of its series besides their
    coefficient values and the shift.

    ``patterns`` holds, per series, its new order and its stored exponents.
    Expanding (u + delta)^alpha variable by variable, term alpha contributes
    to each beta <= alpha of degree <= the new order, in
    ``itertools.product`` order, the product of its coefficient and the
    factors comb(alpha_i, beta_i) delta_i^(alpha_i - beta_i).  The factor
    rows b = 0..a of each (variable i, exponent a) that a term uses are laid
    end to end in one table, which ``powers`` describes entry by entry as
    (i, a - b, comb(a, b)).  Each contribution has its term (``term``), its
    factor ids in the table, one row per variable (``factors``), and its
    output slot (``slot``).  A slot is one output exponent of one series
    (``slot_exponents``, ``slot_series``), numbered in the order of its first
    contribution.
    """

    def __init__(self, n: int, patterns: tuple[tuple[int, tuple[Exponent, ...]], ...]):
        offsets: dict[tuple[int, int], int] = {}
        term, factors, slot = [], [], []
        self.slot_exponents: list[Exponent] = []
        self.slot_series: list[int] = []
        t = size = 0
        for s, (order, exponents) in enumerate(patterns):
            slots: dict[Exponent, int] = {}
            for alpha in exponents:
                starts = []
                for i, a in enumerate(alpha):
                    start = offsets.get((i, a))
                    if start is None:
                        start = offsets[i, a] = size
                        size += a + 1
                    starts.append(start)
                for beta in itertools.product(*(range(a + 1) for a in alpha)):
                    if sum(beta) > order:
                        continue
                    k = slots.get(beta)
                    if k is None:
                        k = slots[beta] = len(self.slot_exponents)
                        self.slot_exponents.append(beta)
                        self.slot_series.append(s)
                    term.append(t)
                    factors.append([start + b for start, b in zip(starts, beta)])
                    slot.append(k)
                t += 1
        # The factor table's entries, as (variable, power, binomial).
        self.powers = [
            (i, a - b, math.comb(a, b)) for i, a in offsets for b in range(a + 1)
        ]
        self.term = np.array(term, dtype=int)
        self.factors = np.array(factors, dtype=int).reshape(len(term), n).T.copy()
        self.slot = np.array(slot, dtype=int)
        # A layout is shared by every caller of its pattern.
        for array in (self.term, self.factors, self.slot):
            array.flags.writeable = False


@functools.lru_cache(maxsize=64)
def _recenter_layout(
    n: int, patterns: tuple[tuple[int, tuple[Exponent, ...]], ...]
) -> _RecenterLayout:
    """The ``_RecenterLayout`` of ``patterns`` in n variables, built once per
    pattern."""
    return _RecenterLayout(n, patterns)


def recenter_series(
    fs: Sequence[TruncatedSeries], new_center: Sequence[complex], new_orders: Sequence[int]
) -> tuple[TruncatedSeries, ...]:
    """Taylor expansion of each series of fs, which share one center, around
    a new center, the i-th truncated at new_orders[i].

    Exact for polynomials whenever ``new_order >= deg f``; in general only the
    coefficients up to ``new_order`` are produced and ``new_order <= f.order``
    is required.  At the series' own center every shifted term carries a
    factor 0 ** k with k > 0, and the result is ``ts_truncate``'s.

    Elsewhere one array pass does the work, and every value is the one that
    expanding term by term in Python gives: the factor table comb(a, b)
    delta_i^(a-b) is built in Python, so an overflow raises
    ``OverflowError``; each contribution is its coefficient times one factor
    per variable in variable order, exact ones included, as complex products
    formed from real and imaginary parts as Python forms them; and the
    contributions are summed from 0 + 0j in term order.  An output exponent
    comes in the order of its first nonzero contribution, and a zero sum
    stores nothing.  What depends only on the orders and the stored
    exponents is a ``_RecenterLayout``, built once per pattern.
    """
    new_center = _as_point(new_center)
    new_orders = [int(order) for order in new_orders]
    for f, order in zip(fs, new_orders):
        if order < 0:
            raise StructuralError("series order must be nonnegative")
        if order > f.order:
            raise StructuralError(f"new_order {order} exceeds stored order {f.order}")
        if len(new_center) != f.dim:
            raise StructuralError("new center has wrong dimension")
    center = fs[0].center
    if new_center == center:
        return tuple(ts_truncate(f, order) for f, order in zip(fs, new_orders))
    layout = _recenter_layout(
        len(center), tuple((order, tuple(f.coefficients)) for f, order in zip(fs, new_orders))
    )
    delta = [nc - oc for nc, oc in zip(new_center, center)]
    table = np.array([c * delta[i] ** power for i, power, c in layout.powers], dtype=complex)
    coeffs = np.array([c for f in fs for c in f.coefficients.values()], dtype=complex)
    sums = np.zeros(len(layout.slot_exponents), dtype=complex)
    # inf and NaN propagate as in Python's arithmetic, without warnings.
    with np.errstate(all="ignore"):
        w, q = coeffs[layout.term], table[layout.factors]
        wr, wi = w.real, w.imag
        for qr, qi in zip(q.real, q.imag):
            wr, wi = wr * qr - wi * qi, wr * qi + wi * qr
        np.add.at(sums.real, layout.slot, wr)
        np.add.at(sums.imag, layout.slot, wi)
    # An exponent comes at its first nonzero contribution (a NaN is nonzero);
    # ``_of`` drops the zero sums.
    values = sums.tolist()
    out: list[dict[Exponent, complex]] = [{} for _ in fs]
    for k in dict.fromkeys(layout.slot[(wr != 0) | (wi != 0)].tolist()):
        out[layout.slot_series[k]][layout.slot_exponents[k]] = values[k]
    return tuple(
        TruncatedSeries._of(new_center, order, coeffs) for order, coeffs in zip(new_orders, out)
    )


def ts_recenter(
    f: TruncatedSeries, new_center: Sequence[complex], new_order: int
) -> TruncatedSeries:
    """Taylor expansion of f around a new center, truncated at new_order:
    ``recenter_series`` of f alone."""
    return recenter_series((f,), new_center, (new_order,))[0]


def max_coeff(f: TruncatedSeries) -> float:
    return max((abs(c) for c in f.coefficients.values()), default=0.0)


def is_zero_series(f: TruncatedSeries, ref_magnitude: float) -> bool:
    """Numerically-zero test with a relative threshold.

    ``ref_magnitude`` supplies the magnitude scale of the computation that
    produced ``f`` (e.g. the parent series in a selection step).
    """
    return max_coeff(f) <= ZERO_RTOL * (1.0 + ref_magnitude)


def series_close(a: TruncatedSeries, b: TruncatedSeries, *, scale: float) -> bool:
    """Coefficient-wise equality up to the package zero threshold.

    ``scale`` is 1 + max(max_coeff(a), max_coeff(b)), which the caller
    already holds.
    """
    if a.dim != b.dim or a.center != b.center:
        return False
    tol = ZERO_RTOL * scale
    ac, bc = a.coefficients, b.coefficients
    # An exponent stored in b alone differs from a's zero by |b's coefficient|.
    return all(abs(c - bc.get(k, 0.0)) <= tol for k, c in ac.items()) and all(
        abs(c) <= tol for k, c in bc.items() if k not in ac
    )


def maxima_apart(top_a: float, top_b: float) -> bool:
    """True when series with largest coefficients top_a and top_b cannot be
    ``series_close``: | ||a|| - ||b|| | <= ||a - b|| in the max norm, and the
    factor 2 on the threshold covers the rounding of the two maxima."""
    return abs(top_a - top_b) > 2.0 * ZERO_RTOL * (1.0 + max(top_a, top_b))


@dataclass(frozen=True)
class AnalyticSystem:
    """An ordered list of series sharing a center, plus the ambient ball."""

    dim: int
    equations: tuple[TruncatedSeries, ...]
    ball_center: Point
    ball_radius: float

    def __post_init__(self):
        if self.ball_radius <= 0:
            raise StructuralError("ball radius must be strictly positive")
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "ball_center", _as_point(self.ball_center))
        if len(self.ball_center) != self.dim:
            raise StructuralError("ball center has wrong dimension")
        if not self.equations:
            raise StructuralError("a system needs at least one equation")
        center = self.equations[0].center
        for eq in self.equations:
            if eq.dim != self.dim:
                raise StructuralError("equation dimension disagrees with system")
            if eq.center != center:
                raise StructuralError("equations disagree on center")
        offset = math.sqrt(
            sum(abs(c - w) ** 2 for c, w in zip(center, self.ball_center))
        )
        if offset >= self.ball_radius:
            raise StructuralError("series center lies outside the open ball")

    @property
    def center(self) -> Point:
        return self.equations[0].center

    @property
    def size(self) -> int:
        return len(self.equations)

    def max_order(self) -> int:
        return max(eq.order for eq in self.equations)

    def min_order(self) -> int:
        return min(eq.order for eq in self.equations)

    def with_equations(self, equations: Iterable[TruncatedSeries]) -> "AnalyticSystem":
        return AnalyticSystem(self.dim, tuple(equations), self.ball_center, self.ball_radius)

    @classmethod
    def _of(
        cls, dim: int, equations: tuple[TruncatedSeries, ...], ball_center: Point,
        ball_radius: float,
    ) -> "AnalyticSystem":
        """Constructor for systems whose parts ``__post_init__`` would pass:
        nonempty equations of dimension dim on one center, inside the ball,
        from series and a ball already checked.  Skips those checks."""
        self = object.__new__(cls)
        for name, value in (
            ("dim", dim), ("equations", equations), ("ball_center", ball_center),
            ("ball_radius", ball_radius),
        ):
            object.__setattr__(self, name, value)
        return self

    def _with(self, equations: Iterable[TruncatedSeries]) -> "AnalyticSystem":
        """``with_equations`` for nonempty series on this system's center,
        already checked, without the checks."""
        return AnalyticSystem._of(self.dim, tuple(equations), self.ball_center, self.ball_radius)


def system_evaluate(f: AnalyticSystem, x: Sequence[complex]) -> np.ndarray:
    return np.array(_values_at(f.equations, x), dtype=complex)


def recenter_system(f: AnalyticSystem, new_center: Sequence[complex]) -> AnalyticSystem:
    """Recenter every equation at its own order, and the ball with them, in
    one ``recenter_series`` pass.  A system already centered there, series
    and ball, is returned as it is, with the norms its series keep."""
    new_center = _as_point(new_center)
    if new_center == f.center == f.ball_center:
        return f
    eqs = recenter_series(f.equations, new_center, [eq.order for eq in f.equations])
    return AnalyticSystem._of(f.dim, eqs, new_center, f.ball_radius)


def jacobian_at(f: AnalyticSystem, x: Sequence[complex]) -> np.ndarray:
    """The s x n Jacobian of f at x: entry (i, j) is the value at x of
    ``ts_derivative(f.equations[i], j)``.

    At f's center that is the matrix of linear coefficients: the constant
    term of d eq / d x_j is 1 times eq's coefficient of e_j, so for finite
    coefficients the two agree bit for bit without building any derivative.
    """
    x = _as_point(x)
    if x != f.center:
        entries = [ts_derivative(eq, j) for eq in f.equations for j in range(f.dim)]
        return np.array(_values_at(entries, x), dtype=complex).reshape(f.size, f.dim)
    units = [tuple(int(k == j) for k in range(f.dim)) for j in range(f.dim)]
    return np.array(
        [[eq.coefficients.get(u, 0.0) for u in units] for eq in f.equations], dtype=complex
    )
