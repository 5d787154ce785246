"""The Schur complement of a system's Jacobian, on coefficient arrays.

Kerneling needs D - C A^{-1} B for a pivot block A of a Jacobian whose
entries are truncated series.  One ``SchurLayout``, built from the
equations' stored exponents, reads the Jacobian's terms straight into one
complex array over the exponents the data reaches, the array the solve runs
on, and ``SchurLayout.solve`` computes all complementary columns
x = A^{-1} b at once by the fixed point x <- A0^{-1} (b - N x): A0 is A's
constant block and N is A without it, so each of the ``order + 1`` passes
fixes one more degree.  Truncated products are table lookups: for each
exponent a of the left factor, the exponents b with deg(a + b) <= order are
a prefix of the exponents, which run by degree, and a dict says where each
a + b sits.

Everything but the coefficient values depends only on the stored exponents,
the order and the pivot; ``jacobian_layout`` builds a layout once for each
and keeps the recent ones.  ``jacobian_schur`` reads a system's coefficients
through it and writes the complement back as series; ``deflation.kernel_op``
is its caller.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import SingularPivotError, StructuralError
from .rank import singular_values
from .series import AnalyticSystem, Exponent, TruncatedSeries, _term_table

__all__ = ["SchurLayout", "jacobian_layout", "jacobian_schur"]


def _plus(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(operator.add, a, b))


class _PairTable:
    """The truncated product L X of a matrix of series L, stored at the
    exponents ``left``, with X (M, k, j) over ``monos``, which are sorted by
    degree first and hold every product exponent of degree <= order at the
    place ``index`` gives.

    For the a-th left exponent, the exponents b with deg(a + b) <= order are
    the first counts[a] of ``monos``, and targets[a] lists where each a + b
    sits.
    """

    def __init__(self, left: list[Exponent], monos: list[Exponent], index: dict, order: int):
        degrees = [sum(b) for b in monos]
        self.counts = [bisect.bisect_right(degrees, order - sum(a)) for a in left]
        self.targets = [
            np.array([index[_plus(a, b)] for b in monos[:count]], dtype=int)
            for a, count in zip(left, self.counts)
        ]

    def times(self, left: np.ndarray, x: np.ndarray) -> np.ndarray:
        """L X for L's coefficients ``left`` (A, i, k) at the left exponents."""
        out = np.zeros((len(x), left.shape[1], x.shape[2]), dtype=complex)
        for block, count, targets in zip(left, self.counts, self.targets):
            out[targets] += block @ x[:count]
        return out


class SchurLayout:
    """Everything the Schur complement of a pivot block of a Jacobian needs
    besides the coefficient values.

    The equations' stored exponents are ``exponents``, one tuple per equation
    in n variables.  d/dx_j of c x^alpha is alpha_j c x^(alpha - e_j), taken
    for |alpha| <= order + 1: the Jacobian's t-th term is mult[t] times the
    src[t]-th stored coefficient, counted equation after equation in stored
    order.  The Jacobian's values are laid out as an array (M, equations, n)
    over ``monos``, the M exponents the data reaches: the terms' own and zero,
    closed under adding the exponents of the pivot columns' nonconstant terms
    up to degree ``order``, never the whole degree-``order`` grid.  ``monos``
    runs by degree, then by the last variable's exponent, then the one
    before, and so on; the solve runs over the same exponents, and a Schur
    entry stores its terms in this order.
    """

    def __init__(self, exponents, n, order, row_idx, col_idx):
        row_idx, col_idx = list(row_idx), list(col_idx)
        r = len(row_idx)
        if r != len(col_idx) or r < 1:
            raise StructuralError("pivot row and column index sets must have equal size >= 1")
        if len(set(row_idx)) != r or len(set(col_idx)) != r:
            raise StructuralError("duplicate pivot indices")
        self.order = order
        rows = len(exponents)
        other_rows = [i for i in range(rows) if i not in row_idx]
        other_cols = [j for j in range(n) if j not in col_idx]
        series, exps = _term_table(n, exponents)
        self.src, jj = np.nonzero((exps > 0) & (exps.sum(axis=1) <= order + 1)[:, None])
        self.mult = exps[self.src, jj]
        derivative = exps[self.src]
        derivative[np.arange(len(self.src)), jj] -= 1
        terms = list(map(tuple, derivative.tolist()))
        zero = (0,) * n
        steps = {a for a, j in zip(terms, jj.tolist()) if j in col_idx} - {zero}
        fresh = reached = {zero, *terms}
        while fresh:
            fresh = {_plus(a, b) for a in fresh for b in steps if sum(a) + sum(b) <= order}
            fresh -= reached
            reached |= fresh
        self.monos = sorted(reached, key=lambda a: (sum(a), a[::-1]))
        index = {a: k for k, a in enumerate(self.monos)}
        shape = (len(self.monos), rows, n)
        self.size = math.prod(shape)
        flat = np.arange(self.size).reshape(shape)
        # Term t's value goes to coeffs[positions[t]], coeffs flat of shape.
        self.positions = flat[np.array([index[a] for a in terms], dtype=int), series[self.src], jj]
        nonzero = np.zeros(shape, dtype=bool)
        nonzero.flat[self.positions] = True

        def block(rs, cs):
            return np.ix_(range(len(self.monos)), rs, cs)

        pivot, c_block = block(row_idx, col_idx), block(other_rows, col_idx)
        self.a0 = flat[pivot][0]
        self.b = flat[block(row_idx, other_cols)]
        self.d = flat[block(other_rows, other_cols)]
        n_live = np.flatnonzero(nonzero[pivot][1:].any(axis=(1, 2))) + 1
        self.n_left = flat[pivot][n_live]
        self.times_n = _PairTable([self.monos[k] for k in n_live], self.monos, index, order)
        c_live = np.flatnonzero(nonzero[c_block].any(axis=(1, 2)))
        self.c_left = flat[c_block][c_live]
        self.times_c = _PairTable([self.monos[k] for k in c_live], self.monos, index, order)
        # A layout is shared by every caller of its exponents.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def solve(self, values: np.ndarray) -> np.ndarray:
        """The coefficients (M, equations - r, n - r) over ``monos`` of
        D - C A^{-1} B, truncated at ``order``, for the system's stored
        coefficients ``values``, equation after equation in stored order.  A
        pivot that takes every row leaves no entry, and its block is checked
        for singularity as any other."""
        coeffs = np.zeros(self.size, dtype=complex)
        coeffs[self.positions] = self.mult * values[self.src]
        a0 = coeffs[self.a0]
        if singular_values(a0)[-1] == 0.0:
            raise SingularPivotError("pivot block is numerically singular at the center")
        a0_inv = np.linalg.inv(a0)
        n_left = coeffs[self.n_left]
        x = b = coeffs[self.b]
        for _ in range(self.order + 1):
            x = a0_inv @ (b - self.times_n.times(n_left, x))
        return coeffs[self.d] - self.times_c.times(coeffs[self.c_left], x)


jacobian_layout = functools.lru_cache(maxsize=64)(SchurLayout)


def jacobian_schur(
    f: AnalyticSystem, row_idx: Sequence[int], col_idx: Sequence[int], order: int
) -> list[TruncatedSeries]:
    """The entries of D - C A^{-1} B, row-major and truncated at ``order``,
    for the pivot block A = J[row_idx, col_idx] of f's Jacobian J, read from
    f's coefficients without building the Jacobian."""
    exponents = tuple(tuple(eq.coefficients) for eq in f.equations)
    layout = jacobian_layout(exponents, f.dim, order, tuple(row_idx), tuple(col_idx))
    values = np.array([c for eq in f.equations for c in eq.coefficients.values()], dtype=complex)
    monos = layout.monos
    return [
        TruncatedSeries._of(f.center, order, dict(zip(monos, column)))
        for column in layout.solve(values).reshape(len(monos), -1).T.tolist()
    ]
