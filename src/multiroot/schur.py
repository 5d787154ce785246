"""The Schur complement of a system's Jacobian, on coefficient arrays.

Kerneling needs D - C A^{-1} B for a pivot block A of a Jacobian whose
entries are truncated series.  Here the coefficients of every entry are read
straight into one complex array over the exponents the data reaches, the
array the solve runs on, and ``SchurLayout.solve`` computes all
complementary columns x = A^{-1} b at once by the fixed point
x <- A0^{-1} (b - N x): A0 is A's constant block and N is A without it, so
each of the ``order + 1`` passes fixes one more degree.  Truncated products are table lookups: for each exponent a of the
left factor, the exponents b with deg(a + b) <= order are a prefix of the
sorted exponents, and a table says where each a + b sits.

Everything except the coefficient values (the exponents, the positions and
the product tables) depends only on where the nonzero coefficients are, so a
``SchurLayout`` is built once for each such pattern; ``jacobian_layout``
keeps the ones of recent Jacobians.  ``jacobian_schur`` reads a system's
coefficients into this format and writes the complement back as series;
``deflation.kernel_op`` is its caller.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import SingularPivotError, StructuralError
from .rank import singular_values
from .series import AnalyticSystem, TruncatedSeries

__all__ = ["SchurLayout", "jacobian_layout", "jacobian_schur"]


class _PairTable:
    """The truncated product L X of a matrix of series L, stored at the
    exponent codes ``left``, with X (M, k, j) over the sorted codes
    ``codes``, which must hold every product exponent of degree <= order.

    For the a-th left exponent, the exponents b with deg(a + b) <= order,
    that is code(a) + code(b) < limit, are the first counts[a] codes, and
    targets[a] lists where each a + b sits.
    """

    def __init__(self, left: np.ndarray, codes: np.ndarray, limit: int):
        self.counts = np.searchsorted(codes, limit - left).tolist()
        self.targets = [
            np.searchsorted(codes, a + codes[:count]) for a, count in zip(left, self.counts)
        ]

    def times(self, left: np.ndarray, x: np.ndarray) -> np.ndarray:
        """L X for L's coefficients ``left`` (A, i, k) at the left exponents."""
        out = np.zeros((len(x), left.shape[1], x.shape[2]), dtype=complex)
        for block, count, targets in zip(left, self.counts, self.targets):
            out[targets] += block @ x[:count]
        return out


class SchurLayout:
    """Everything the Schur complement needs of a matrix of series besides
    its coefficient values.

    ``pattern`` has one row (i, j, exponent...) per nonzero coefficient of a
    rows x cols matrix of series in n variables, each of degree <= order and
    each (i, j, exponent) once.  The values are laid out as an array
    (M, rows, cols) over ``monos``, the M exponents the data reaches: the
    terms' own, closed under adding the exponents of the pivot columns'
    nonconstant terms up to degree ``order``, never the whole
    degree-``order`` grid.  The zero exponent comes first, and the solve
    runs over the same exponents.
    """

    def __init__(self, n, rows, cols, row_idx, col_idx, order, pattern):
        row_idx, col_idx = list(row_idx), list(col_idx)
        r = len(row_idx)
        if r != len(col_idx) or r < 1:
            raise StructuralError("pivot row and column index sets must have equal size >= 1")
        if len(set(row_idx)) != r or len(set(col_idx)) != r:
            raise StructuralError("duplicate pivot indices")
        self.order = order
        other_rows = [i for i in range(rows) if i not in row_idx]
        other_cols = [j for j in range(cols) if j not in col_idx]
        ii, jj, exps = pattern[:, 0], pattern[:, 1], pattern[:, 2:]
        # With R = order + 1, exponent a is coded as |a| R^n + sum_i a_i R^i.
        # Each a_i and |a| is at most order, so the code is one-to-one and
        # codes sort by degree first; deg(a + b) <= order exactly when
        # code(a) + code(b) < R^(n+1), and then that sum is code(a + b).
        # The codes are int64 while every sum of two fits, Python ints beyond.
        radix = order + 1
        limit = radix ** (n + 1)
        dtype = np.int64 if limit < 2**62 else object
        places = np.array([radix**i for i in range(n)], dtype=dtype)
        term_codes = exps.astype(dtype) @ (places + radix**n)
        in_pivot_col = np.zeros(cols, dtype=bool)
        in_pivot_col[col_idx] = True
        steps = set(term_codes[in_pivot_col[jj]].tolist()) - {0}
        used = {0, *term_codes.tolist()}
        reached, fresh = set(used), used
        while fresh:
            fresh = {a + b for a in fresh for b in steps if a + b < limit} - reached
            reached |= fresh
        codes = np.array(sorted(reached), dtype=dtype)
        self.monos = list(map(tuple, (codes[:, None] // places % radix).tolist()))
        shape = (len(codes), rows, cols)
        self.size = math.prod(shape)
        flat = np.arange(self.size).reshape(shape)
        # Term t's value goes to coeffs[positions[t]], coeffs flat of shape.
        self.positions = flat[np.searchsorted(codes, term_codes), ii, jj]
        nonzero = np.zeros(shape, dtype=bool)
        nonzero.flat[self.positions] = True

        def block(rs, cs):
            return np.ix_(range(len(codes)), rs, cs)

        pivot, c_block = block(row_idx, col_idx), block(other_rows, col_idx)
        self.a0 = flat[pivot][0]
        self.b = flat[block(row_idx, other_cols)]
        self.d = flat[block(other_rows, other_cols)]
        n_live = np.flatnonzero(nonzero[pivot][1:].any(axis=(1, 2))) + 1
        self.n_left = flat[pivot][n_live]
        self.times_n = _PairTable(codes[n_live], codes, limit)
        c_live = np.flatnonzero(nonzero[c_block].any(axis=(1, 2)))
        self.c_left = flat[c_block][c_live]
        self.times_c = _PairTable(codes[c_live], codes, limit)
        # A layout is shared by every caller of its pattern.
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def solve(self, values) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """``monos`` and the coefficients (M, rows - r, cols - r) of
        D - C A^{-1} B, truncated at ``order``, for the values of the
        pattern's terms.  A pivot that takes every row leaves no entry, and
        its block is checked for singularity as any other."""
        coeffs = np.zeros(self.size, dtype=complex)
        coeffs[self.positions] = values
        a0 = coeffs[self.a0]
        if singular_values(a0)[-1] == 0.0:
            raise SingularPivotError("pivot block is numerically singular at the center")
        a0_inv = np.linalg.inv(a0)
        n_left = coeffs[self.n_left]
        x = b = coeffs[self.b]
        for _ in range(self.order + 1):
            x = a0_inv @ (b - self.times_n.times(n_left, x))
        return self.monos, coeffs[self.d] - self.times_c.times(coeffs[self.c_left], x)


@functools.lru_cache(maxsize=64)
def jacobian_layout(
    exponents: tuple[tuple[tuple[int, ...], ...], ...], n: int, order: int,
    row_idx: tuple[int, ...], col_idx: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, SchurLayout]:
    """(src, mult, layout) for the Jacobian, truncated at ``order``, of the
    equations whose stored exponents are ``exponents``: the Jacobian's t-th
    term is mult[t] times the src[t]-th stored coefficient, counted in
    equation order, then stored order."""
    exps = np.array([a for eq in exponents for a in eq], dtype=int).reshape(-1, n)
    rows = np.repeat(np.arange(len(exponents)), [len(eq) for eq in exponents])
    # d/dx_j of c x^alpha is alpha_j c x^(alpha - e_j).
    src, j = np.nonzero((exps > 0) & (exps.sum(axis=1) <= order + 1)[:, None])
    derivative = exps[src]
    derivative[np.arange(len(src)), j] -= 1
    pattern = np.column_stack((rows[src], j, derivative))
    mult = exps[src, j]
    src.flags.writeable = mult.flags.writeable = False
    return src, mult, SchurLayout(n, len(exponents), n, row_idx, col_idx, order, pattern)


def jacobian_schur(
    f: AnalyticSystem, row_idx: Sequence[int], col_idx: Sequence[int], order: int
) -> list[TruncatedSeries]:
    """The entries of D - C A^{-1} B, row-major and truncated at ``order``,
    for the pivot block A = J[row_idx, col_idx] of f's Jacobian J, read from
    f's coefficients without building the Jacobian."""
    exponents = tuple(tuple(eq.coefficients) for eq in f.equations)
    src, mult, layout = jacobian_layout(exponents, f.dim, order, tuple(row_idx), tuple(col_idx))
    values = np.array([c for eq in f.equations for c in eq.coefficients.values()], dtype=complex)
    monos, schur = layout.solve(mult * values[src])
    return [
        TruncatedSeries._of(f.center, order, {a: c for a, c in zip(monos, column) if c})
        for column in schur.reshape(len(monos), -1).T.tolist()
    ]
