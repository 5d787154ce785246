"""Kerneling's Schur complement against the exact one of its inputs.

Each float coefficient is read as the rational it stores
(``fractions.Fraction``), and the fixed-point solve x <- A0^{-1} (b - N x)
runs in exact arithmetic, with the exact A0^{-1}.  The inputs are the first
kerneling round of each of the 384 KSS benchmark inputs at seed 802, of the
KSS-5 start with exact zeros, and both rounds of Ojika1, whose second round
kernels an already-kerneled system.  The KSS pivot blocks have 1/sigma_min
up to 7.2e6, and every coefficient of the float complement must lie within
1e-8 of the largest exact one.  The complement is the one ``kernel_op``
appends; the exact one is built from each Jacobian entry ``ts_derivative``
gives.  The pivot index checks of the Schur layout close the file.
"""

import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import kss, ojika1
from multiroot.bergman import COMPLEX_EXACT
from multiroot.cli import parse_system
from multiroot.deflation import deflation_sequence, kernel_op
from multiroot.errors import StructuralError
from multiroot.schur import jacobian_schur
from multiroot.series import ts_derivative

REPO = Path(__file__).resolve().parents[1]
KSS5_EXACT_ZEROS = (1.0, 1.0, 1.0, 1 + 8.94e-6, 1 + 4.47e-6)
RTOL = 1e-8


def _exact(series, order):
    """The coefficients of degree <= order as rationals; the data is real."""
    assert all(c.imag == 0.0 for c in series.coefficients.values())
    return {a: Fraction(c.real) for a, c in series.coefficients.items() if sum(a) <= order}


def _add_scaled(acc, w, s):
    """acc += w * s, in place."""
    for a, c in s.items():
        acc[a] = acc.get(a, 0) + w * c


def _mul(s, t, order):
    out = {}
    for a, ca in s.items():
        for b, cb in t.items():
            ab = tuple(i + j for i, j in zip(a, b))
            if sum(ab) <= order:
                out[ab] = out.get(ab, 0) + ca * cb
    return out


def _inverse(m):
    """Gauss-Jordan inverse of a nonsingular rational matrix."""
    r = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(m)]
    for k in range(r):
        p = next(i for i in range(k, r) if aug[i][k] != 0)
        aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k][k]
        aug[k] = [v / pivot for v in aug[k]]
        for i in range(r):
            if i != k and aug[i][k] != 0:
                factor = aug[i][k]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[k])]
    return [row[r:] for row in aug]


def exact_schur(f, rows, cols, order):
    """D - C A^{-1} B of the Jacobian of the system f, row-major, in exact
    arithmetic."""
    def entry(i, j):
        return _exact(ts_derivative(f.equations[i], j), order)

    zero = (0,) * f.dim
    a0_inv = _inverse([[entry(i, j).get(zero, Fraction(0)) for j in cols] for i in rows])
    n_blk = [[{a: c for a, c in entry(i, j).items() if any(a)} for j in cols] for i in rows]
    other_rows = [i for i in range(f.size) if i not in rows]
    other_cols = [j for j in range(f.dim) if j not in cols]
    out = []
    for j in other_cols:
        b = [entry(i, j) for i in rows]
        x = b
        for _ in range(order + 1):
            residual = []
            for bi, ni in zip(b, n_blk):
                acc = dict(bi)
                for nik, xk in zip(ni, x):
                    _add_scaled(acc, -1, _mul(nik, xk, order))
                residual.append(acc)
            x = []
            for w in a0_inv:
                acc = {}
                for wk, rk in zip(w, residual):
                    _add_scaled(acc, wk, rk)
                x.append(acc)
        column = []
        for i in other_rows:
            acc = entry(i, j)
            for k, xk in zip(cols, x):
                _add_scaled(acc, -1, _mul(entry(i, k), xk, order))
            column.append(acc)
        out.append(column)
    return [out[j][i] for i in range(len(other_rows)) for j in range(len(other_cols))]


def round_error(step) -> float:
    """Largest coefficient error of the complement that kerneling appends for
    a step's pivots, relative to the largest exact coefficient."""
    order = max(step.system.min_order() - 1, 0)  # the Jacobian's order
    rows, cols = list(step.pivot_rows), list(step.pivot_cols)
    got = kernel_op(step.system, (rows, cols)).equations[len(rows):]
    assert all(g.order == order for g in got)
    want = exact_schur(step.system, rows, cols, order)
    scale = max(abs(c) for w in want for c in w.values())
    assert scale > 0
    err = 0
    for g, w in zip(got, want):
        for a in set(g.coefficients) | set(w):
            c = g.coefficient(a)
            err = max(err, abs(Fraction(c.real) - w.get(a, 0)), abs(Fraction(c.imag)))
    return float(err / scale)


@pytest.fixture(scope="module")
def kss_traces(tmp_path_factory):
    """family -> the traces of its seed-802 inputs that kernel at least once."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    out = tmp_path_factory.mktemp("families")
    traces = {}
    for block in gen.family_inputs(out, 802, 96):
        for path in block:
            family = path.stem.split("_")[0]
            if not family.startswith("kss"):
                continue
            system, point, options = parse_system(str(path))
            trace = deflation_sequence(system, point, options["backend"])
            if trace.thickness >= 1:
                traces.setdefault(family, []).append((path.stem, trace))
    return traces


@pytest.mark.parametrize("family", ["kss3", "kss4", "kss5", "kss6"])
def test_family_first_round_is_exact(kss_traces, family):
    errors = {stem: round_error(trace.steps[0]) for stem, trace in kss_traces[family]}
    assert len(errors) == 96  # every input of the family kernels
    worst = max(errors, key=errors.get)
    assert errors[worst] <= RTOL, (worst, errors[worst])


def test_exact_zero_start_is_exact():
    f = kss(5, KSS5_EXACT_ZEROS)
    trace = deflation_sequence(f, KSS5_EXACT_ZEROS, COMPLEX_EXACT)
    assert trace.thickness >= 1
    assert round_error(trace.steps[0]) <= RTOL


def test_thickness_two_rounds_are_exact():
    f, x0 = ojika1(1e-3)
    trace = deflation_sequence(f, x0, COMPLEX_EXACT)
    assert trace.thickness == 2
    assert [s.kind for s in trace.steps[:2]] == ["selection", "kerneling"]
    for step in trace.steps[:2]:
        assert round_error(step) <= RTOL


@pytest.mark.parametrize(
    "rows, cols, message",
    [
        pytest.param(
            (0, 1), (0,), "pivot row and column index sets must have equal size >= 1",
            id="unequal",
        ),
        pytest.param((0, 0), (0, 1), "duplicate pivot indices", id="duplicate-rows"),
        pytest.param((0, 1), (1, 1), "duplicate pivot indices", id="duplicate-cols"),
    ],
)
def test_input_check(rows, cols, message):
    with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
        jacobian_schur(kss(3, (1.0, 1.0, 1.0)), rows, cols, 1)
