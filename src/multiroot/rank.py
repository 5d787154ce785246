"""Threshold-free numerical rank via symmetric functions of singular values.

The decision needs no user-supplied tolerance: from the singular values we
form the elementary symmetric functions s_k and the ratios

    b_k = s_{n-k+1} / s_{n-k},   g_k = s_{n-k-1} / s_{n-k}  (g_n = 1),
    a_k = b_k * g_k.

If some a_m < 1/9 (smallest such m), the matrix has epsilon-rank n - m with
the certified threshold

    epsilon = (3 a_m + 1 - sqrt((3 a_m + 1)^2 - 16 a_m)) / (4 g_m),

and the defining inequality sigma_{n-m} > epsilon >= sigma_{n-m+1} holds.
Otherwise the matrix has full rank n and sigma_n > 1/(10 g_m) for the
smallest m with s_{n-m} != 0; the report carries that theorem-backed value
as epsilon (the smallest singular value itself is available in ``sigma``).

Before the test runs, every singular value at or below the SVD's own rounding
error, ``rounding_floor`` = max(rows, cols) * eps * sigma_max, is set to an
exact zero: below that floor the gaps between singular values are rounding
noise, and the a-test would read rank from them.  This is the one place the
package decides that a singular value is numerically zero; pivot searches,
Schur pivot blocks and certificates all call it.  The floor is
``numpy.linalg.matrix_rank``'s default tolerance, a property of double
precision rather than a tuning knob.

The a-test has one implementation, ``rank_from_singular_values``, run on one
matrix at a time.  A search over many blocks screens them first by the
floor alone (sigma_n != 0, which a full-rank test implies) and runs the
a-test only where it decides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

__all__ = [
    "RankReport",
    "rounding_floor",
    "singular_values",
    "elementary_symmetric",
    "rank_quantities",
    "numerical_rank",
    "rank_from_singular_values",
]

A_THRESHOLD = 1.0 / 9.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RankReport:
    """Singular values, symmetric-function ratios, and the certified rank."""

    sigma: tuple[float, ...]
    s: tuple[float, ...]
    b: tuple[float | None, ...]
    g: tuple[float | None, ...]
    a: tuple[float | None, ...]
    m: int | None
    rank: int
    epsilon: float
    full_rank: bool


def rounding_floor(shape: tuple[int, ...], scale):
    """Rounding error of the SVD of a rows x cols matrix: max(rows, cols)
    * eps * scale, where ``scale`` is sigma_max of the matrix the singular
    values came from."""
    return max(shape) * _EPS * scale


def singular_values(m, scale: float | None = None) -> np.ndarray:
    """Nonincreasing singular values of m, or of each matrix of a stack
    m[..., rows, cols]; those at or below ``rounding_floor`` are returned as
    exact 0.0.  Wide matrices are transposed first.  A matrix with no rows
    or no columns raises ``StructuralError``; a stack of no matrices gives
    an empty stack.

    ``scale`` defaults to each matrix's own largest singular value; for
    blocks cut out of a larger matrix J, pass ||J||.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if not min(m.shape[-2:]):
        raise StructuralError(f"a {m.shape[-2]} x {m.shape[-1]} matrix has no singular values")
    if m.shape[-2] < m.shape[-1]:
        m = np.swapaxes(m, -1, -2)
    sigma = np.linalg.svd(m, compute_uv=False)
    top = sigma[..., :1] if scale is None else scale
    sigma[sigma <= rounding_floor(m.shape[-2:], top)] = 0.0
    return sigma


def elementary_symmetric(sigma) -> list[float]:
    """s_0..s_n for the polynomial prod (lambda - sigma_i); s_0 = 1.

    Computed by the stable incremental product recurrence (all terms are
    nonnegative, so no cancellation occurs).
    """
    sigma = [float(x) for x in sigma]
    if any(x < 0 for x in sigma):
        raise ValueError("singular values must be nonnegative")
    s = [1.0]
    for x in sigma:
        s.append(0.0)
        for k in range(len(s) - 1, 0, -1):
            s[k] += x * s[k - 1]
    return s


def rank_quantities(s):
    """(b, g, a) for k = 1..n from the symmetric functions s_0..s_n.

    A ratio with zero denominator is reported as None ("undefined") and is
    skipped by the rank scan.
    """
    if s[0] != 1.0:
        raise ValueError("s_0 must equal 1")
    n = len(s) - 1
    b: list[float | None] = []
    g: list[float | None] = []
    a: list[float | None] = []
    for k in range(1, n + 1):
        denom = s[n - k]
        if denom == 0.0:
            bk = None
        else:
            bk = s[n - k + 1] / denom
        if k == n:
            gk = 1.0
        elif denom == 0.0:
            gk = None
        else:
            gk = s[n - k - 1] / denom
        ak = None if (bk is None or gk is None) else bk * gk
        b.append(bk)
        g.append(gk)
        a.append(ak)
    return b, g, a


def numerical_rank(m) -> RankReport:
    """Certified (rank, epsilon) for a complex matrix; no threshold input."""
    return rank_from_singular_values(singular_values(m))


def rank_from_singular_values(sigma) -> RankReport:
    """The rank test on the output of ``singular_values`` (one matrix)."""
    n = len(sigma)
    s = elementary_symmetric(sigma)
    b, g, a = rank_quantities(s)
    for m in range(1, n + 1):
        am = a[m - 1]
        if am is not None and am < A_THRESHOLD:
            disc = (3.0 * am + 1.0) ** 2 - 16.0 * am
            epsilon = (3.0 * am + 1.0 - np.sqrt(disc)) / (4.0 * g[m - 1])
            rank = n - m
            break
    else:
        # Full rank: the smallest m with s_{n-m} != 0 certifies sigma_n > 1/(10 g_m).
        m = next((k for k in range(1, n + 1) if s[n - k] != 0.0), n)
        gm = g[m - 1]
        epsilon = 0.0 if not gm else 1.0 / (10.0 * gm)
        rank = n
    return RankReport(
        sigma=tuple(float(x) for x in sigma),
        s=tuple(s),
        b=tuple(b),
        g=tuple(g),
        a=tuple(a),
        m=m,
        rank=rank,
        epsilon=float(epsilon),
        full_rank=rank == n,
    )
