"""Square-integrable norms on the ball and the derivative bounds they imply.

Two norm backends are provided, each an exact finite sum for a truncated
polynomial.

``complex_exact``
    The analytic norm on the complex ball B(omega, R) with normalized
    measure.  Monomials centered at omega are orthogonal, with

        || (z - omega)^alpha ||^2 = n! alpha! / (n + |alpha|)! * R^(2|alpha|),

    so the norm of a truncated polynomial is a finite exact sum.  The formula
    is validated against a Monte Carlo oracle in the test suite before
    anything downstream relies on it.

``appendix_slice``
    The real-slice norm: n!/pi^n/R^(2n) times the integral of |f|^2 over the
    real n-ball of radius R around omega.  With f = sum_alpha c_alpha
    (x - omega)^alpha the integrand is a polynomial, and the real-ball moments

        M(gamma) = R^(|gamma|+n) prod_i Gamma((gamma_i+1)/2) / Gamma((|gamma|+n)/2 + 1)

    (zero unless every gamma_i is even) give the integral exactly as
    sum_{alpha,beta} Re(c_alpha conj(c_beta)) M(alpha + beta).

Certificates default to ``complex_exact``; the golden values in the test
suite pin ``appendix_slice``.

A series' norm for a ball and a backend is computed once and kept with the
series, so a series must not be changed after construction.  Finite input
whose norm exceeds double precision raises ``OverflowError`` on both backends.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, StructuralError
from .series import (
    AnalyticSystem,
    TruncatedSeries,
    ts_recenter,
)

__all__ = [
    "COMPLEX_EXACT",
    "APPENDIX_SLICE",
    "BallContext",
    "nu",
    "kappa",
    "norm_a2",
    "series_norm_a2",
    "lambda_bound",
    "derivative_bound",
    "gamma_bar_bound",
]

COMPLEX_EXACT = "complex_exact"
APPENDIX_SLICE = "appendix_slice"
_BACKENDS = (COMPLEX_EXACT, APPENDIX_SLICE)

def _check_backend(backend: str) -> str:
    if backend not in _BACKENDS:
        raise DomainError(f"unknown norm backend {backend!r}; expected one of {_BACKENDS}")
    return backend


@dataclass(frozen=True)
class BallContext:
    """The ambient ball B(omega, R) in C^n."""

    omega: tuple[complex, ...]
    radius: float
    dim: int

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("ball radius must be positive")
        object.__setattr__(self, "omega", tuple(complex(w) for w in self.omega))
        if len(self.omega) != self.dim:
            raise StructuralError("ball center has wrong dimension")

    @staticmethod
    def of(system: AnalyticSystem) -> "BallContext":
        return BallContext(system.ball_center, system.ball_radius, system.dim)


def nu(x: Sequence[complex], ball: BallContext) -> float:
    """Relative offset ||x - omega|| / R; requires x inside the open ball."""
    if len(x) != ball.dim:
        raise StructuralError("point has wrong dimension")
    dist = math.sqrt(sum(abs(complex(xi) - wi) ** 2 for xi, wi in zip(x, ball.omega)))
    value = dist / ball.radius
    if value >= 1.0:
        raise DomainError(f"point lies outside the open ball (nu = {value:.6g})")
    return value


def kappa(x: Sequence[complex], ball: BallContext) -> float:
    nx = nu(x, ball)
    return max(1.0, (ball.dim + 1) / (ball.radius * (1.0 - nx * nx)))


@functools.lru_cache(maxsize=4096, typed=True)
def _monomial_weight(alpha: tuple[int, ...], n: int, radius: float) -> float:
    deg = sum(alpha)
    # n! alpha! / (n + |alpha|)! as one exact ratio, correctly rounded: each
    # alpha_i! alone may outgrow a float where the weight does not.
    w = math.factorial(n) * math.prod(map(math.factorial, alpha)) / math.factorial(n + deg)
    return w * radius ** (2 * deg)


def _series_norm_complex(f: TruncatedSeries, ball: BallContext) -> float:
    total = 0.0
    for alpha, c in f.coefficients.items():
        total += abs(c) ** 2 * _monomial_weight(alpha, ball.dim, ball.radius)
    return math.sqrt(total)


@functools.lru_cache(maxsize=512, typed=True)
def _slice_moments(exponents: tuple[tuple[int, ...], ...], n: int, radius: float) -> np.ndarray:
    """M[a, b] = the real-ball moment of x^(alpha_a + alpha_b), times the
    norm's R^(-2n); read-only, because the cache hands out one array."""
    exps = np.array(exponents, dtype=int)
    gamma = exps[:, None, :] + exps[None, :, :]
    top = int(gamma.max())
    # Gamma((k+1)/2) for even k; odd moments of the symmetric ball vanish.
    half = np.array([math.gamma((k + 1) / 2.0) if k % 2 == 0 else 0.0 for k in range(top + 1)])
    deg = gamma.sum(axis=-1)
    denom = np.array([math.gamma((d + n) / 2.0 + 1.0) for d in range(deg.max() + 1)])
    # The moment's R^(|gamma|+n) and the prefactor's R^(-2n) combined.
    moments = half[gamma].prod(axis=-1) / denom[deg] * float(radius) ** (deg - n)
    moments.flags.writeable = False
    return moments


def _series_norm_slice_sq(f: TruncatedSeries, ball: BallContext) -> float:
    if not f.coefficients:
        return 0.0
    n = ball.dim
    coeffs = np.array(list(f.coefficients.values()), dtype=complex)
    # numpy's overflow is a warning; it is raised below as Python's is.
    with np.errstate(all="ignore"):
        moments = _slice_moments(tuple(f.coefficients), n, ball.radius)
        total = (coeffs @ moments @ coeffs.conj()).real
    value = math.factorial(n) / math.pi**n * float(total)
    if not math.isfinite(value) and np.isfinite(coeffs).all() and math.isfinite(ball.radius):
        raise OverflowError("the appendix_slice norm exceeds double precision")
    return value


def _norm_pair(f: TruncatedSeries, ball: BallContext, backend: str) -> tuple[float, float]:
    """(``series_norm_a2``, the term ``norm_a2`` adds for f): the complex norm
    and its square, or the slice norm and its unrounded square.  Both
    backends sum over monomials centered at omega, so a series centered
    elsewhere is expanded there first; the memo stays on f."""
    key = (ball.omega, ball.radius, _check_backend(backend))
    memo = f._norm  # read once: another thread may replace it
    if memo is None or memo[0] != key:
        g = f if f.center == ball.omega else ts_recenter(f, ball.omega, f.order)
        if backend == COMPLEX_EXACT:
            norm = _series_norm_complex(g, ball)
            pair = (norm, norm**2)
        else:
            square = _series_norm_slice_sq(g, ball)
            pair = (math.sqrt(square), square)
        memo = f._norm = (key, pair)
    return memo[1]


def series_norm_a2(f: TruncatedSeries, ball: BallContext, backend: str) -> float:
    """A^2 norm of a single equation over the ball."""
    return _norm_pair(f, ball, backend)[0]


def norm_a2(f: AnalyticSystem, backend: str) -> float:
    """System norm: equation norms added in quadrature."""
    ball = BallContext.of(f)
    return math.sqrt(sum(_norm_pair(eq, ball, backend)[1] for eq in f.equations))


def lambda_bound(f: AnalyticSystem, x: Sequence[complex], backend: str) -> float:
    """||f|| / (1 - nu_x^2)^((n+1)/2)."""
    ball = BallContext.of(f)
    nx = nu(x, ball)
    return norm_a2(f, backend) / (1.0 - nx * nx) ** ((ball.dim + 1) / 2.0)


def derivative_bound(
    f: AnalyticSystem, x: Sequence[complex], k: int, backend: str
) -> float:
    """Upper bound on ||D^k f(x)||: ||f|| (n+1)...(n+k) / (R^k (1-nu^2)^((n+1)/2+k))."""
    if k < 0:
        raise DomainError("derivative order k must be nonnegative")
    ball = BallContext.of(f)
    n = ball.dim
    nx = nu(x, ball)
    rising = 1.0
    for j in range(1, k + 1):
        rising *= n + j
    denom = ball.radius**k * (1.0 - nx * nx) ** ((n + 1) / 2.0 + k)
    return norm_a2(f, backend) * rising / denom


def gamma_bar_bound(f: AnalyticSystem, zeta: Sequence[complex], backend: str) -> float:
    """Upper bound on sup_{k>=2} (||D^k f(zeta)|| / k!)^(1/(k-1)).

    From (1/k!)||D^k f|| <= lambda * kappa^k, the supremum of
    (lambda kappa^k)^(1/(k-1)) over integer k >= 2 is kappa when
    lambda*kappa <= 1 (limit value) and lambda*kappa^2 otherwise (k = 2).
    """
    ball = BallContext.of(f)
    lam = lambda_bound(f, zeta, backend)
    kap = kappa(zeta, ball)
    return kap * max(1.0, lam * kap)

