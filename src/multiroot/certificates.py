"""Alpha- and gamma-theory certificates for (deflated) square systems.

Point quantities at x for a square system f:

    beta  = ||Df(x)^{-1} f(x)||           (Newton step length)
    lambda= ||f|| / (1 - nu_x^2)^((n+1)/2)
    kappa = max(1, (n+1) / (R (1 - nu_x^2)))
    mu    = ||Df(x)^{-1}||                (spectral)
    gamma = max(1, lambda kappa mu)
    alpha = beta kappa

The alpha certificate asserts a unique root in B(x0, theta) whenever

    alpha < 2 gamma + 1 - sqrt((2 gamma + 1)^2 - 1),

with the admissible window for u = kappa * theta

    (alpha + 1 - sqrt((alpha+1)^2 - 4 alpha (gamma+1))) / (2 (gamma+1))
        < u < 1 / (gamma + 1).

The gamma certificate gives a quadratic-convergence radius around a regular
root, and the deflated-system bound propagates gamma through a deflation
trace: gamma_ell <= ell + gamma_0.

Each difference a - sqrt(b) above, with a^2 - b known exactly, is computed
as (a^2 - b) / (a + sqrt(b)): as gamma grows the difference loses its digits
to cancellation (at gamma = 1e7 the threshold read 4% high, and from
gamma = 1e8 on it read 0.0), while the quotient keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bergman import BallContext, gamma_bar_bound, kappa, lambda_bound, nu
from .deflation import DeflationTrace, deflation_sequence
from .errors import CertificateUnavailableError, DomainError
from .rank import singular_values
from .series import AnalyticSystem, jacobian_at, system_evaluate

__all__ = [
    "PointQuantities",
    "CertificateReport",
    "DeflatedGammaBound",
    "point_quantities",
    "alpha_certificate",
    "gamma_radius",
    "deflated_gamma_bound",
    "singular_alpha_certificate",
    "rank_stability_radius",
]


@dataclass(frozen=True)
class PointQuantities:
    beta: float
    lam: float
    kappa: float
    mu: float
    gamma: float
    alpha: float
    nu: float


@dataclass(frozen=True)
class CertificateReport:
    quantities: PointQuantities | None
    alpha_bound: float | None
    alpha_ok: bool
    theta_low: float | None
    theta_high: float | None
    gamma_radius: float | None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class DeflatedGammaBound:
    gamma0: float
    ell: int
    gamma_ell: float
    radius: float
    p: int
    p0: int
    mu_max: float


def point_quantities(
    f: AnalyticSystem, x: Sequence[complex], backend: str
) -> PointQuantities:
    """The certificate quantities for a square system at a point."""
    n = f.dim
    if f.size != n:
        raise CertificateUnavailableError(
            f"point quantities need a square system; got {f.size} equations in dimension {n}"
        )
    ball = BallContext.of(f)
    j0 = jacobian_at(f, x)
    svals = singular_values(j0)
    if svals[-1] == 0.0:
        raise CertificateUnavailableError("Jacobian is numerically singular at the point")
    v = system_evaluate(f, x)
    beta = float(np.linalg.norm(np.linalg.solve(j0, v)))
    mu = float(1.0 / svals[-1])
    nx = nu(x, ball)
    lam = lambda_bound(f, x, backend)
    kap = kappa(x, ball)
    gamma = max(1.0, lam * kap * mu)
    alpha = beta * kap
    return PointQuantities(beta, lam, kap, mu, gamma, alpha, nx)


def _alpha_threshold(gamma: float) -> float:
    """2 gamma + 1 - sqrt((2 gamma + 1)^2 - 1)."""
    return 1.0 / (2.0 * gamma + 1.0 + math.sqrt((2.0 * gamma + 1.0) ** 2 - 1.0))


def _u_low(alpha: float, gamma: float) -> float:
    """The low end of the window for u = kappa theta,
    (alpha + 1 - sqrt(disc)) / (2 (gamma + 1)) with disc = (alpha + 1)^2 -
    4 alpha (gamma + 1), which is positive below the threshold."""
    disc = (alpha + 1.0) ** 2 - 4.0 * alpha * (gamma + 1.0)
    return 2.0 * alpha / ((alpha + 1.0) + math.sqrt(disc))


def alpha_certificate(
    f: AnalyticSystem, x0: Sequence[complex], backend: str
) -> CertificateReport:
    """Existence/uniqueness certificate at x0; a failed test is a report.

    A passing certificate's ball B(x0, theta_low) always lies inside the
    ambient ball, so the report carries no note about it."""
    q = point_quantities(f, x0, backend)
    bound = _alpha_threshold(q.gamma)
    if q.alpha >= bound:
        return CertificateReport(q, bound, False, None, None, None)
    # Why B(x0, theta_low) lies inside B(omega, R): with nu = ||x0 - omega|| / R
    # and kappa >= (n+1) / (R (1 - nu^2)),
    #     theta_low = 2 alpha / ((alpha + 1) + sqrt(disc)) / kappa
    #              <= 2 alpha / kappa <= 2 alpha R (1 - nu)(1 + nu) / (n + 1),
    # and the test passes only for alpha < 3 - sqrt 8 < 0.172 < (n+1)/(2(1+nu)),
    # so theta_low < R (1 - nu) = R - ||x0 - omega||.
    theta_low = _u_low(q.alpha, q.gamma) / q.kappa
    theta_high = 1.0 / (q.kappa * (q.gamma + 1.0))
    return CertificateReport(q, bound, True, theta_low, theta_high, None)


def _gamma_radius_of(q: PointQuantities) -> float:
    """(2g+1-sqrt(4g^2+3g))/(kappa (g+1)) = 1/(kappa (2g+1+sqrt(4g^2+3g)))."""
    g = q.gamma
    return 1.0 / (q.kappa * (2.0 * g + 1.0 + math.sqrt(4.0 * g * g + 3.0 * g)))


def gamma_radius(f: AnalyticSystem, zeta: Sequence[complex], backend: str) -> float:
    """Quadratic-convergence radius (2g+1-sqrt(4g^2+3g))/(kappa (g+1)) at zeta."""
    return _gamma_radius_of(point_quantities(f, zeta, backend))


def deflated_radius_formula(
    gamma0: float, ell: int, kap: float, p: int, nu_zeta: float, n: int
) -> float:
    """Admissible u/kappa radius for the gamma_ell bound (closed form)."""
    x = (1.0 - nu_zeta * nu_zeta) ** ((n + 1) / 2.0)
    u = min(
        1.0 / (p + 1.0),
        x / (6.0 * (ell + gamma0) * (4.0 * kap**p * (1.0 + ell + gamma0) + x)),
    )
    return u / kap


def deflated_gamma_bound(
    trace: DeflationTrace, zeta: Sequence[complex], backend: str
) -> DeflatedGammaBound:
    """gamma_ell <= ell + gamma0 with the admissible ball radius.

    gamma0 = (2 p0 / (p0 + 1)) * lambda(f, zeta) * kappa^p0 * mu, where f is
    the trace's input system, p0 and p are the valuations observed by the
    trace's selections, and mu is the largest pivot-block inverse norm along
    the trace.
    """
    if trace.deflated is None:
        raise CertificateUnavailableError("trace is incomplete (no deflated system)")
    if not trace.mu_values:
        raise CertificateUnavailableError("trace carries no pivot-block data")
    f = trace.input_system
    ball = BallContext.of(f)
    n = ball.dim
    nz = nu(zeta, ball)
    lam0 = lambda_bound(f, zeta, backend)
    kap = kappa(zeta, ball)
    mu = trace.mu_max
    p0 = trace.p0
    p = trace.p
    ell = trace.thickness
    gamma0 = (2.0 * p0 / (p0 + 1.0)) * lam0 * kap**p0 * mu
    gamma_ell = ell + gamma0
    return DeflatedGammaBound(
        gamma0=gamma0,
        ell=ell,
        gamma_ell=gamma_ell,
        radius=deflated_radius_formula(gamma0, ell, kap, p, nz, n),
        p=p,
        p0=p0,
        mu_max=mu,
    )


def singular_alpha_certificate(
    f: AnalyticSystem, x0: Sequence[complex], backend: str
) -> tuple[CertificateReport, DeflationTrace]:
    """Existence certificate for a singular root via a deflation sequence.

    A deflation run that ends without a square system puts its ``failure``
    in the notes; otherwise the alpha certificate is applied to the deflated
    system.  Failed hypotheses are reported in the notes, never raised.
    """
    trace = deflation_sequence(f, x0, backend)
    if trace.deflated is None:
        return (
            CertificateReport(None, None, False, None, None, None, (trace.failure,)),
            trace,
        )
    report = alpha_certificate(trace.deflated, x0, backend)
    notes = report.notes
    if not report.alpha_ok:
        notes = ("hypothesis 2 failed: the deflated system fails the alpha test",) + notes
    return replace(report, gamma_radius=_gamma_radius_of(report.quantities), notes=notes), trace


def rank_stability_radius(
    f: AnalyticSystem,
    zeta: Sequence[complex],
    epsilon: float,
    backend: str,
) -> float:
    """Radius around zeta where the epsilon-rank of Df equals rank Df(zeta).

    Requires 0 <= epsilon < min(2 - sqrt(2), sigma_r(zeta)/2) with sigma_r the
    smallest nonzero singular value of Df(zeta); the radius is
    epsilon / (2 gamma_bar(f, zeta)) with gamma_bar its norm-based bound, 0.0
    at epsilon = 0.  A zeta outside the open ball raises ``DomainError`` at
    every epsilon.
    """
    if epsilon < 0:
        raise DomainError("epsilon must be nonnegative")
    j0 = jacobian_at(f, zeta)
    nonzero = [s for s in singular_values(j0) if s > 0.0]
    if not nonzero:
        raise DomainError("Jacobian vanishes at zeta; no nonzero singular value")
    sigma_r = float(nonzero[-1])
    cap = min(2.0 - math.sqrt(2.0), sigma_r / 2.0)
    if epsilon >= cap:
        raise DomainError(
            f"epsilon = {epsilon:.6g} must be below min(2 - sqrt 2, sigma_r/2) = {cap:.6g}"
        )
    return epsilon / (2.0 * gamma_bar_bound(f, zeta, backend))
