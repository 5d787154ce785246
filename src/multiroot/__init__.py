"""Certified deflation and singular Newton iteration for multiple roots.

Given a point near a multiple isolated root of an analytic/polynomial
system, this package builds a deflation sequence (selection plus
Schur-complement kerneling), extracts a regular square system, runs the
singular Newton operator, and emits alpha/gamma-theory certificates — with a
threshold-free numerical-rank oracle and ball-norm-based bounds throughout.
"""

from .bergman import (
    APPENDIX_SLICE,
    COMPLEX_EXACT,
    BallContext,
    derivative_bound,
    gamma_bar_bound,
    kappa,
    lambda_bound,
    norm_a2,
    nu,
)
from .certificates import (
    CertificateReport,
    DeflatedGammaBound,
    PointQuantities,
    alpha_certificate,
    deflated_gamma_bound,
    gamma_radius,
    point_quantities,
    rank_stability_radius,
    singular_alpha_certificate,
)
from .deflation import (
    ALPHA0,
    DeflationStep,
    DeflationTrace,
    SmallnessGate,
    deflation_sequence,
    eta_threshold,
    extract_square,
    is_small,
    kernel_op,
    newton_iterate,
    pivot_selection,
    singular_newton_step,
    truncated_deflation,
)
from .errors import (
    CertificateUnavailableError,
    DomainError,
    ExtractionError,
    HypothesisFailure,
    MultirootError,
    ParseError,
    RankDeficiencyError,
    SingularPivotError,
    StructuralError,
    TruncationExhaustedError,
)
from .rank import RankReport, elementary_symmetric, numerical_rank, rank_quantities, singular_values
from .series import (
    AnalyticSystem,
    TruncatedSeries,
    jacobian_at,
    system_evaluate,
    ts_derivative,
    ts_evaluate,
    ts_recenter,
    ts_truncate,
)

__version__ = "0.1.0"
