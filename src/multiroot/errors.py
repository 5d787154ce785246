"""Exception hierarchy shared by all multiroot modules.

A deflation run never raises a ``HypothesisFailure``: it names the failure in
its trace's ``failure`` and stops.  The public helpers it calls
(``select_detailed``, ``kernel_op``, ``extract_square``) still raise one when
called directly.  Malformed input (``StructuralError``, ``DomainError``,
``ParseError``) always raises.

The CLI exits 2 on a failed hypothesis (``deflate`` names it in ``failure``)
and 3 on any other ``MultirootError``, which well-posed input does not reach,
or on an ``OverflowError`` from finite input too large for double precision.
"""


class MultirootError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(MultirootError):
    """Operands are structurally incompatible (center, dimension, shape)."""


class DomainError(MultirootError):
    """An input lies outside the mathematical domain of the operation."""


class HypothesisFailure(MultirootError):
    """A hypothesis of the deflation fails at the working point."""


class SingularPivotError(HypothesisFailure):
    """A pivot block is numerically singular at the system's center.  Only a
    direct ``kernel_op`` call raises it: a deflation's systems are centered
    at x0, where it chooses its block above this test's rounding floor."""


class RankDeficiencyError(HypothesisFailure):
    """A pivot search finds no block for the rank certified for the matrix,
    or its candidates exceed the search cap."""


class TruncationExhaustedError(HypothesisFailure):
    """Selection needs derivatives beyond the stored truncation order."""


class ExtractionError(HypothesisFailure):
    """No square subsystem of full numerical rank could be extracted, or the
    candidate subsets exceed the search cap."""


class CertificateUnavailableError(MultirootError):
    """A certificate cannot be computed from the supplied data."""


class ParseError(MultirootError):
    """An input file is malformed; the message names the offending field."""
