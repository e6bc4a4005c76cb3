"""Exception hierarchy shared by all modules.

Every error raised by the library derives from :class:`QCoherentError`, so
callers (notably the CLI) can map failures to a stable error name via
``type(exc).__name__``.
"""


class QCoherentError(Exception):
    """Base class for all library errors."""


class DomainError(QCoherentError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleAtZero(QCoherentError):
    """A rational function has a pole at t = 0, so the limit does not exist."""


class InternalInconsistency(QCoherentError):
    """An internal invariant failed; indicates a bug, not a user error."""


class DegreeMismatch(QCoherentError):
    """A polynomial does not have the degree required by an operation."""


class OrderExceeded(QCoherentError):
    """An operation would consume moments beyond a functional's order."""


class NotSimpleSet(QCoherentError):
    """A polynomial sequence is not a simple set (degrees 0, 1, 2, ...)."""


class MissingCoefficient(QCoherentError):
    """A recurrence coefficient table is too short for the request."""


class MissingData(QCoherentError):
    """A structure-coefficient table does not cover a required window."""


class IndexOutOfRange(QCoherentError):
    """A construction was asked for an index outside its defined range."""


class RegularityViolation(QCoherentError):
    """A regularity condition fails; the message names condition and index."""


class DenominatorZero(QCoherentError):
    """A closed-form recurrence denominator vanishes at some index."""


class RestrictionViolation(QCoherentError):
    """A classical-family parameter restriction fails."""


class DegreeClaimViolated(QCoherentError):
    """A constructed polynomial violates a stated degree bound."""


class DegenerateInput(QCoherentError):
    """Input data violates a prerequisite of the classification."""


# errors that mean sampled parameters are inadmissible, so another draw is
# taken; any other error is a fault and ends the sampling loop
INADMISSIBLE = (RegularityViolation, RestrictionViolation, DenominatorZero,
                PoleAtZero, DegenerateInput)
