"""Exception hierarchy for the englert_sums package.

Everything raised deliberately by this package derives from
:class:`EnglertSumsError`, so callers can catch one type.  A few classes
double-inherit from builtins (ValueError) where that matches how the
stdlib would signal the same misuse.
"""


class EnglertSumsError(Exception):
    """Base class for all errors raised by englert_sums."""


class DomainError(EnglertSumsError, ValueError):
    """Input outside the mathematical domain of the routine.

    Examples: non-finite argument to a bracket function, a negative
    Bernoulli index, a bracket polynomial shifted by anything but a
    whole number of quarter turns.
    """


class CapacityError(EnglertSumsError):
    """Request exceeds a documented table or cache limit."""


class UnsupportedOrderError(EnglertSumsError):
    """The family exists but has no member at the requested order.

    Raised for order-0 members whose defining series has no finite
    closed form of the supported shape (for instance the cosine family
    at order zero, whose series diverges for every argument).
    """


class SingularPointError(EnglertSumsError):
    """Evaluation requested exactly at a pole or logarithmic singularity."""


class JumpPointError(SingularPointError):
    """Evaluation requested exactly at a jump discontinuity.

    Subclass of SingularPointError so blanket handlers for singular
    lattice points also catch jumps; the distinction matters only for
    reporting (a jump has finite one-sided limits, a pole does not).
    """


class InternalConsistencyError(EnglertSumsError):
    """A structural invariant that the code relies on failed to hold.

    This is a bug indicator, not a user error: e.g. the linear part of
    an integrated even polynomial failing to cancel.
    """


class ToleranceNotReachedError(EnglertSumsError):
    """The series engine exhausted its term budget before the target."""

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate


class UsageError(EnglertSumsError):
    """Bad command-line arguments (reserved for the CLI layer)."""


def check_int(value, what, minimum, cap=None):
    """Refuse anything but a plain int in [minimum, cap].

    A bool, a non-int or a value below minimum raises DomainError; a
    value above cap raises CapacityError.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be a plain integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{what} must be >= {minimum}, got {value}")
    if cap is not None and value > cap:
        raise CapacityError(f"{what} {value} exceeds the supported cap {cap}")
