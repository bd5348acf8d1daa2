"""Exception types shared across the library."""


class BetaError(Exception):
    """Base class for all library errors."""


class ValidationError(BetaError):
    """Invalid input data: bad field coefficients, bad transform, bad config."""


class NotIrreducible(ValidationError):
    pass


class NotPisot(ValidationError):
    pass


class NotUnit(ValidationError):
    pass


class FieldMismatch(ValidationError):
    pass


class EmptyPart(ValidationError):
    pass


class Overlap(ValidationError):
    pass


class NotSurjective(ValidationError):
    pass


class BadAlpha(ValidationError):
    pass


class PediciniGapViolated(ValidationError):
    pass


class UnknownDigit(ValidationError):
    pass


class DigitsNotIntegral(ValidationError):
    pass


class UnrenderableDimension(ValidationError):
    pass


class OutOfDomain(BetaError):
    """Point is not in the domain of the map (under the exact side convention)."""


class NoFixedPoint(BetaError):
    """The transfer matrix has no nonnegative fixed vector; defect signal."""


class BudgetExceeded(BetaError):
    """An iteration budget ran out.  Carries diagnostics in ``.info``."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info
