"""Exception taxonomy shared across the package.

Numerical failure modes are structured errors, never silent garbage:
singular inputs, rejected problem instances, and resampling exhaustion
each get their own class so callers (and the CLI exit-code table) can
tell them apart.
"""

from __future__ import annotations


class ExpnetError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ExpnetError):
    """Operands have incompatible or non-square shapes."""


class MatrixFormatError(ExpnetError, ValueError):
    """A matrix JSON object is malformed: fields missing, a non-integer
    ``dim``, or entries that are not a d x d array of finite [re, im]
    number pairs."""


class NearSingularError(ExpnetError):
    """A matrix failed its reciprocal-condition floor.

    Carries the offending estimate in ``rcond``.
    """

    def __init__(self, message: str, rcond: float):
        super().__init__(message)
        self.rcond = rcond


class ConvergenceError(ExpnetError):
    """An iterative kernel exceeded its iteration cap."""


class SingularInputError(ExpnetError):
    """Input has a zero (or numerically zero) eigenvalue where an
    invertible matrix is required."""


class IllConditionedError(ExpnetError):
    """A defective eigenvalue cluster straddles the logarithm branch cut,
    so no accurate primary logarithm can be returned."""


class InstanceRejectedError(ExpnetError):
    """A problem instance failed admission (some reciprocal-condition
    estimate at or below the threshold, or a degenerate configuration)."""


class ActivationSingularError(ExpnetError):
    """The activated matrix sigma(W1 @ X2) failed its rcond floor;
    the caller is expected to resample W1."""

    def __init__(self, message: str, rcond: float):
        super().__init__(message)
        self.rcond = rcond


class ComplexInputError(ExpnetError):
    """Real-field operation received entries with a non-negligible
    imaginary part."""


class MaxResampleError(ExpnetError):
    """Too many consecutive rejected random samples."""
