"""Exception taxonomy shared across the package.

Numerical failure modes are structured errors, never silent garbage,
with one class per failure so callers (and the CLI exit-code table) can
tell them apart: a matrix at or below an rcond floor, in ``inverse``,
``logm``, the solve's layer gates or the descent's sigma(W X2), raises
:class:`NearSingularError`, always from ``linalg.require_nonsingular``.
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
    """A matrix is at or below its rcond floor (a zero eigenvalue gives
    rcond 0).

    Carries the offending estimate in ``rcond``.
    """

    def __init__(self, message: str, rcond: float):
        super().__init__(message)
        self.rcond = rcond


class ConvergenceError(ExpnetError):
    """An iterative kernel exceeded its iteration cap."""


class IllConditionedError(ExpnetError):
    """Coupled eigenvalues straddle the logarithm branch cut, so no
    accurate primary logarithm can be returned: an entry of the
    triangular logarithm whose span holds such a pair is above
    ``matfuncs.STRADDLE_LOG_LIMIT``, or NaN."""


class InstanceRejectedError(ExpnetError):
    """A problem instance failed admission (some reciprocal-condition
    estimate at or below the threshold, or a degenerate configuration)."""


class ComplexInputError(ExpnetError):
    """Real-field operation received entries with a non-negligible
    imaginary part."""


class MaxResampleError(ExpnetError):
    """Too many consecutive rejected random samples."""
