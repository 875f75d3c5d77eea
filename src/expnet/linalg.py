"""Dense linear algebra: validated matrix values, LU with condition
estimation, complex Schur decomposition, reproducible Gaussian sampling,
and the repo-wide matrix JSON format.

Matrices are plain ``numpy.ndarray`` values. :func:`cmatrix` is the
validating constructor of complex128 matrices; it returns a read-only
array so matrix values behave as immutable data. The LU routines keep the
field of their input: real input is factored and solved in float64,
complex input in complex128. All operations here are pure functions of
their inputs: repeated calls on identical inputs return bit-identical
results (BLAS summation order is fixed within one build).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, NearSingularError

#: A validated dense complex square matrix (see :func:`cmatrix`).
CMatrix = np.ndarray

#: rcond floor used for plumbing inverses when the caller does not say.
DEFAULT_RCOND_FLOOR = 1e-10

_GAUSSIAN_KINDS = ("complex-gaussian", "real-gaussian")


def cmatrix(entries) -> CMatrix:
    """Validate and freeze a square complex matrix value.

    Parameters
    ----------
    entries : array_like
        Square 2-D array; anything ``np.asarray`` accepts.

    Returns
    -------
    numpy.ndarray
        complex128, C-contiguous, read-only.

    Raises
    ------
    DimensionError
        If the input is not 2-D square.
    ValueError
        If any entry is NaN or infinite.
    """
    a = np.array(entries, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square 2-D matrix, got shape {a.shape}")
    require_finite(a)
    a.flags.writeable = False
    return a


def require_finite(a: np.ndarray, what: str = "matrix", error: type = ValueError) -> None:
    """Raise ``error`` unless every entry of ``a``, real or complex, is finite."""
    if not np.all(np.isfinite(a)):
        raise error(f"{what} entries must be finite (no NaN/Inf)")


def _check_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square 2-D, got shape {a.shape}")


@dataclass(frozen=True)
class LuFactors:
    """Partial-pivoted LU factorization with a condition estimate.

    Attributes
    ----------
    lu : numpy.ndarray
        L and U packed in one array (unit diagonal of L not stored).
    piv : numpy.ndarray
        Successive row-interchange indices: row ``i`` of the input was
        swapped with row ``piv[i]`` during elimination, in order.
    rcond : float
        1-norm reciprocal condition estimate in [0, 1]; exactly 0 when a
        zero pivot was encountered.
    """

    lu: np.ndarray
    piv: np.ndarray
    rcond: float


def lu_factor(a: CMatrix) -> LuFactors:
    """LU-factor a square matrix with partial pivoting.

    The factors have the input's field: float64 for real input (LAPACK
    dgetrf/dgecon), complex128 for complex input (zgetrf/zgecon).
    Never fails on singular input: exact singularity is reported through
    ``rcond == 0``. The estimate is the LAPACK 1-norm reciprocal
    condition number computed from the factors.
    """
    _check_square(a)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = np.ascontiguousarray(a, dtype=dtype)
    anorm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    with warnings.catch_warnings():
        # exact zero pivots are reported via rcond, not a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if anorm == 0.0 or np.any(np.diagonal(lu) == 0):
        return LuFactors(lu=lu, piv=piv, rcond=0.0)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"gecon failed with info={info}")
    return LuFactors(lu=lu, piv=piv, rcond=float(rcond))


def lu_solve(factors: LuFactors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve ``A x = b`` from :func:`lu_factor` output.

    ``trans=1`` solves ``A^T x = b`` instead; ``trans=2`` the conjugate
    transpose (LAPACK convention). The solution is real when both the
    factors and ``b`` are.
    """
    return scipy.linalg.lu_solve(
        (factors.lu, factors.piv), b, trans=trans, check_finite=False
    )


def inverse(a: CMatrix, rcond_floor: float = DEFAULT_RCOND_FLOOR) -> CMatrix:
    """Invert a square matrix, guarded by a reciprocal-condition floor.

    The inverse has the input's field (see :func:`lu_factor`).
    Residual behavior: measured over random well-conditioned inputs the
    multiply-back error satisfies ``||a @ inverse(a) - I||_F <= c * d *
    eps / rcond`` with c < 5 (c ~= 0.3 typical at d <= 16).

    Raises
    ------
    NearSingularError
        When the 1-norm rcond estimate is at or below ``rcond_floor``.
    """
    factors = lu_factor(a)
    if factors.rcond <= rcond_floor:
        raise NearSingularError(
            f"matrix is near-singular: rcond {factors.rcond:.3e} <= floor "
            f"{rcond_floor:.3e}",
            rcond=factors.rcond,
        )
    return lu_solve(factors, np.eye(a.shape[0], dtype=factors.lu.dtype))


@dataclass(frozen=True)
class SchurForm:
    """Complex Schur decomposition ``A = Q T Q^H``.

    ``q`` is unitary, ``t`` upper triangular with the eigenvalues on its
    diagonal, and ``eigenvalues`` lists them in diagonal order.
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray


def schur_decompose(a: CMatrix) -> SchurForm:
    """Complex Schur form via Hessenberg reduction plus shifted QR.

    The strictly lower triangle of ``t`` is exactly zero. Raises
    :class:`ConvergenceError` if the QR iteration hits the backend sweep
    cap (about 30 sweeps per eigenvalue) without deflating.
    """
    _check_square(a)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    try:
        t, q = scipy.linalg.schur(a, output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"QR iteration did not converge: {exc}") from exc
    t = np.triu(t)
    return SchurForm(q=q, t=t, eigenvalues=np.diagonal(t).copy())


def gaussian_entries(rng: np.random.Generator, dim: int, kind: str) -> np.ndarray:
    """Draw one d x d standard-Gaussian matrix from an open stream.

    ``complex-gaussian`` consumes a ``(dim, dim, 2)`` standard-normal
    block, last axis = (real, imag) per entry in row-major order;
    ``real-gaussian`` consumes a ``(dim, dim)`` block and the imaginary
    parts are exactly zero.
    """
    if kind == "complex-gaussian":
        z = rng.standard_normal((dim, dim, 2))
        return z[..., 0] + 1j * z[..., 1]
    if kind == "real-gaussian":
        return rng.standard_normal((dim, dim)) + 0j
    raise ValueError(f"unknown kind {kind!r}, expected one of {_GAUSSIAN_KINDS}")


def random_matrix(dim: int, seed: int, kind: str = "complex-gaussian") -> CMatrix:
    """Reproducible i.i.d. Gaussian matrix.

    Entries are N(0,1) real + i*N(0,1) imaginary for ``complex-gaussian``
    and N(0,1) with exactly zero imaginary part for ``real-gaussian``.
    The stream is PCG64 seeded with ``seed`` and the normal draw is
    numpy's ziggurat ``standard_normal``, so output is bit-exact for a
    fixed (dim, seed, kind).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.Generator(np.random.PCG64(seed))
    out = gaussian_entries(rng, dim, kind)
    out.flags.writeable = False
    return out


# -- matrix JSON format (shared repo-wide) ----------------------------------
#
#   {"dim": d, "entries": [[[re, im], ... d columns ...], ... d rows ...]}
#
# Writers emit native JSON floats (repr round-trips all 17 significant
# digits), so load(dump(A)) is bit-exact.


def matrix_to_json(a: CMatrix) -> dict:
    """Encode a matrix as the shared JSON object."""
    _check_square(a)
    a = np.asarray(a, dtype=np.complex128)
    return {
        "dim": a.shape[0],
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in a],
    }


def matrix_from_json(obj: dict) -> CMatrix:
    """Decode the shared JSON object back into a validated matrix."""
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix JSON must have 'dim' and 'entries' fields")
    dim = obj["dim"]
    rows = obj["entries"]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"entries do not form a {dim} x {dim} matrix")
    a = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )
    return cmatrix(a)


def save_matrix(path, a: CMatrix) -> None:
    """Write a matrix JSON file."""
    # one json.dumps call: json.dump streams through the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(matrix_to_json(a)) + "\n")


def load_matrix(path) -> CMatrix:
    """Read a matrix JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))
