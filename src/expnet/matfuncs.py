"""Matrix exponential and logarithm over the complex field.

``expm`` is scipy's Pade-13 scaling and squaring (Al-Mohy & Higham, SISC
2009) behind the package's error contract. ``logm`` works on the complex
Schur form: repeated principal square roots of the triangular factor
(scipy's blocked Schur square root, Deadman, Higham & Ralha 2013) until
the Mercator series log(I + K) = K - K^2/2 + K^3/3 - ... converges fast,
then squaring the result back up. Logarithm branches are selected per
eigenvalue as log lam = ln|lam| + i*(arg lam + 2*pi*k) with principal arg
in (-pi, pi].

``jordan_block_log`` is the exact finite-series logarithm of a single
Jordan block; it exists as an independent oracle for ``logm``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    DimensionError,
    IllConditionedError,
    SingularInputError,
)
from .linalg import (
    CMatrix,
    SchurForm,
    _check_square,
    lu_factor,
    require_finite,
    schur_decompose,
)

#: expm refuses inputs above this 1-norm: e^||a|| is far beyond float range.
EXPM_NORM_LIMIT = 1e8

# logm: square-root until ||T - I||_1 is inside the Mercator region, then
# sum until the next term falls below 1e-16 relative (at most ~30 terms
# once ||K||_1 <= 0.25; the cap is never the effective stop).
LOGM_SQRT_TARGET = 0.25
LOGM_MAX_SQRTS = 60
MERCATOR_RELATIVE_TOL = 1e-16
MERCATOR_MAX_TERMS = 96

#: rcond floor below which logm refuses its input as singular.
LOGM_RCOND_FLOOR = 1e-10

#: Largest strictly-upper entry a square root of the triangular factor may
#: have, relative to its largest diagonal magnitude. Entry (i, j) is about
#: t_ij / (sqrt t_ii + sqrt t_jj), and that sum only nears zero when the
#: two eigenvalues sit astride the branch cut.
SQRT_ENTRY_LIMIT = 1e8

#: Largest coupling/gap ratio of two eigenvalues astride the branch cut.
#: The roundtrip error grows as its cube: over 1,500 random rotated pairs
#: (d 2 to 8), all up to 200 met the logm contract 30x over; misses began
#: near 640.
STRADDLE_COUPLING_LIMIT = 200.0


@dataclass(frozen=True)
class BranchSpec:
    """Logarithm branch choice.

    ``branch_offset = k`` selects log lam = ln|lam| + i*(arg lam + 2*pi*k)
    for every eigenvalue, principal arg in (-pi, pi]. The default k = 0 is
    the principal branch. Any k yields a valid logarithm because the
    matrix exponential maps all of them back to the same matrix.
    """

    branch_offset: int = 0


PRINCIPAL = BranchSpec(0)


def _principal_log(z) -> np.ndarray:
    """Elementwise principal log, arg in (-pi, pi] closed at +pi."""
    # fold -0.0 imaginary parts onto +0.0 so arg(-1) = +pi, not -pi
    return np.log(np.asarray(z, dtype=np.complex128) + 0.0)


def expm(a: CMatrix) -> CMatrix:
    """Matrix exponential sum(A^k / k!).

    scipy's Pade-13 scaling and squaring (Al-Mohy & Higham, SISC 2009).
    The result of an exact exponential is always invertible.

    Raises
    ------
    OverflowError
        If ``||a||_1 > 1e8``, or if entries overflow during the repeated
        squaring (e^||a|| beyond float range).
    """
    _check_square(a)
    a = np.asarray(a, dtype=np.complex128)
    require_finite(a)
    anorm = float(np.linalg.norm(a, 1))
    if anorm > EXPM_NORM_LIMIT:
        raise OverflowError(
            f"||a||_1 = {anorm:.3e} exceeds {EXPM_NORM_LIMIT:.0e}; entries would overflow"
        )
    # overflow during squaring is reported as an error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(a)
    if not np.all(np.isfinite(result)):
        raise OverflowError("entries overflowed during repeated squaring")
    return result


def _sqrtm_triu(t: np.ndarray) -> np.ndarray:
    """Principal square root of an upper-triangular matrix.

    Refuses a result with a non-finite entry or a strictly-upper entry
    above ``SQRT_ENTRY_LIMIT`` times its largest diagonal magnitude: two
    coupled eigenvalues straddle the branch cut. The test is relative, so
    scaling the input by s scales the root by sqrt(s) and leaves the
    verdict unchanged.
    """
    with warnings.catch_warnings():
        # a blown-up root is reported below, not as a warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        r = scipy.linalg.sqrtm(t)
    limit = SQRT_ENTRY_LIMIT * np.abs(np.diagonal(r)).max()
    if not np.all(np.isfinite(r)) or np.any(np.abs(np.triu(r, 1)) > limit):
        raise IllConditionedError(
            "two coupled eigenvalues straddle the logarithm branch cut; "
            "the triangular square root blew up"
        )
    return r


def _reject_straddling_clusters(form: SchurForm) -> None:
    """Refuse inputs with two eigenvalues on different branch sheets whose
    coupling through the triangular factor exceeds
    ``STRADDLE_COUPLING_LIMIT`` times their gap.

    The coupling of eigenvalues i < j is the largest strictly-upper entry
    of ``t[i:j+1, i:j+1]``.
    """
    eig = form.eigenvalues
    upper = np.abs(np.triu(form.t, 1))
    # coupling[i, j] = max |t_kl| over i <= k < l <= j: a running max along
    # each row, then from the bottom row up
    coupling = np.maximum.accumulate(
        np.maximum.accumulate(upper, axis=1)[::-1], axis=0
    )[::-1]
    args = _principal_log(eig).imag
    straddle = np.abs(args[:, None] - args[None, :]) > math.pi
    gap = np.abs(eig[:, None] - eig[None, :])
    bad = straddle & (coupling > STRADDLE_COUPLING_LIMIT * gap)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise IllConditionedError(
            f"eigenvalues {eig[i]:.6g} and {eig[j]:.6g} form a coupled "
            f"cluster (gap {gap[i, j]:.3e}) straddling the log branch cut"
        )


def _logm_triu(t: np.ndarray) -> np.ndarray:
    """Principal logarithm of an upper-triangular matrix.

    Inverse scaling and squaring: principal square roots until
    ``||T - I||_1 <= LOGM_SQRT_TARGET``, Mercator series on K = T - I,
    then multiply by 2^s. The diagonal is finally reset to exact scalar
    logs of the original eigenvalues.
    """
    dim = t.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    # fold -0.0 imaginary parts onto +0.0: the root of -1 must be +i, on
    # the sheet of the exact diagonal logs below
    t = np.asarray(t, dtype=np.complex128) + 0.0
    work = t
    squarings = 0
    while np.linalg.norm(work - eye, 1) > LOGM_SQRT_TARGET:
        if squarings >= LOGM_MAX_SQRTS:
            raise ConvergenceError(
                "square-root chain failed to reach the Mercator convergence region"
            )
        work = _sqrtm_triu(work)
        squarings += 1
    k = work - eye
    term = k.copy()
    acc = k.copy()
    for m in range(2, MERCATOR_MAX_TERMS + 1):
        term = term @ k
        acc += ((-1.0) ** (m + 1) / m) * term
        if np.linalg.norm(term, 1) / m <= MERCATOR_RELATIVE_TOL * np.linalg.norm(acc, 1):
            break
    out = acc * (2.0**squarings)
    np.fill_diagonal(out, np.log(np.diagonal(t)))
    return np.triu(out)


def eigenvector_condition_estimate(form: SchurForm) -> float:
    """Cheap conditioning proxy kappa used in the logm accuracy contract.

    kappa = max(1, ||strict upper of T||_F / g) where g is the smallest
    pairwise eigenvalue gap, clamped below at eps * max|eigenvalue|.
    Normal matrices give 1; defective clusters blow up, voiding the
    roundtrip bound (the computation itself still proceeds).
    """
    eig = form.eigenvalues
    dim = len(eig)
    offdiag = float(np.linalg.norm(np.triu(form.t, 1)))
    if dim < 2 or offdiag == 0.0:
        return 1.0
    gaps = [
        abs(eig[i] - eig[j]) for i in range(dim) for j in range(i + 1, dim)
    ]
    floor = np.finfo(float).eps * max(abs(eig).max(), 1e-300)
    gap = max(min(gaps), floor)
    return max(1.0, offdiag / gap)


def logm(a: CMatrix, branch: BranchSpec = PRINCIPAL) -> CMatrix:
    """Matrix logarithm on the requested branch.

    Accuracy contract: ``||expm(logm(a)) - a||_F <= 1e-8 * ||a||_F *
    max(1, kappa)`` with kappa from
    :func:`eigenvector_condition_estimate` of the Schur form.

    Raises
    ------
    SingularInputError
        rcond at or below 1e-10, or a zero eigenvalue in the Schur form.
    IllConditionedError
        Coupled near-multiple eigenvalues straddling the branch cut; no
        accurate primary logarithm exists there.
    """
    _check_square(a)
    a = np.asarray(a, dtype=np.complex128)
    require_finite(a)
    factors = lu_factor(a)
    if factors.rcond <= LOGM_RCOND_FLOOR:
        raise SingularInputError(
            f"matrix is singular to working precision (rcond {factors.rcond:.3e})"
        )
    form = schur_decompose(a)
    if np.any(form.eigenvalues == 0):
        raise SingularInputError("zero eigenvalue; no logarithm exists")
    _reject_straddling_clusters(form)
    log_t = _logm_triu(form.t)
    if branch.branch_offset:
        log_t = log_t + (2j * math.pi * branch.branch_offset) * np.eye(
            a.shape[0], dtype=np.complex128
        )
    return form.q @ log_t @ form.q.conj().T


def jordan_block_log(lam: complex, m: int) -> CMatrix:
    """Exact logarithm of the m x m Jordan block with eigenvalue lam.

    The block factors as lam * (I + K) with K the upper shift divided by
    lam, so log = (ln lam) I + K - K^2/2 + ... with exactly m - 1 series
    terms (K^m = 0). Superdiagonal j carries (-1)^(j+1) lam^(-j) / j.
    Principal scalar branch. Serves as an exact oracle for :func:`logm`
    on single Jordan blocks.
    """
    if m < 1:
        raise ValueError(f"block size must be >= 1, got {m}")
    lam = complex(lam)
    if lam == 0:
        raise SingularInputError("Jordan block with zero eigenvalue has no logarithm")
    out = np.zeros((m, m), dtype=np.complex128)
    np.fill_diagonal(out, _principal_log(lam))
    for j in range(1, m):
        value = (-1.0) ** (j + 1) * lam ** (-j) / j
        idx = np.arange(m - j)
        out[idx, idx + j] = value
    return out


def check_commuting_product(a: CMatrix, b: CMatrix) -> float:
    """Relative defect of exp(a) exp(b) = exp(a + b).

    Returns ``||expm(a) @ expm(b) - expm(a + b)||_F / ||expm(a + b)||_F``.
    At most ~1e-9 for commuting pairs of moderate norm; order one (the
    size of the Baker-Campbell-Hausdorff correction) otherwise.
    """
    _check_square(a, "a")
    _check_square(b, "b")
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    combined = expm(np.asarray(a) + np.asarray(b))
    separate = expm(a) @ expm(b)
    return float(np.linalg.norm(separate - combined) / np.linalg.norm(combined))
