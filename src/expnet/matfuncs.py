"""Matrix exponential and logarithm over the complex field.

``expm`` is scipy's Pade-13 scaling and squaring (Al-Mohy & Higham, SISC
2009) behind the package's error contract. ``logm`` works on the complex
Schur form by inverse scaling and squaring (Al-Mohy & Higham, *Improved
inverse scaling and squaring algorithms for the matrix logarithm*, SISC
2012): principal square roots of the triangular factor T (scipy's
recursive Schur square root, after Deadman, Higham & Ralha 2013) until
X = T^(1/2^s) - I is small enough for an [m/m] Pade approximant of degree
m <= 7, that approximant in its Gauss-Legendre partial-fraction form, then
a factor 2^s. Logarithm branches are selected per eigenvalue as
log lam = ln|lam| + i*(arg lam + 2*pi*k) with principal arg in (-pi, pi].

Both kernels call scipy's compiled routines directly, without the Python
wrappers of ``scipy.linalg.expm`` and ``scipy.linalg.sqrtm``: a dense
exponential runs ``pick_pade_structure`` and ``pade_UV_calc`` and squares
in Python, as scipy's generic branch does, and every square root runs
``recursive_schur_sqrtm``. The tests pin both to the public functions
bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np
import scipy.linalg
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
from scipy.linalg._matfuncs_schur_sqrtm import recursive_schur_sqrtm

from .errors import ConvergenceError, IllConditionedError
from .linalg import (
    CMatrix,
    _check_square,
    _lapack,
    integer_value,
    one_norm,
    require_finite,
    require_nonsingular,
    schur_decompose,
)

#: expm refuses inputs above this 1-norm. Not for range (a skew-Hermitian
#: input has a unitary exponential) but for scipy's Pade picker, which stops
#: scaling by 1e40 and from 1e78 returns a finite matrix near -I for one.
EXPM_NORM_LIMIT = 1e8

#: theta_m of Al-Mohy & Higham (SISC 2012), Table 2.1, m = 1..7: the
#: [m/m] Pade approximant r_m(X) to log(I + X) is accurate to unit
#: roundoff when alpha_2(X) = max(||X^2||^(1/2), ||X^3||^(1/3)) <= theta_m.
LOGM_PADE_THETA = (1.59e-5, 2.31e-3, 1.94e-2, 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1)

#: Square roots logm may take before giving up with ConvergenceError.
LOGM_MAX_SQRTS = 60

#: Largest entry (i, j) the logarithm of the triangular factor may have
#: when eigenvalues i..j include a pair astride the branch cut. Such a
#: pair with gap g and coupling c has |log t_ij| about c * 2*pi / g, so
#: the limit admits coupling/gap ratios up to 200: over 1,500 random
#: rotated pairs (d 2 to 8), all up to 200 met the logm contract 30x
#: over, and misses began near 640. A chain of k coupled eigenvalues
#: astride the cut grows the entries like (coupling/gap)^(k-1): over
#: 5,500 random inputs with near-defective blocks (d up to 6), the log
#: missed its roundtrip contract only past 6,000. Random admitted
#: instances stay below 30.
STRADDLE_LOG_LIMIT = 2.0 * math.pi * 200.0


#: The principal logarithm branch, k = 0 (see :func:`logm`).
PRINCIPAL = 0


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
    ValueError
        If an entry is NaN or infinite.
    OverflowError
        If ``||a||_1 > 1e8``, past which scipy's Pade scaling is not
        reliable, or if entries overflow during the repeated squaring.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_square(a)
    # one pass guards both contracts: the 1-norm is finite exactly when
    # every entry is, so the finiteness scan only runs on refusal
    anorm = float(one_norm(a))
    if not anorm <= EXPM_NORM_LIMIT:
        require_finite(a)
        raise OverflowError(
            f"||a||_1 = {anorm:.3e} exceeds {EXPM_NORM_LIMIT:.0e}, past which "
            "the Pade scaling and squaring is not reliable"
        )
    # overflow during squaring is reported as an error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if a.shape[0] >= 2 and a[1, 0] != 0 and a[0, 1] != 0:
            result = _expm_dense(a)
        else:
            result = scipy.linalg.expm(a)
    return require_finite(result, "exponential after repeated squaring", OverflowError)


def _expm_dense(a: np.ndarray) -> np.ndarray:
    """scipy's generic expm branch, for input that is neither diagonal nor
    triangular (both corner entries a[1, 0] and a[0, 1] nonzero)."""
    work = np.empty((5, *a.shape), dtype=np.complex128)
    # pick_pade_structure scales work[0] by 2^-s in place
    work[0] = a
    m, s = pick_pade_structure(work)
    if m < 0:  # pragma: no cover - failed allocation in the kernel
        raise MemoryError(f"pick_pade_structure failed with code {m}")
    info = pade_UV_calc(work, m)
    if info != 0:  # pragma: no cover - failed allocation or LAPACK argument error
        raise RuntimeError(f"pade_UV_calc failed with info={info}")
    result = work[0]
    for _ in range(s):
        result = result @ result
    return result


def _sqrtm_triu(t: np.ndarray) -> np.ndarray:
    """Principal square root of an upper-triangular matrix.

    scipy's ``recursive_schur_sqrtm``, the kernel of
    ``scipy.linalg.sqrtm``, called directly: it reports an ill-conditioned
    root only through flags, which are not read here. A root blows up only
    across the branch cut, and :func:`logm` refuses that on the logarithm.
    """
    r, _, _, info = recursive_schur_sqrtm(t)
    if info < 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"recursive_schur_sqrtm failed with info={info}")
    return r


def _span_max(upper: np.ndarray) -> np.ndarray:
    """out[i, j] = max of upper[k, l] over i <= k <= l <= j, for an upper
    triangle: a running max along each row, then from the bottom row up."""
    return np.maximum.accumulate(
        np.maximum.accumulate(upper, axis=1)[::-1], axis=0
    )[::-1]


def _reject_straddling_span(eig: np.ndarray, magnitude: np.ndarray) -> None:
    """Refuse a logarithm of the triangular factor with an entry (i, j)
    above ``STRADDLE_LOG_LIMIT``, or NaN, whose span i..j holds two
    eigenvalues astride the branch cut (principal arguments more than pi
    apart). ``magnitude`` holds the moduli of the logarithm's entries.
    A large entry whose span holds no such pair is an accurate log of a
    non-normal matrix, and passes."""
    args = _principal_log(eig).imag
    straddle = np.triu(np.abs(args[:, None] - args[None, :]) > math.pi)
    over = _span_max(straddle) & ~(magnitude <= STRADDLE_LOG_LIMIT)
    if over.any():
        i, j = np.argwhere(over)[0]
        raise IllConditionedError(
            f"eigenvalues {eig[i]:.6g} to {eig[j]:.6g} span a coupled cluster "
            "straddling the log branch cut: its logarithm has an entry of "
            f"modulus {magnitude[i, j]:.3e}, above {STRADDLE_LOG_LIMIT:.0f}"
        )


@functools.cache
def _pade_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of degree m, moved to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _check_root_cap(roots: int) -> None:
    if roots >= LOGM_MAX_SQRTS:
        raise ConvergenceError("square-root chain failed to reach the Pade region")


def _logm_triu(t: np.ndarray) -> np.ndarray:
    """Principal logarithm of an upper-triangular matrix.

    Inverse scaling and squaring after Al-Mohy & Higham (SISC 2012),
    Algorithm 4.1 without its extra-root heuristic. The diagonal of
    X = T^(1/2^s) - I is a lower bound on alpha_2(X), and the diagonal of
    a triangular root is the scalar roots of the diagonal, so s starts
    as the number of scalar square roots that bring every eigenvalue
    within theta_7 of 1; that many principal roots of T are taken with
    no test in between. Further roots follow until
    alpha_2(X) = max(||X^2||_1^(1/2), ||X^3||_1^(1/3)) <= theta_7. The
    smallest m with alpha_2(X) <= theta_m picks the [m/m]
    Pade approximant, evaluated as sum_j w_j (I + x_j X)^-1 X over the
    Gauss-Legendre nodes x_j and weights w_j on [0, 1]: m triangular
    solves. The result is multiplied by 2^s, and its diagonal is finally
    reset to exact scalar logs of the original eigenvalues.
    """
    dim = t.shape[0]
    eye = np.eye(dim, dtype=np.complex128)
    # fold -0.0 imaginary parts onto +0.0: the root of -1 must be +i, on
    # the sheet of the exact diagonal logs below
    t = np.asarray(t, dtype=np.complex128) + 0.0
    theta = LOGM_PADE_THETA[-1]
    diagonal = t.diagonal()
    roots = 0
    while np.abs(diagonal - 1.0).max() > theta:
        _check_root_cap(roots)
        diagonal = np.sqrt(diagonal)
        roots += 1
    work = t
    for _ in range(roots):
        work = _sqrtm_triu(work)
    while True:
        x = work - eye
        x2 = x @ x
        alpha = max(one_norm(x2) ** 0.5, one_norm(x2 @ x) ** (1.0 / 3.0))
        if alpha <= theta:
            break
        _check_root_cap(roots)
        work = _sqrtm_triu(work)
        roots += 1
    nodes, weights = _pade_nodes(bisect.bisect_left(LOGM_PADE_THETA, alpha) + 1)
    trtrs = _lapack(x.dtype).trtrs
    out = np.zeros_like(x)
    # (I + x_j X)^-1 X for every node x_j: each I + x_j X is upper triangular
    for shifted, weight in zip(eye + nodes[:, None, None] * x, weights):
        y, info = trtrs(shifted, x)
        if info != 0:  # pragma: no cover - |x_j x_ii| < 0.3, never singular
            raise ValueError(f"trtrs failed with info={info}")
        out += weight * y
    out *= 2.0**roots
    np.fill_diagonal(out, np.log(np.diagonal(t)))
    return out


def logm(a: CMatrix, branch: int = PRINCIPAL) -> CMatrix:
    """Matrix logarithm on the requested branch.

    ``branch = k`` selects log lam = ln|lam| + i*(arg lam + 2*pi*k) for
    every eigenvalue, principal arg in (-pi, pi]. The default k = 0 is
    the principal branch. Any integer k yields a valid logarithm because
    the matrix exponential maps all of them back to the same matrix; an
    integral float counts as an integer.

    Accuracy contract: ``||expm(logm(a)) - a||_F <= 1e-8 * ||a||_F *
    kappa`` with kappa = max(1, ||strict upper of T||_F / g), T the
    triangular factor of the Schur form of ``a`` and g the smallest
    pairwise gap of its eigenvalues, floored at eps * max|eigenvalue|.
    Normal matrices give kappa = 1; defective clusters blow it up, voiding
    the bound (the computation itself still proceeds).

    Raises
    ------
    ValueError
        For a bool or non-integral ``branch``, or a NaN or infinite entry.
    NearSingularError
        If the 1-norm rcond of the triangular Schur factor T (LAPACK
        trcon) is at or below :data:`~expnet.linalg.SINGULAR_RCOND`, as it
        is, at 0, for a zero eigenvalue; ``rcond`` holds that estimate.
        T = Q^H A Q has the singular values of ``a``, so the 1-norm
        condition numbers of T and ``a`` agree within a factor d^2: on
        2,000 random inputs within a decade of the floor, the estimate
        was 0.5 to 3.5 times the LU estimate of ``a``.
    IllConditionedError
        Coupled eigenvalues straddling the branch cut: an entry (i, j)
        of the triangular log above ``STRADDLE_LOG_LIMIT``, or NaN,
        where eigenvalues i..j include two whose principal arguments
        are more than pi apart. No accurate primary logarithm exists
        there; the message names the eigenvalues at the ends of the
        span and the entry's modulus.
    ConvergenceError
        The square-root chain did not reach the Pade region within
        ``LOGM_MAX_SQRTS`` roots.
    """
    branch = integer_value(branch, "branch must be an integer")
    # schur_decompose refuses a non-square or non-finite matrix
    form = schur_decompose(a)
    rcond, info = _lapack(form.t.dtype).trcon(form.t)
    if info != 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"trcon failed with info={info}")
    require_nonsingular(rcond)
    log_t = _logm_triu(form.t)
    magnitude = np.abs(log_t)
    # written so that a NaN from an overflowed root fails the test
    if not magnitude.max() <= STRADDLE_LOG_LIMIT:
        _reject_straddling_span(form.eigenvalues, magnitude)
    if branch:
        log_t = log_t + (2j * math.pi * branch) * np.eye(
            form.t.shape[0], dtype=np.complex128
        )
    return form.q @ log_t @ form.q.conj().T

