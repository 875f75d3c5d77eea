"""Matrix exponential and logarithm over the complex field.

``expm`` is scipy's Pade-13 scaling and squaring (Al-Mohy & Higham, SISC
2009) behind the package's error contract. ``logm`` takes the complex
Schur form A = Q T Q^H and a logarithm of the triangular factor T by one
of two paths. When the eigenvectors W of T (LAPACK zgeev) are well
conditioned, rcond_1(W) at or above ``EIGENVECTOR_RCOND_FLOOR``, log T is
W diag(log t_ii) W^-1, accurate to about eps * kappa(W) (Higham,
*Functions of Matrices*, SIAM 2008, sec. 4.5). Otherwise, for Jordan
blocks and near-defective clusters, it runs inverse scaling and squaring
(Al-Mohy & Higham, *Improved inverse scaling and squaring algorithms for
the matrix logarithm*, SISC 2012): principal square roots of T (scipy's
recursive Schur square root, after Deadman, Higham & Ralha 2013) until
X = T^(1/2^s) - I is small enough for an [m/m] Pade approximant of degree
m <= 7, that approximant in its Gauss-Legendre partial-fraction form, then
a factor 2^s. Either path leaves the diagonal to ``logm``, which takes
each eigenvalue's logarithm once and writes the exact scalar logs there,
then the branch: log lam = ln|lam| + i*(arg lam + 2*pi*k) with principal
arg in (-pi, pi].

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
    _shown,
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


#: 1-norm rcond (LAPACK trcon) of the eigenvector matrix W of the
#: triangular factor T at or above which logm takes log T as
#: W diag(log t_ii) W^-1 instead of by inverse scaling and squaring. That
#: product is accurate to about eps * kappa(W): over 12,000 random
#: triangles (d 2 to 8, a pair of eigenvalues at gap 1e-12 to 1 coupled at
#: 1e-2 to 1e9 times the gap, 30% of pairs astride the branch cut), its
#: relative error against a 60-digit Parlett recurrence never exceeded
#: 1.7e-16 / rcond(W). At this floor the worst was 5.9e-14, against 5.4e-14
#: for inverse scaling and squaring over the whole sweep and the 1e-13 the
#: tests hold logm to; at 1e-4 it was 6.0e-13. On 500 solver quotients
#: Y1^-1 Y2 (d 2 to 32) the smallest rcond(W) was 2.1e-3, at d = 32.
EIGENVECTOR_RCOND_FLOOR = 1e-3

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


def _reject_straddling_span(eig: np.ndarray, args: np.ndarray, magnitude: np.ndarray) -> None:
    """Refuse a logarithm of the triangular factor with an entry (i, j)
    above ``STRADDLE_LOG_LIMIT``, or NaN, whose span i..j holds two
    eigenvalues astride the branch cut (principal arguments ``args`` more
    than pi apart). ``magnitude`` holds the moduli of the logarithm's
    entries. A large entry whose span holds no such pair is an accurate
    log of a non-normal matrix, and passes."""
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


def _logm_triu(t: np.ndarray) -> np.ndarray:
    """Principal logarithm of an upper-triangular matrix; :func:`logm`
    writes its diagonal.

    Inverse scaling and squaring after Al-Mohy & Higham (SISC 2012),
    Algorithm 4.1 without its extra-root heuristic. Principal roots of T
    are taken until X = T^(1/2^s) - I has
    alpha_2(X) = max(||X^2||_1^(1/2), ||X^3||_1^(1/3)) <= theta_7. The
    diagonal of X bounds alpha_2(X) from below, so alpha_2 is formed only
    once every diagonal entry is within theta_7 of 0. The smallest m with
    alpha_2(X) <= theta_m picks the [m/m] Pade approximant, evaluated as
    sum_j w_j (I + x_j X)^-1 X over the Gauss-Legendre nodes x_j and
    weights w_j on [0, 1]: m triangular solves. The result is multiplied
    by 2^s.
    """
    eye = np.eye(t.shape[0], dtype=np.complex128)
    # fold -0.0 imaginary parts onto +0.0: the root of -1 must be +i, on
    # the sheet of the exact diagonal logs logm writes
    work = np.asarray(t, dtype=np.complex128) + 0.0
    theta = LOGM_PADE_THETA[-1]
    roots = 0
    while True:
        x = work - eye
        if np.abs(np.diagonal(x)).max() <= theta:
            x2 = x @ x
            alpha = max(one_norm(x2) ** 0.5, one_norm(x2 @ x) ** (1.0 / 3.0))
            if alpha <= theta:
                break
        if roots >= LOGM_MAX_SQRTS:
            raise ConvergenceError("square-root chain failed to reach the Pade region")
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
    return out


def _logm_triu_eigen(t: np.ndarray, logs: np.ndarray) -> np.ndarray | None:
    """Principal logarithm W diag(logs) W^-1 of an upper-triangular matrix,
    ``logs`` the principal logs of its diagonal, through its eigenvectors
    W, or None where that product is not accurate; :func:`logm` writes
    its diagonal.

    LAPACK zgeev returns a triangular input's diagonal in order and an
    upper-triangular W. None unless it succeeds with exactly that, and
    the 1-norm rcond of W (trcon) is at or above
    ``EIGENVECTOR_RCOND_FLOOR``. One transposed triangular solve
    W^T Y = (W D)^T gives Y = (W D W^-1)^T, D = diag(logs).
    """
    lapack = _lapack(t.dtype)
    eigenvalues, _, w, info = lapack.geev(t, compute_vl=0)
    if info != 0 or not np.array_equal(eigenvalues, np.diagonal(t)) or np.tril(w, -1).any():
        return None
    rcond, info = lapack.trcon(w)
    if info != 0 or not rcond >= EIGENVECTOR_RCOND_FLOOR:
        return None
    y, info = lapack.trtrs(w, (w * logs).T, trans=1)
    if info != 0:  # pragma: no cover - W clears the rcond floor
        raise ValueError(f"trtrs failed with info={info}")
    return y.T


def logm(a: CMatrix, branch: int = PRINCIPAL) -> CMatrix:
    """Matrix logarithm on the requested branch.

    ``branch = k`` selects log lam = ln|lam| + i*(arg lam + 2*pi*k) for
    every eigenvalue, principal arg in (-pi, pi]. The default k = 0 is
    the principal branch. Any integer k yields a valid logarithm because
    the matrix exponential maps all of them back to the same matrix; an
    integral float counts as an integer.

    The logarithm of the triangular Schur factor T is
    W diag(log t_ii) W^-1, from the eigenvectors W of T, when rcond_1(W)
    is at or above :data:`EIGENVECTOR_RCOND_FLOOR`; otherwise (Jordan
    blocks and near-defective clusters among them), or when zgeev fails,
    it is inverse scaling and squaring. The principal log of each
    eigenvalue is taken once: it sets the exact diagonal of either
    path's result, feeds the straddle guard, and carries the branch
    shift, which is written onto the diagonal after the guard. The guards
    below and the accuracy contract apply to both paths.

    Accuracy contract: ``||expm(logm(a)) - a||_F <= 1e-8 * ||a||_F *
    kappa`` with kappa = max(1, ||strict upper of T||_F / g), T the
    triangular factor of the Schur form of ``a`` and g the smallest
    pairwise gap of its eigenvalues, floored at eps * max|eigenvalue|.
    Normal matrices give kappa = 1; defective clusters blow it up, voiding
    the bound (the computation itself still proceeds).

    Raises
    ------
    ValueError
        For a bool or non-integral ``branch``, one whose 2*pi*branch is
        past float range, or a NaN or infinite entry.
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
        The square-root chain of inverse scaling and squaring did not
        reach the Pade region within ``LOGM_MAX_SQRTS`` roots; the
        eigenvector path takes no roots.
    """
    branch = integer_value(branch, "branch must be an integer")
    try:
        shift = 2.0 * math.pi * branch
    except OverflowError:  # branch itself is past float range
        shift = math.inf
    if math.isinf(shift):
        raise ValueError(f"branch must keep 2*pi*branch in float range, got {_shown(branch)}")
    # schur_decompose refuses a non-square or non-finite matrix
    form = schur_decompose(a)
    rcond, info = _lapack(form.t.dtype).trcon(form.t)
    if info != 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"trcon failed with info={info}")
    require_nonsingular(rcond)
    logs = _principal_log(form.eigenvalues)
    log_t = _logm_triu_eigen(form.t, logs)
    if log_t is None:
        log_t = _logm_triu(form.t)
    np.fill_diagonal(log_t, logs)
    magnitude = np.abs(log_t)
    # written so that a NaN from an overflowed root fails the test
    if not magnitude.max() <= STRADDLE_LOG_LIMIT:
        _reject_straddling_span(form.eigenvalues, logs.imag, magnitude)
    if branch:
        np.fill_diagonal(log_t, logs + complex(0.0, shift))
    return form.q @ log_t @ form.q.conj().T
