"""Dense linear algebra: validated matrix values, LU with condition
estimation, complex Schur decomposition, reproducible Gaussian sampling,
and the repo-wide matrix JSON format, which orjson writes and reads (the
standard library reads what orjson refuses) as bytes, and whose readers
reuse the value of a recently decoded file (see :func:`load_decoded`).

Matrices are plain ``numpy.ndarray`` values. :func:`cmatrix` is the
validating constructor of complex128 matrices; it returns a read-only
array so matrix values behave as immutable data. The LU routines call
LAPACK directly and keep the field of their input: real input is factored
and solved in float64, complex input in complex128. The Schur form calls
LAPACK zgees directly too. All operations here are pure functions of
their inputs: repeated calls on identical inputs return bit-identical
results (BLAS summation order is fixed within one build).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import math
import numbers
import operator
import reprlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import orjson
import scipy.linalg

from .errors import (
    ConvergenceError,
    DimensionError,
    MatrixFormatError,
    NearSingularError,
)

#: A validated dense complex square matrix (see :func:`cmatrix`).
CMatrix = np.ndarray

#: rcond at or below which a matrix counts as singular to working
#: precision: :func:`inverse` and :func:`~expnet.matfuncs.logm` raise
#: NearSingularError there (see :func:`require_nonsingular`).
SINGULAR_RCOND = 1e-10

#: The entry distributions :func:`gaussian_entries` draws from.
GAUSSIAN_KINDS = ("complex-gaussian", "real-gaussian")


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
        If the input is not 2-D square of order at least 1.
    ValueError
        If any entry is NaN or infinite.
    """
    a = np.array(entries, dtype=np.complex128, order="C")
    _check_square(a)
    require_finite(a)
    a.flags.writeable = False
    return a


def require_finite(a: np.ndarray, what: str = "matrix", error: type = ValueError) -> np.ndarray:
    """``a``, unless an entry, real or complex, is NaN or infinite: then
    ``error`` naming ``what``. The package's one finiteness test."""
    if not np.isfinite(a).all():
        raise error(f"{what} entries must be finite (no NaN/Inf)")
    return a


def one_norm(a: np.ndarray) -> float:
    """The 1-norm (largest column sum of moduli) of a nonempty matrix.

    The same bits as ``np.linalg.norm(a, 1)``, without its dispatch. It
    is finite exactly when every entry is and the sum does not overflow.
    """
    return np.abs(a).sum(axis=0).max()


def require_positive(value: float, what: str) -> None:
    """Raise ValueError naming ``what`` unless ``value`` is a positive,
    finite real number (a bool, a string, a complex or an integer past
    float range is refused)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        valid = real and value > 0 and math.isfinite(value)
    except OverflowError:  # an integer past float range
        valid = False
    if not valid:
        raise ValueError(f"{what} must be positive and finite, got {_shown(value)}")


def integer_value(value, rule: str, minimum: float = -math.inf) -> int:
    """``value`` as an int; ValueError stating ``rule`` unless it is an
    integer of at least ``minimum`` (an integral float counts, a bool does
    not)."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral or value < minimum:
        raise ValueError(f"{rule}, got {_shown(value)}")
    return int(value)


class _ShortRepr(reprlib.Repr):
    """reprlib's repr: six items of a list, three levels deep, 30
    characters of a string and 60 of another value. An integer is shown
    in full up to 300 digits; past that its ``repr`` is long, and past
    4,300 digits raises ValueError, so it is shown by its sign, type and
    digit count."""

    def __init__(self):
        super().__init__()
        self.maxlevel, self.maxother = 3, 60

    def repr_int(self, x, level):
        if abs(x) < 10**300:
            return repr(x)
        magnitude = abs(x)
        digits = int(math.log10(magnitude)) + 1  # may be one off near a power of 10
        digits += (magnitude >= 10**digits) - (magnitude < 10 ** (digits - 1))
        sign = "negative " if x < 0 else ""
        return f"{sign}{type(x).__name__} of {digits} digits"


_SHORT_REPR = _ShortRepr()

#: Longest text :func:`_shown` gives.
SHOWN_LIMIT = 400


def _shown(value) -> str:
    """A refused value for an error message: the repr of
    :class:`_ShortRepr`, cut to ``SHOWN_LIMIT`` characters, so a value read
    from a file prints one short line however large or deep it is."""
    text = _SHORT_REPR.repr(value)
    return text if len(text) <= SHOWN_LIMIT else text[: SHOWN_LIMIT - 3] + "..."


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"matrix must be square 2-D of order at least 1, got shape {a.shape}")


@dataclass(frozen=True, eq=False)
class LuFactors:
    """Partial-pivoted LU factorization with a condition estimate; equality
    and hash go by identity.

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


_ROUTINES = ("getrf", "gecon", "getrs", "trtrs", "trcon", "lange", "gees", "geev")


@functools.cache
def _lapack(dtype: np.dtype) -> SimpleNamespace:
    """The LAPACK routines of ``_ROUTINES`` for one field, looked up once."""
    funcs = scipy.linalg.get_lapack_funcs(_ROUTINES, dtype=dtype)
    return SimpleNamespace(**dict(zip(_ROUTINES, funcs)))


def lu_factor(a: CMatrix) -> LuFactors:
    """LU-factor a square matrix of order at least 1 with partial pivoting.

    The factors have the input's field: float64 for real input (LAPACK
    dgetrf/dgecon), complex128 for complex input (zgetrf/zgecon). The
    routines are called directly from handles cached per field.
    Never fails on singular input: exact singularity (a zero pivot,
    getrf ``info > 0``) is reported through ``rcond == 0``. The estimate
    is the LAPACK 1-norm reciprocal condition number computed from the
    factors and the input's 1-norm (lange). A NaN or infinite entry, or a
    1-norm past float64 range, raises ValueError.
    """
    a = np.asarray(a)
    _check_square(a)
    a = np.ascontiguousarray(a, dtype=np.complex128 if a.dtype.kind == "c" else np.float64)
    return LuFactors(*_lu_factor(a))


def _lu_factor(a: np.ndarray) -> tuple:
    """``(lu, piv, rcond)`` of :func:`lu_factor` for a C-contiguous,
    square float64 or complex128 ``a`` of order at least 1, which is not
    checked: the LAPACK calls and the rcond rule alone, for a caller that
    factors many such matrices."""
    lapack = _lapack(a.dtype)
    lu, piv, info = lapack.getrf(a)
    # ||a||_1 = ||a^T||_inf, and a.T is Fortran-ordered, so lange reads it
    # without a copy; dlange sums each column in row order, as numpy does,
    # so a real norm has numpy's bits
    anorm = lapack.lange("I", a.T)
    if not math.isfinite(anorm):
        require_finite(a)
        raise ValueError("matrix 1-norm is past float range; its entries are finite")
    if info > 0 or anorm == 0.0:
        return lu, piv, 0.0
    rcond, info = lapack.gecon(lu, anorm)  # 1-norm estimate
    if info != 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"gecon failed with info={info}")
    return lu, piv, float(rcond)


def lu_solve(factors: LuFactors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve ``A x = b`` from :func:`lu_factor` output.

    ``b`` is one vector or a 2-D block of columns whose length is the
    order of the factors, else DimensionError. ``trans=1`` solves
    ``A^T x = b`` instead; ``trans=2`` the conjugate transpose (LAPACK
    convention). LAPACK getrs runs directly from the handle cached for
    the field of the factors and ``b`` together: the solution is real
    when both are, and complex128 (real factors promoted) otherwise.
    """
    lu = factors.lu
    b = np.asarray(b)
    if b.shape[:1] != lu.shape[:1] or b.ndim > 2:
        raise DimensionError(
            f"right-hand side of shape {b.shape} does not fit factors of order {lu.shape[0]}"
        )
    if b.dtype != lu.dtype:
        lu = lu.astype(np.result_type(lu, b), copy=False)
    return _lu_solve(lu, factors.piv, b, trans)


def _lu_solve(lu: np.ndarray, piv: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """:func:`lu_solve` from packed factors ``lu``, ``piv`` and a ``b`` of
    the same field and order, which is not checked: getrs alone."""
    x, info = _lapack(lu.dtype).getrs(lu, piv, b, trans)
    if info != 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"getrs failed with info={info}")
    return x


def require_nonsingular(
    rcond: float, floor: float = SINGULAR_RCOND, what: str = "matrix"
) -> None:
    """NearSingularError naming ``what`` and carrying ``rcond`` unless it
    is above ``floor``: the one rcond check of the package."""
    if rcond <= floor:
        raise NearSingularError(
            f"{what} is near-singular: rcond {rcond:.3e} <= floor {floor:.3e}", rcond=rcond
        )


def inverse(a: CMatrix | LuFactors) -> CMatrix:
    """Invert a square matrix, guarded by the floor ``SINGULAR_RCOND``.

    ``a`` is the matrix or its :func:`lu_factor` output, when the caller
    already holds it (a :class:`~expnet.solver.ProblemInstance` keeps
    those of its matrices); the inverse is then solved from the factors,
    bit-equal to inverting the matrix. The inverse has the input's field
    (see :func:`lu_factor`).
    Residual behavior: measured over random well-conditioned inputs the
    multiply-back error satisfies ``||a @ inverse(a) - I||_F <= c * d *
    eps / rcond`` with c < 5 (c ~= 0.3 typical at d <= 16).

    Raises
    ------
    NearSingularError
        When the 1-norm rcond estimate is at or below ``SINGULAR_RCOND``.
    """
    factors = a if isinstance(a, LuFactors) else lu_factor(a)
    require_nonsingular(factors.rcond)
    return lu_solve(factors, np.eye(factors.lu.shape[0], dtype=factors.lu.dtype))


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Complex Schur decomposition ``A = Q T Q^H``.

    ``q`` is unitary and ``t`` upper triangular with the eigenvalues on
    its diagonal. Equality and hash go by identity.
    """

    q: np.ndarray
    t: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """The diagonal of ``t``, as a read-only view."""
        return np.diagonal(self.t)


def _no_sort(*_):  # pragma: no cover - zgees calls it only when sorting
    return None


def schur_decompose(a: CMatrix) -> SchurForm:
    """Complex Schur form via Hessenberg reduction plus shifted QR.

    LAPACK zgees runs directly from a cached handle, with the default
    workspace of scipy's wrapper (3n). The strictly lower triangle of
    ``t`` is exactly zero. Raises ``ValueError`` on NaN or infinite
    entries, and :class:`ConvergenceError` if the QR iteration hits the
    backend sweep cap (about 30 sweeps per eigenvalue) without deflating.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    _check_square(a)
    require_finite(a)
    t, _, _, q, _, info = _lapack(a.dtype).gees(_no_sort, a)
    if info > 0:
        raise ConvergenceError(f"QR iteration did not converge (zgees info={info})")
    if info < 0:  # pragma: no cover - illegal-argument path
        raise ValueError(f"zgees failed with info={info}")
    return SchurForm(q=q, t=t)


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
    raise ValueError(f"unknown kind {_shown(kind)}, expected one of {GAUSSIAN_KINDS}")


# -- matrix JSON format (shared repo-wide) ----------------------------------
#
#   {"dim": d, "entries": [[[re, im], ... d columns ...], ... d rows ...]}
#
# Writers emit native JSON floats with their shortest round-trip digits
# (those of repr), so load(dump(A)) is bit-exact.


def matrix_to_json(a: CMatrix) -> dict:
    """Encode a matrix as the shared JSON object.

    A non-finite entry (NaN, an infinity, or ``None``, which numpy reads
    as NaN) raises ValueError: :func:`matrix_from_json` would refuse the
    object.
    """
    a = np.asarray(a, dtype=np.complex128)
    _check_square(a)
    require_finite(a)
    return {"dim": a.shape[0], "entries": np.stack((a.real, a.imag), axis=-1).tolist()}


def matrix_from_json(obj: dict) -> CMatrix:
    """Decode the shared JSON object back into a validated matrix.

    Raises
    ------
    MatrixFormatError
        Unless ``obj`` has an integer ``dim`` and ``entries`` that form a
        ``(dim, dim, 2)`` array of finite numbers, none of them a bool.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise MatrixFormatError("matrix JSON must be an object with 'dim' and 'entries' fields")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MatrixFormatError(f"matrix JSON 'dim' must be an integer, got {_shown(dim)}")
    entries = obj["entries"]
    try:
        pairs = np.asarray(entries)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is None or pairs.shape != (dim, dim, 2) or pairs.dtype.kind not in "iuf":
        raise MatrixFormatError(
            f"entries do not form a {dim} x {dim} matrix of [re, im] number pairs"
        )
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    require_finite(pairs, "matrix JSON", MatrixFormatError)
    # numpy reads true and false among numbers as 1 and 0, so each part
    # (real, imaginary) that holds a 0 or a 1 is searched for one, item by
    # item: no part of a random complex matrix, the imaginary parts of a
    # real one
    hits = (pairs == 0.0) | (pairs == 1.0)
    if hits.any():
        for part in np.flatnonzero(hits.reshape(-1, 2).any(axis=0)).tolist():
            values = map(operator.itemgetter(part), itertools.chain.from_iterable(entries))
            if bool in map(type, values):
                raise MatrixFormatError("matrix JSON entries must be numbers, got true or false")
    # each [re, im] pair is the memory layout of one complex128
    return cmatrix(pairs.view(np.complex128)[..., 0])


def save_json(path, obj) -> None:
    """Write ``obj`` as one JSON document indented by two spaces, plus a newline.

    The writer of the documents (instance manifest, report, experiment
    sidecar): the stdlib encoder writes an infinite float as ``Infinity``
    and an integer of any size. One ``json.dumps`` call and one write:
    ``json.dump`` streams through the pure-Python encoder. ``obj`` must
    hold no reference cycle, as the trees the package builds for its
    files do not: the circular-reference walk is skipped.
    """
    text = json.dumps(obj, indent=2, check_circular=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_compact_json(path, encode, value) -> bytes:
    """Write ``encode(value)`` as one compact JSON line plus a newline;
    return the bytes.

    The writer of the matrix and weights files. orjson prints each float
    with its shortest round-trip digits, those of ``repr``, about ten
    times faster than ``json.dumps``, so ``json.loads`` of the file gives
    the same bits. It writes NaN and infinities as ``null`` and refuses
    an integer past 64 bits, so every float in the encoded tree must be
    finite and every integer small. The tree is built and printed inside
    a :func:`_codec` block, and is freed before the block ends.
    """
    with _codec():
        data = orjson.dumps(encode(value), option=orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def save_matrix(path, a: CMatrix) -> None:
    """Write a matrix JSON file.

    A non-finite ``a`` raises ValueError before the file is opened, as
    :func:`load_matrix` would refuse what it wrote. The bytes written are
    kept for :func:`load_matrix` with ``cmatrix(a)`` as their value:
    floats are written with round-trip digits, so decoding gives its bits.
    """
    a = cmatrix(a)
    data = save_compact_json(path, matrix_to_json, a)
    with _codec():
        _remember(("matrix", data), a)


# -- the file codec's process-wide state: one lock ---------------------------
#
# A file is built from, or parsed into, nested [re, im] lists: 1,056 per
# d = 32 matrix and 4,224 per weights file, all alive at once. That passes
# the collector's first threshold (700 new containers), so collections ran
# in the middle of the codec and promoted the lists, which later set off
# full collections over the tens of thousands of objects numpy and scipy
# keep tracked, about 12 ms each: 7% of the time of in-process CLI chains
# on a 2-CPU host. The lists hold only numbers, so they form no cycle, and
# reference counting frees them: the collector is kept off meanwhile.
#
# The commands of one pipeline read the same files again (verify reads the
# instance that solve read, and gen has just written it), and decoding took
# a third of their time at d = 32. So the last few decoded values are kept,
# keyed by the file's exact bytes: every load still reads its file, and an
# edited file never matches old bytes. Values are immutable (read-only
# matrices, frozen weights of read-only matrices), and errors are not kept.

#: Decoded matrix and weights files kept per process (one pipeline of
#: gen, solve, verify, eval and logm uses seven).
DECODE_MEMO_SIZE = 8

_decoded: OrderedDict = OrderedDict()  # (kind, bytes) -> value, oldest first
_codec_lock = threading.RLock()


@contextlib.contextmanager
def _codec():
    """Hold the codec's lock, with automatic garbage collection off, for
    the block; turn the collector back on after if it was on before.

    The memo and the collector's state are process-wide, as under
    ``timeit``: other threads run without the collector meanwhile. Blocks
    of different threads take turns, so each restores the state the one
    before it left; a block nested in one thread restores what it found.
    The block must free what it allocated before it ends, or the
    collector promotes it.
    """
    with _codec_lock:
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()


def _remember(key, value) -> None:
    # inside a _codec block; room is made before every insert, so the
    # memo never holds more
    _decoded.pop(key, None)
    if len(_decoded) >= DECODE_MEMO_SIZE:
        _decoded.popitem(last=False)
    _decoded[key] = value


def load_decoded(path, kind: str, decode):
    """``decode`` of the JSON value of the file at ``path``: the one reader
    of matrix and weights files.

    orjson parses the file's bytes, four to five times faster than
    ``json.loads`` and to the same float bits. Bytes it refuses, invalid
    UTF-8 among them, are decoded as UTF-8 (else MatrixFormatError) and go
    to ``json.loads``, which reads ``NaN``, ``Infinity`` and numbers past
    float range for ``decode`` to refuse by name, and raises its own
    JSONDecodeError on malformed text. Nesting too deep for ``json.loads``
    raises MatrixFormatError. orjson reads an integer past 64 bits as a
    float.

    The file is read on every call, and decoded unless a value of this
    ``kind`` for the same bytes is among the last ``DECODE_MEMO_SIZE``
    decoded or written; ``decode`` must return an immutable value. The
    memo lookup, the parse, ``decode`` and the memo update run in one
    :func:`_codec` block: under the codec's lock, with the collector off.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    key = (kind, data)
    try:
        with _codec():
            value = _decoded.get(key)
            if value is not None:
                _decoded.move_to_end(key)
                return value
            try:
                obj = orjson.loads(data)
            except orjson.JSONDecodeError:
                obj = json.loads(data.decode("utf-8"))
            value = decode(obj)
            del obj  # the parsed tree is freed before collection resumes
            _remember(key, value)
    except UnicodeDecodeError as exc:  # from data.decode: decode sees no bytes
        raise MatrixFormatError(f"{path} is not UTF-8 text: {exc}") from None
    except RecursionError:  # json.loads of deeply nested text
        raise MatrixFormatError(f"{path} nests too deeply to decode") from None
    return value


def load_matrix(path) -> CMatrix:
    """Read a matrix JSON file (reusing a decoded value, see :func:`load_decoded`)."""
    return load_decoded(path, "matrix", matrix_from_json)
