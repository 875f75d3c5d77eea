"""Closed-form weight construction for matrix-exponential networks.

A three-layer map f(X) = W3 expm(W2 expm(W1 X)) can interpolate two
data/label pairs (X1, Y1), (X2, Y2) of invertible d x d complex matrices
exactly, provided X1 - X2 is invertible. The weights come from one
logarithm L and a free positive scale alpha != 1:

    L  = logm(Y1^-1 Y2)                    (any branch)
    W1 = ln(alpha) * (X1 - X2)^-1
    Z  = L + ln(alpha) I                   so expm(Z) = alpha * Y1^-1 Y2
    W2 = L expm(-W1 X2) / (1 - alpha)
    W3 = Y1 expm(alpha/(alpha - 1) L)

A positive scale leaves every eigenvalue's argument unchanged, so
logm(alpha * Y1^-1 Y2) = L + ln(alpha) I on every branch, and alpha
enters only through the scalars ln(alpha) and alpha/(1 - alpha).
alpha/(1 - alpha) L is the closed form of W2 expm(W1 X1), the argument
the outer exponential takes at X1, so W3 equals the paper's
Y1 expm(-W2 expm(W1 X1)) without forming that product. No gradient
descent is involved. ``verify`` recomputes the forward map at both data
points and a battery of internal identities that the construction
satisfies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InstanceRejectedError,
    MatrixFormatError,
    MaxResampleError,
    NearSingularError,
)
from .linalg import (
    CMatrix,
    _shown,
    cmatrix,
    gaussian_entries,
    integer_value,
    inverse,
    load_decoded,
    load_matrix,
    lu_factor,
    lu_solve,
    matrix_from_json,
    matrix_to_json,
    require_finite,
    require_nonsingular,
    require_positive,
    save_compact_json,
    save_json,
    save_matrix,
)
from .matfuncs import PRINCIPAL, expm, logm

#: rcond all five instance matrices must clear for random_instance to
#: admit the draw and for solve_three_layer to accept the instance.
ADMISSION_RCOND = 1e-3

#: rcond of expm(-W1 X2), whose conditioning expm(W1 X1) and expm(W1 X2)
#: share, and of the outer exponential expm(alpha/(alpha-1) L), at or
#: below which solve_three_layer refuses the instance. At alpha = e on
#: 1,350 random instances (d 2 to 32) that no test uses, the first refused
#: the two misses of DEFAULT_TOLERANCE (rcond 1.4e-17, 2.6e-12) and two
#: others; the worst accepted residual was 6.9e-8. Near alpha = 1 the
#: second refuses every miss of the battery (see solve_three_layer).
LAYER_RCOND_FLOOR = 1e-8

#: Default interpolation scale (ln(alpha) = 1).
DEFAULT_ALPHA = math.e

#: Required distance of alpha from the degenerate value 1.
MIN_ALPHA_GAP = 1e-3

#: Default pass tolerance on the relative interpolation residuals.
DEFAULT_TOLERANCE = 1e-6

#: Consecutive rejected random draws (instances, or descent starts in the
#: experiment) before giving up with MaxResampleError.
MAX_RESAMPLES = 100

# matrices of an instance directory, and fields of a weights file
_INSTANCE_FILES = ("x1", "x2", "y1", "y2")
_WEIGHT_FIELDS = ("alpha", "w1", "w2", "w3", "z")

_RCOND_KEYS = _INSTANCE_FILES + ("x1_minus_x2",)

# names of the internal identities verify audits, in report order
_IDENTITY_CHECKS = (
    "scale_identity",
    "commutant_form",
    "difference_rcond",
    "z_definition",
)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Data/label quadruple (X1, X2, Y1, Y2) with conditioning metadata.

    ``factors`` holds the :class:`~expnet.linalg.LuFactors` of the four
    matrices and of X1 - X2, under the keys ``x1``, ``x2``, ``y1``, ``y2``
    and ``x1_minus_x2``, so that :func:`solve_three_layer` and
    :func:`verify` solve Y1^-1 Y2, and the solve inverts X1 - X2, without
    factoring them again. It is derived data and stays out of repr. An
    instance is *admitted* when all five rconds clear the threshold:
    ``ADMISSION_RCOND`` for the solver, the experiment's
    ``ACTIVATION_RCOND_FLOOR`` for its real draws. Equality and hash go by
    identity.
    """

    x1: CMatrix
    x2: CMatrix
    y1: CMatrix
    y2: CMatrix
    factors: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return self.x1.shape[0]

    @property
    def rconds(self) -> dict:
        """The 1-norm reciprocal-condition estimates of the factors, by key."""
        return {k: self.factors[k].rcond for k in _RCOND_KEYS}

    def admitted(self, threshold: float = ADMISSION_RCOND) -> bool:
        return all(self.factors[k].rcond > threshold for k in _RCOND_KEYS)


def make_instance(x1, x2, y1, y2) -> ProblemInstance:
    """Validate four matrices into a ProblemInstance, factoring each once."""
    x1, x2, y1, y2 = cmatrix(x1), cmatrix(x2), cmatrix(y1), cmatrix(y2)
    dims = {m.shape[0] for m in (x1, x2, y1, y2)}
    if len(dims) != 1:
        raise DimensionError(f"instance matrices disagree on dimension: {sorted(dims)}")
    matrices = (x1, x2, y1, y2, x1 - x2)
    factors = {key: lu_factor(m) for key, m in zip(_RCOND_KEYS, matrices)}
    return ProblemInstance(x1=x1, x2=x2, y1=y1, y2=y2, factors=factors)


def draw_instance(rng: np.random.Generator, dim: int, kind: str) -> ProblemInstance:
    """Draw one instance from an open Gaussian stream (x1, x2, y1, y2 order)."""
    x1 = gaussian_entries(rng, dim, kind)
    x2 = gaussian_entries(rng, dim, kind)
    y1 = gaussian_entries(rng, dim, kind)
    y2 = gaussian_entries(rng, dim, kind)
    return make_instance(x1, x2, y1, y2)


def random_instance(
    dim: int, seed: int, kind: str = "complex-gaussian"
) -> ProblemInstance:
    """Sample Gaussian instances until one clears ``ADMISSION_RCOND``.

    Deterministic for fixed arguments: a single PCG64 stream seeded with
    ``seed`` supplies every draw. ``dim`` must be an integer >= 1 and
    ``seed`` one >= 0 (an integral float counts, a bool does not), else
    ValueError. Raises :class:`MaxResampleError` after ``MAX_RESAMPLES``
    consecutive rejections.
    """
    dim = integer_value(dim, "dim must be an integer >= 1", 1)
    seed = integer_value(seed, "seed must be a nonnegative integer", 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_RESAMPLES):
        inst = draw_instance(rng, dim, kind)
        if inst.admitted():
            return inst
    raise MaxResampleError(
        f"no admitted instance in {MAX_RESAMPLES} tries (dim={dim}, seed={seed})"
    )


@dataclass(frozen=True, eq=False)
class ThreeLayerWeights:
    """Closed-form solution record (W1, W2, W3, alpha, Z).

    Z = logm(Y1^-1 Y2) + ln(alpha) I for the instance it was built from,
    so expm(Z) = alpha * Y1^-1 Y2. alpha is positive and finite with
    |alpha - 1| >= MIN_ALPHA_GAP (else ValueError), and is kept as a
    float; the four matrices share one shape (else
    :class:`DimensionError`). Equality and hash go by identity.
    """

    w1: CMatrix
    w2: CMatrix
    w3: CMatrix
    alpha: float
    z: CMatrix

    def __post_init__(self):
        _validate_alpha(self.alpha)
        object.__setattr__(self, "alpha", float(self.alpha))
        shapes = {m.shape for m in (self.w1, self.w2, self.w3, self.z)}
        if len(shapes) != 1:
            raise DimensionError(f"weight matrices disagree on shape: {sorted(shapes)}")

    @property
    def dim(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class SolveReport:
    """Verification outcome: forward residuals plus internal identities.

    ``residual1``/``residual2`` are the relative Frobenius errors of
    f(X1) = Y1 and f(X2) = Y2. W3 comes from the closed form of
    W2 expm(W1 X1), so neither holds by construction in float.
    ``identity_checks`` maps the four checks of :func:`verify` to their
    values: three residuals, and ``difference_rcond``, the rcond of
    expm(W1 X2) - expm(W1 X1). ``passed`` is the pass verdict at ``tol``.
    """

    residual1: float
    residual2: float
    identity_checks: dict
    admitted: bool
    passed: bool
    tol: float


def _validate_alpha(alpha: float) -> None:
    require_positive(alpha, "alpha")
    if abs(alpha - 1.0) < MIN_ALPHA_GAP:
        raise ValueError(
            f"alpha must differ from 1 by at least {MIN_ALPHA_GAP}, got {alpha}"
        )


def solve_three_layer(
    inst: ProblemInstance,
    alpha: float = DEFAULT_ALPHA,
    branch: int = PRINCIPAL,
) -> ThreeLayerWeights:
    """Closed-form weights interpolating both pairs of an admitted instance.

    ``branch`` is the integer k of :func:`~expnet.matfuncs.logm` that picks
    L among the logarithms of Y1^-1 Y2 (logm refuses a bool or a
    non-integral k with ValueError); alpha only scales and shifts L.

    Raises
    ------
    InstanceRejectedError
        If some rcond of (X1, X2, Y1, Y2, X1 - X2) is at or below
        ``ADMISSION_RCOND``.
    NearSingularError
        If the rcond of expm(-W1 X2), or of the outer exponential
        expm(alpha/(alpha-1) L) in W3, is at or below
        ``LAYER_RCOND_FLOOR``: the weights would miss the labels. The
        second gate refuses most solves at alpha within 0.1 of 1, where
        alpha/(alpha-1) is large and the outer exponential magnifies the
        error with which the forward map rebuilds its exponent at X1.
        Also from :func:`~expnet.matfuncs.logm`, for a near-singular
        Y1^-1 Y2.
    IllConditionedError, ConvergenceError
        From :func:`~expnet.matfuncs.logm` of Y1^-1 Y2.
    OverflowError
        If an exponential or a constructed weight overflows.
    ValueError
        For alpha <= 0, a non-finite alpha or |alpha - 1| < MIN_ALPHA_GAP.
    """
    _validate_alpha(alpha)
    if not inst.admitted():
        failing = {
            k: v for k, v in inst.rconds.items() if v <= ADMISSION_RCOND
        }
        raise InstanceRejectedError(
            f"instance rejected: rcond at or below {ADMISSION_RCOND:g} for {failing}"
        )
    log_m = logm(lu_solve(inst.factors["y1"], inst.y2), branch)
    ln_alpha = math.log(alpha)
    z = log_m + ln_alpha * np.eye(inst.dim, dtype=np.complex128)
    w1 = ln_alpha * inverse(inst.factors["x1_minus_x2"])
    # an entry that overflows is refused by the loop below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        e = expm(-(w1 @ inst.x2))
        w2 = log_m @ e / (1.0 - alpha)
        outer = expm((alpha / (alpha - 1.0)) * log_m)
        w3 = np.asarray(inst.y1) @ outer
    for name, w in (("w1", w1), ("w2", w2), ("w3", w3)):
        require_finite(w, f"constructed {name}", OverflowError)
    for name, layer in (("expm(-W1 X2)", e), ("expm(alpha/(alpha-1) L)", outer)):
        require_nonsingular(lu_factor(layer).rcond, LAYER_RCOND_FLOOR, name)
    return ThreeLayerWeights(w1=w1, w2=w2, w3=w3, alpha=alpha, z=z)


def eval_three_layer(
    weights: ThreeLayerWeights, x: CMatrix, inner: CMatrix | None = None
) -> CMatrix:
    """Forward map f(x) = W3 expm(W2 expm(W1 x)).

    ``inner`` is expm(W1 x) when the caller has already formed it.

    Raises
    ------
    DimensionError
        If ``x`` or ``inner`` and the weights differ in shape.
    ValueError
        If an entry of ``x`` or ``inner`` is NaN or infinite.
    OverflowError
        If an entry overflows in a product or an exponential: the output
        would hold NaN or infinite entries.
    """
    x = np.asarray(x)
    operands = {"x": x}
    if inner is not None:
        inner = operands["inner"] = np.asarray(inner)
    for name, m in operands.items():
        if m.shape != weights.w1.shape:
            raise DimensionError(f"dimension mismatch: {name} {m.shape} vs {weights.w1.shape}")
        # with the operands finite, any non-finite entry below is an overflow
        require_finite(m, name)
    with np.errstate(over="ignore", invalid="ignore"):
        if inner is None:
            inner = expm(require_finite(weights.w1 @ x, "W1 x", OverflowError))
        outer = expm(require_finite(weights.w2 @ inner, "W2 expm(W1 x)", OverflowError))
        return require_finite(weights.w3 @ outer, "f(x)", OverflowError)


def _relative(diff: np.ndarray, ref: np.ndarray) -> float:
    """||diff||_F / ||ref||_F as a float; 0 when both norms are 0, inf
    when only the second is or either is not finite (never NaN)."""
    num, den = float(np.linalg.norm(diff)), float(np.linalg.norm(ref))
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _forward_residual(weights: ThreeLayerWeights, x: CMatrix, y: CMatrix) -> tuple:
    """``(expm(W1 x), ||f(x) - y||_F / ||y||_F)``: ``(None, inf)`` when
    expm(W1 x) overflows or W1 x already has, an infinite residual when a
    later layer overflows."""
    try:
        inner = expm(weights.w1 @ x)
    except (OverflowError, ValueError):
        return None, math.inf
    try:
        out = eval_three_layer(weights, x, inner)
    except OverflowError:
        return inner, math.inf
    return inner, _relative(out - y, y)


@np.errstate(over="ignore", invalid="ignore")  # blowups become inf, not warnings
def verify(
    weights: ThreeLayerWeights, inst: ProblemInstance, tol: float = DEFAULT_TOLERANCE
) -> SolveReport:
    """Evaluate the network on both data points and audit the construction.

    ``residual1`` measures f(X1) = Y1 and ``residual2`` measures
    f(X2) = Y2. W3 is built from the closed form of W2 expm(W1 X1), not
    from the product itself, so ``residual1`` sees the error of that
    product as ``residual2`` sees the error of W2 expm(W1 X2). The
    identity checks record, as relative Frobenius residuals unless
    noted, the steps of the construction:

    - ``scale_identity``: expm(W1 X1) = alpha * expm(W1 X2)
    - ``commutant_form``: W2 expm(W1 X1) = alpha/(1-alpha) (Z - ln(alpha) I);
      its right side commutes with Z, so W2 expm(W1 X1) commutes with Z
      to within twice this value
    - ``difference_rcond``: rcond of expm(W1 X2) - expm(W1 X1), a value
      that must stay away from 0, not a residual
    - ``z_definition``: expm(Z) = alpha * Y1^-1 Y2, left at inf when
      Y1's rcond is at or below ``SINGULAR_RCOND``

    Raises
    ------
    ValueError
        If ``tol`` is not positive and finite.
    DimensionError
        If the weights and the instance differ in dimension. Otherwise
        never raises: numerical blowups surface as infinite values.
    """
    require_positive(tol, "tol")
    if weights.dim != inst.dim:
        raise DimensionError(
            f"dimension mismatch: weights are {weights.dim} x {weights.dim}, "
            f"instance is {inst.dim} x {inst.dim}"
        )
    alpha, z = weights.alpha, weights.z
    e1, residual1 = _forward_residual(weights, inst.x1, inst.y1)
    e2, residual2 = _forward_residual(weights, inst.x2, inst.y2)

    checks = dict.fromkeys(_IDENTITY_CHECKS, math.inf)
    if e1 is not None and e2 is not None:
        try:
            checks["scale_identity"] = _relative(e1 - alpha * e2, e1)
            c = weights.w2 @ e1
            eye = np.eye(weights.dim, dtype=np.complex128)
            closed = (alpha / (1.0 - alpha)) * (z - math.log(alpha) * eye)
            checks["commutant_form"] = _relative(c - closed, c)
            checks["difference_rcond"] = lu_factor(e2 - e1).rcond
            ez = expm(z)
            require_nonsingular(inst.factors["y1"].rcond)
            quotient = lu_solve(inst.factors["y1"], inst.y2)
            checks["z_definition"] = _relative(ez - alpha * quotient, ez)
        # failures of expm, lu_factor and the singular floor; checks not reached stay inf
        except (OverflowError, ValueError, NearSingularError):
            pass

    passed = residual1 <= tol and residual2 <= tol
    return SolveReport(
        residual1=residual1,
        residual2=residual2,
        identity_checks=checks,
        admitted=inst.admitted(),
        passed=passed,
        tol=tol,
    )


# -- JSON representations ----------------------------------------------------


def weights_to_json(weights: ThreeLayerWeights) -> dict:
    return {
        "alpha": weights.alpha,
        "w1": matrix_to_json(weights.w1),
        "w2": matrix_to_json(weights.w2),
        "w3": matrix_to_json(weights.w3),
        "z": matrix_to_json(weights.z),
    }


def weights_from_json(obj: dict) -> ThreeLayerWeights:
    """Decode :func:`weights_to_json` output.

    Raises
    ------
    MatrixFormatError
        Unless ``obj`` is an object with matrices ``w1``, ``w2``, ``w3``
        and ``z`` and a real number ``alpha``.
    DimensionError
        If the four matrices differ in shape.
    """
    if not isinstance(obj, dict) or not set(_WEIGHT_FIELDS) <= obj.keys():
        raise MatrixFormatError(
            f"weights JSON must be an object with fields {', '.join(_WEIGHT_FIELDS)}"
        )
    alpha = obj["alpha"]
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise MatrixFormatError(f"weights JSON 'alpha' must be a number, got {_shown(alpha)}")
    w1, w2, w3, z = (matrix_from_json(obj[name]) for name in _WEIGHT_FIELDS[1:])
    return ThreeLayerWeights(w1=w1, w2=w2, w3=w3, alpha=alpha, z=z)


def report_to_json(report: SolveReport) -> dict:
    return {
        "residual1": report.residual1,
        "residual2": report.residual2,
        "identity_checks": dict(report.identity_checks),
        "admitted": report.admitted,
        "pass": report.passed,
        "tol": report.tol,
    }


def save_weights(path, weights: ThreeLayerWeights) -> None:
    """Write a weights JSON file.

    A non-finite matrix raises ValueError before the file is opened, as
    :func:`load_weights` would refuse what it wrote.
    """
    for name in _WEIGHT_FIELDS[1:]:
        require_finite(getattr(weights, name), f"weights {name}")
    save_compact_json(path, weights_to_json(weights))


def load_weights(path) -> ThreeLayerWeights:
    """Read a weights file (reusing a decoded value, see
    :func:`~expnet.linalg.load_decoded`)."""
    return load_decoded(path, "weights", weights_from_json)


def save_instance(directory, inst: ProblemInstance, manifest_extra: dict | None = None):
    """Write x1/x2/y1/y2 JSON files into ``directory`` and return the path of
    its ``instance.json``: ``dim``, the rconds and ``manifest_extra`` (gen's
    seed and kind), a record for people that :func:`load_instance` ignores."""
    os.makedirs(directory, exist_ok=True)
    for name in _INSTANCE_FILES:
        save_matrix(os.path.join(directory, f"{name}.json"), getattr(inst, name))
    manifest_path = os.path.join(directory, "instance.json")
    manifest = {"dim": inst.dim, "rconds": inst.rconds, **(manifest_extra or {})}
    save_json(manifest_path, manifest)
    return manifest_path


def _instance_dir(path) -> str:
    os.stat(path)  # a missing path raises, rather than naming its parent directory
    return path if os.path.isdir(path) else os.path.dirname(os.path.abspath(path))


def load_instance(path) -> ProblemInstance:
    """Read x1.json, x2.json, y1.json and y2.json from an instance directory,
    given as the directory or any file in it (``instance.json`` is not read).

    Conditioning estimates are recomputed from the matrices. A malformed
    matrix file raises MatrixFormatError.
    """
    base = _instance_dir(path)
    matrices = (load_matrix(os.path.join(base, f"{n}.json")) for n in _INSTANCE_FILES)
    return make_instance(*matrices)
