"""Closed-form weight construction for matrix-exponential networks.

A three-layer map f(X) = W3 expm(W2 expm(W1 X)) can interpolate two
data/label pairs (X1, Y1), (X2, Y2) of invertible d x d complex matrices
exactly, provided X1 - X2 is invertible. The weights come from a free
positive scale alpha != 1:

    W1 = ln(alpha) * (X1 - X2)^-1
    Z  = logm(alpha * Y1^-1 Y2)            (any branch)
    W2 = (Z - ln(alpha) I) expm(-W1 X2) / (1 - alpha)
    W3 = Y1 expm(-C),  C = alpha/(1 - alpha) (Z - ln(alpha) I)

C is the closed form of W2 expm(W1 X1), the argument the outer
exponential takes at X1, so W3 equals the paper's Y1 expm(-W2 expm(W1 X1))
without forming that product. No gradient descent is involved.
``verify`` recomputes the forward map at both data points and a battery
of internal identities that the construction satisfies.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InstanceRejectedError,
    MatrixFormatError,
    MaxResampleError,
)
from .linalg import (
    CMatrix,
    cmatrix,
    gaussian_entries,
    inverse,
    load_matrix,
    lu_factor,
    matrix_from_json,
    matrix_to_json,
    require_finite,
    save_matrix,
)
from .matfuncs import PRINCIPAL, expm, logm

#: rcond all five instance matrices must clear for random_instance to
#: admit the draw and for solve_three_layer to accept the instance.
ADMISSION_RCOND = 1e-3

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


@dataclass(frozen=True)
class ProblemInstance:
    """Data/label quadruple (X1, X2, Y1, Y2) with conditioning metadata.

    ``rconds`` holds the 1-norm reciprocal-condition estimates of the
    four matrices and of X1 - X2; an instance is *admitted* when all five
    clear the threshold: ``ADMISSION_RCOND`` for the solver, the
    experiment's ``ACTIVATION_RCOND_FLOOR`` for its real draws.
    """

    x1: CMatrix
    x2: CMatrix
    y1: CMatrix
    y2: CMatrix
    rconds: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return self.x1.shape[0]

    def admitted(self, threshold: float = ADMISSION_RCOND) -> bool:
        return all(self.rconds[k] > threshold for k in _RCOND_KEYS)


def make_instance(x1, x2, y1, y2) -> ProblemInstance:
    """Validate four matrices into a ProblemInstance, computing rconds."""
    x1, x2, y1, y2 = cmatrix(x1), cmatrix(x2), cmatrix(y1), cmatrix(y2)
    dims = {m.shape[0] for m in (x1, x2, y1, y2)}
    if len(dims) != 1:
        raise DimensionError(f"instance matrices disagree on dimension: {sorted(dims)}")
    rconds = {
        "x1": lu_factor(x1).rcond,
        "x2": lu_factor(x2).rcond,
        "y1": lu_factor(y1).rcond,
        "y2": lu_factor(y2).rcond,
        "x1_minus_x2": lu_factor(x1 - x2).rcond,
    }
    return ProblemInstance(x1=x1, x2=x2, y1=y1, y2=y2, rconds=rconds)


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
    ``seed`` supplies every draw. Raises :class:`MaxResampleError` after
    ``MAX_RESAMPLES`` consecutive rejections.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(MAX_RESAMPLES):
        inst = draw_instance(rng, dim, kind)
        if inst.admitted():
            return inst
    raise MaxResampleError(
        f"no admitted instance in {MAX_RESAMPLES} tries (dim={dim}, seed={seed})"
    )


@dataclass(frozen=True)
class ThreeLayerWeights:
    """Closed-form solution record (W1, W2, W3, alpha, Z).

    Z satisfies expm(Z) = alpha * Y1^-1 Y2 for the instance it was built
    from; alpha is positive with |alpha - 1| >= MIN_ALPHA_GAP, and the four
    matrices share one shape (else :class:`DimensionError`).
    """

    w1: CMatrix
    w2: CMatrix
    w3: CMatrix
    alpha: float
    z: CMatrix

    def __post_init__(self):
        _validate_alpha(self.alpha)
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
    if not (alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    if abs(alpha - 1.0) < MIN_ALPHA_GAP:
        raise ValueError(
            f"alpha must differ from 1 by at least {MIN_ALPHA_GAP}, got {alpha}"
        )


def compute_z(
    y1: CMatrix, y2: CMatrix, alpha: float, branch: int = PRINCIPAL
) -> CMatrix:
    """A matrix Z with expm(Z) = alpha * Y1^-1 Y2.

    Existence is guaranteed for invertible labels because the matrix
    exponential is onto the invertible matrices; ``branch`` is the
    integer k of :func:`~expnet.matfuncs.logm` that picks among the
    infinitely many logarithms.

    Raises
    ------
    ValueError
        For alpha <= 0 or |alpha - 1| < MIN_ALPHA_GAP.
    """
    _validate_alpha(alpha)
    return logm(alpha * (inverse(y1) @ np.asarray(y2)), branch)


def _commutant(z: CMatrix, alpha: float) -> CMatrix:
    """C = alpha/(1-alpha) (Z - ln(alpha) I), the value of W2 expm(W1 X1)."""
    eye = np.eye(z.shape[0], dtype=np.complex128)
    return (alpha / (1.0 - alpha)) * (z - math.log(alpha) * eye)


def solve_three_layer(
    inst: ProblemInstance,
    alpha: float = DEFAULT_ALPHA,
    branch: int = PRINCIPAL,
) -> ThreeLayerWeights:
    """Closed-form weights interpolating both pairs of an admitted instance.

    Raises
    ------
    InstanceRejectedError
        If some rcond of (X1, X2, Y1, Y2, X1 - X2) is at or below
        ``ADMISSION_RCOND``.
    ValueError
        For alpha <= 0 or |alpha - 1| < MIN_ALPHA_GAP.
    """
    if not inst.admitted():
        failing = {
            k: v for k, v in inst.rconds.items() if v <= ADMISSION_RCOND
        }
        raise InstanceRejectedError(
            f"instance rejected: rcond at or below {ADMISSION_RCOND:g} for {failing}"
        )
    z = compute_z(inst.y1, inst.y2, alpha, branch)  # validates alpha
    ln_alpha = math.log(alpha)
    eye = np.eye(inst.dim, dtype=np.complex128)
    w1 = ln_alpha * inverse(inst.x1 - inst.x2)
    w2 = (z - ln_alpha * eye) @ expm(-(w1 @ inst.x2)) / (1.0 - alpha)
    w3 = np.asarray(inst.y1) @ expm(-_commutant(z, alpha))
    for name, w in (("w1", w1), ("w2", w2), ("w3", w3)):
        require_finite(w, f"constructed {name}", OverflowError)
    return ThreeLayerWeights(w1=w1, w2=w2, w3=w3, alpha=alpha, z=z)


def eval_three_layer(
    weights: ThreeLayerWeights, x: CMatrix, inner: CMatrix | None = None
) -> CMatrix:
    """Forward map f(x) = W3 expm(W2 expm(W1 x)).

    ``inner`` is expm(W1 x) when the caller has already formed it.
    """
    if x.shape != weights.w1.shape:
        raise DimensionError(f"dimension mismatch: {x.shape} vs {weights.w1.shape}")
    if inner is None:
        inner = expm(weights.w1 @ np.asarray(x))
    return weights.w3 @ expm(weights.w2 @ inner)


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _expm_or_none(a: np.ndarray) -> CMatrix | None:
    """expm(a), or None when it overflows or ``a`` already has."""
    try:
        return expm(a)
    except (OverflowError, ValueError):
        return None


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
    - ``z_definition``: expm(Z) = alpha * Y1^-1 Y2

    Raises
    ------
    DimensionError
        If the weights and the instance differ in dimension. Otherwise
        never raises: numerical blowups surface as infinite values.
    """
    if weights.dim != inst.dim:
        raise DimensionError(
            f"dimension mismatch: weights are {weights.dim} x {weights.dim}, "
            f"instance is {inst.dim} x {inst.dim}"
        )
    norm = np.linalg.norm
    alpha, z = weights.alpha, weights.z
    e1 = _expm_or_none(weights.w1 @ inst.x1)
    e2 = _expm_or_none(weights.w1 @ inst.x2)

    def residual_against(x, inner, y):
        if inner is None:
            return math.inf
        try:
            out = eval_three_layer(weights, x, inner)
        except (OverflowError, ValueError):
            return math.inf
        return _ratio(float(norm(out - y)), float(norm(y)))

    residual1 = residual_against(inst.x1, e1, inst.y1)
    residual2 = residual_against(inst.x2, e2, inst.y2)

    checks = dict.fromkeys(_IDENTITY_CHECKS, math.inf)
    if e1 is not None and e2 is not None:
        try:
            checks["scale_identity"] = _ratio(float(norm(e1 - alpha * e2)), float(norm(e1)))
            c = weights.w2 @ e1
            checks["commutant_form"] = _ratio(
                float(norm(c - _commutant(z, alpha))), float(norm(c))
            )
            checks["difference_rcond"] = lu_factor(e2 - e1).rcond
            ez = expm(z)
            checks["z_definition"] = _ratio(
                float(norm(ez - alpha * (inverse(inst.y1) @ inst.y2))), float(norm(ez))
            )
        except Exception:  # verify never raises; checks not reached stay inf
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
        raise MatrixFormatError(f"weights JSON 'alpha' must be a number, got {alpha!r}")
    w1, w2, w3, z = (matrix_from_json(obj[name]) for name in _WEIGHT_FIELDS[1:])
    return ThreeLayerWeights(w1=w1, w2=w2, w3=w3, alpha=float(alpha), z=z)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(weights_to_json(weights)) + "\n")


def load_weights(path) -> ThreeLayerWeights:
    with open(path, "r", encoding="utf-8") as fh:
        return weights_from_json(json.load(fh))


def save_instance(directory, inst: ProblemInstance, manifest_extra: dict | None = None):
    """Write x1/x2/y1/y2 JSON files plus an instance.json manifest."""
    os.makedirs(directory, exist_ok=True)
    files = {}
    for name in _INSTANCE_FILES:
        fname = f"{name}.json"
        save_matrix(os.path.join(directory, fname), getattr(inst, name))
        files[name] = fname
    manifest = {
        "dim": inst.dim,
        "rconds": dict(inst.rconds),
        "files": files,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    manifest_path = os.path.join(directory, "instance.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def load_instance(path) -> ProblemInstance:
    """Read an instance from its manifest (or a directory containing one).

    Conditioning estimates are recomputed from the matrices on load; the
    manifest's recorded values are informational.

    Raises
    ------
    MatrixFormatError
        Unless the manifest is an object whose ``files`` maps each of
        x1, x2, y1 and y2 to a file name, or a matrix file is malformed.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "instance.json")
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    files = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(files, dict) or not all(
        isinstance(files.get(name), str) for name in _INSTANCE_FILES
    ):
        raise MatrixFormatError(
            "instance manifest must be an object whose 'files' maps "
            f"{', '.join(_INSTANCE_FILES)} to file names"
        )
    base = os.path.dirname(os.path.abspath(path))
    x1, x2, y1, y2 = (
        load_matrix(os.path.join(base, files[name])) for name in _INSTANCE_FILES
    )
    return make_instance(x1, x2, y1, y2)
