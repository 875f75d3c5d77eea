"""Gradient-descent study of two-layer element-wise-activation networks.

Counterpoint to the closed-form solver: when the activation acts
entry-wise (relu, sigmoid) instead of as a matrix function, a two-layer
map generally cannot interpolate two pairs, and plain gradient descent
makes limited progress. The experiment trains W in

    g(X) = Y2 sigma(W X2)^-1 sigma(W X1)

equivalently: it minimizes N(W) = ||Y1 - Y2 sigma(W X2)^-1 sigma(W X1)||_F^2,
the residual of the second interpolation condition after the first one is
enforced exactly by construction. Progress is tracked by the scale-free
score

    s(W) = N(W) / ||Y1 - Y2 X2^-1 X1||_F^2

whose denominator is the identity-activation objective; identity
activation therefore pins s = 1 at every W, and a useful nonlinearity
has to push s well below 1 to beat a plain linear layer.

Everything here runs over the real field. Complex inputs with
nonnegligible imaginary part are rejected rather than silently truncated.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ComplexInputError,
    DimensionError,
    InstanceRejectedError,
    MaxResampleError,
    NearSingularError,
)
from .linalg import (
    _lu_factor,
    _lu_solve,
    _shown,
    integer_value,
    inverse,
    require_finite,
    require_nonsingular,
    require_positive,
    save_json,
)
from .solver import MAX_RESAMPLES, ProblemInstance, draw_instance

#: Largest imaginary magnitude tolerated when coercing inputs to reals.
COMPLEX_TOLERANCE = 1e-12

#: rcond floor for sigma(W X2) and for instance admission in this module.
ACTIVATION_RCOND_FLOOR = 1e-6

#: Per-unit-dimension default learning rate (lr = LEARNING_RATE_SCALE * dim).
LEARNING_RATE_SCALE = 1e-3

#: A run is flagged divergent when final s exceeds this multiple of initial s.
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class Activation:
    """Entry-wise activation with its derivative, both vectorized.

    ``apply`` maps a float64 array of any shape to a float64 array of
    that shape. ``derivative`` takes the activation's output
    ``s = apply(p)``, not ``p``, and returns sigma'(p) as a new writable
    float64 array: the descent scales it in place.
    """

    kind: str
    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


def _first_sigmoid(p):
    """SIGMOID's ``apply`` until its first call, which imports
    ``scipy.special`` and binds its ``expit`` in place of this function.

    So ``import expnet`` and every command but a sigmoid experiment skip
    that import, which costs more than the rest of the package; later
    calls run ``expit`` itself, with no frame of this function.
    """
    from scipy.special import expit

    object.__setattr__(SIGMOID, "apply", expit)
    return expit(p)


# Each derivative is written in terms of the activation's output
# s = apply(p), which the forward pass already holds. relu'(0) = 0 by
# convention (s > 0 exactly when p > 0).
RELU = Activation(
    "relu",
    lambda p: np.maximum(p, 0.0),
    lambda s: (s > 0.0).astype(np.float64),
)
SIGMOID = Activation(
    "sigmoid",
    _first_sigmoid,
    lambda s: s * (1.0 - s),
)
IDENTITY = Activation(
    "identity",
    lambda p: np.asarray(p, dtype=np.float64),
    lambda s: np.ones_like(s, dtype=np.float64),
)

ACTIVATIONS = {a.kind: a for a in (RELU, SIGMOID, IDENTITY)}


def get_activation(name: str) -> Activation:
    """The activation of ``ACTIVATIONS`` named ``name``, else ValueError."""
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(
            f"unknown activation {_shown(name)}; choices: {sorted(ACTIVATIONS)}"
        ) from None


def _as_real(a, what: str = "input") -> np.ndarray:
    arr = np.asarray(a)
    if np.iscomplexobj(arr):
        worst = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        if worst > COMPLEX_TOLERANCE:
            raise ComplexInputError(
                f"{what} has imaginary magnitude {worst:.3e} > "
                f"{COMPLEX_TOLERANCE:g}; experiment runs over the reals"
            )
        arr = arr.real
    return np.ascontiguousarray(arr, dtype=np.float64)


def _real_quad(inst: ProblemInstance):
    """The instance over the reals as ``(XS, XT, Y1, Y2)``.

    XS stacks X2 and X1 in one C-contiguous ``(2, d, d)`` array, so one
    batched product gives both pre-activations; XT is its swapped-axes
    view, the stack of X2^T and X1^T that the gradient multiplies by.
    """
    xs = np.stack((_as_real(inst.x2, "x2"), _as_real(inst.x1, "x1")))
    return xs, xs.transpose(0, 2, 1), _as_real(inst.y1, "y1"), _as_real(inst.y2, "y2")


def baseline_denominator(inst: ProblemInstance) -> float:
    """Identity-activation objective ||Y1 - Y2 X2^-1 X1||_F^2.

    Raises InstanceRejectedError when this is exactly zero (the s-score
    would be undefined on such an instance).
    """
    (x2, x1), _, y1, y2 = _real_quad(inst)
    base = y1 - y2 @ (inverse(x2) @ x1)
    value = float(np.linalg.norm(base)) ** 2
    if value == 0.0:
        raise InstanceRejectedError(
            "baseline objective is exactly zero; s-score undefined"
        )
    return value


def _forward(w, quad, activation):
    """Forward pass at W: returns N(W) and the state the gradient needs.

    ``quad`` is :func:`_real_quad` of the instance. The state is the
    tuple (S, LU, PIV, M, R), in the order :func:`_gradient_from_forward`
    unpacks it: S = sigma(W XS) stacks S2 = sigma(W X2) and
    S1 = sigma(W X1) from one batched product and one activation call,
    LU and PIV are the packed LU factors of S2, M = S2^-1 S1 and
    R = Y1 - Y2 M. Each slice of S has the bits of the 2-D product and
    activation of its own X_i.
    """
    xs, _, y1, y2 = quad
    s = activation.apply(w @ xs)
    lu, piv, rcond = _lu_factor(s[0])
    require_nonsingular(rcond, ACTIVATION_RCOND_FLOOR, "sigma(W X2)")
    m = _lu_solve(lu, piv, s[1], 0)
    r = y1 - y2 @ m
    return float((r * r).sum()), (s, lu, piv, m, r)


def _public_pass(w, inst: ProblemInstance, activation, gradient: bool):
    """N(W), or its gradient when ``gradient`` is true, for the public calls.

    The pass runs under the descent's ``np.errstate(over="raise",
    invalid="raise")``, so numpy prints no warning. W must be finite and
    of the instance's shape, and the instance is finite, so a
    FloatingPointError, a sigma(W X2) whose 1-norm is past float64 range
    (ValueError from the LU) and a non-finite result are each an overflow.
    """
    activation = get_activation(activation)
    w = _as_real(w, "w")
    quad = _real_quad(inst)
    if w.shape != quad[2].shape:
        raise DimensionError(f"dimension mismatch: w {w.shape} vs instance {quad[2].shape}")
    require_finite(w, "w")
    with np.errstate(over="raise", invalid="raise"):
        try:
            objective, state = _forward(w, quad, activation)
            out = _gradient_from_forward(state, quad, activation) if gradient else objective
        except (FloatingPointError, ValueError) as exc:
            raise OverflowError(f"entries overflowed in the two-layer pass: {exc}") from exc
    return require_finite(out, "two-layer pass", OverflowError)


def two_layer_objective(w, inst: ProblemInstance, activation="sigmoid") -> float:
    """N(W) = ||Y1 - Y2 sigma(W X2)^-1 sigma(W X1)||_F^2.

    Raises
    ------
    ValueError
        If an entry of ``w`` is NaN or infinite.
    DimensionError
        If ``w`` and the instance differ in shape.
    ComplexInputError
        If ``w`` or the instance has a nonnegligible imaginary part.
    NearSingularError
        If sigma(W X2) is near-singular.
    OverflowError
        If an entry overflows or goes invalid anywhere in the pass,
        including a sigma(W X2) whose 1-norm is past float64 range; numpy
        prints no warning.
    """
    return _public_pass(w, inst, activation, gradient=False)


def _gradient_from_forward(state, quad, activation) -> np.ndarray:
    """Gradient of N at the state :func:`_forward` returned.

    With P1 = W X1, P2 = W X2, S_i = sigma(P_i), M = S2^-1 S1 and
    R = Y1 - Y2 M:

        U = S2^-T Y2^T R
        V = U M^T
        grad N = 2 [ (V . sigma'(P2)) X2^T - (U . sigma'(P1)) X1^T ]

    where . is the entry-wise product. The derivative is taken once over
    the stack S; its slices are scaled in place by V and by U, and one
    batched product with the stack XT gives both terms, G[0] and G[1].
    Every float operation is the one the two 2-D terms make.
    """
    _, xt, _, y2 = quad
    s, lu, piv, m, r = state
    u = _lu_solve(lu, piv, y2.T @ r, 1)
    d = activation.derivative(s)
    d[0] *= u @ m.T
    d[1] *= u
    g = d @ xt
    return 2.0 * (g[0] - g[1])


def two_layer_gradient(w, inst: ProblemInstance, activation="sigmoid") -> np.ndarray:
    """Analytic gradient of the unnormalized objective N at W.

    Raises what :func:`two_layer_objective` raises, and OverflowError
    also for an overflow in the gradient pass.
    """
    return _public_pass(w, inst, activation, gradient=True)


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one descent experiment (all seeds share them).

    Instance admission and the sigma(W X2) guard both use the module's
    ``ACTIVATION_RCOND_FLOOR``. ``dim`` must be an integer of at least 1,
    ``steps`` and each seed nonnegative integers: an integral float
    becomes an int, and a bool, a non-integral or a too-small value raises
    ValueError naming the field, and so does a repeated seed or a
    ``seeds`` that is not iterable.
    ``activation`` is a name in ``ACTIVATIONS``, else ValueError.
    """

    dim: int
    activation: str = "sigmoid"
    steps: int = 2000
    seeds: tuple = tuple(range(1, 11))
    learning_rate: float | None = None  # None -> LEARNING_RATE_SCALE * dim

    def __post_init__(self):
        dim = integer_value(self.dim, "dim must be an integer >= 1", 1)
        steps = integer_value(self.steps, "steps must be an integer >= 0", 0)
        try:
            seeds = tuple(self.seeds)
        except TypeError:
            rule = "seeds must be an iterable of integers"
            raise ValueError(f"{rule}, got {_shown(self.seeds)}") from None
        if not seeds:
            raise ValueError("seeds must be non-empty")
        if self.learning_rate is not None:
            require_positive(self.learning_rate, "learning_rate")
        get_activation(self.activation)
        seeds = tuple(integer_value(s, "seeds must be nonnegative integers", 0) for s in seeds)
        if len(set(seeds)) < len(seeds):
            repeated = next(s for i, s in enumerate(seeds) if s in seeds[:i])
            raise ValueError(f"seeds must be distinct, got {repeated} more than once")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "seeds", seeds)

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return LEARNING_RATE_SCALE * self.dim


@dataclass(frozen=True)
class SeedRun:
    """One seed's trajectory: s at step 0 (init) through step ``steps``."""

    seed: int
    s_values: tuple
    baseline_denominator: float
    w_resamples: int
    instance_resamples: int
    diverged: bool

    @property
    def initial_s(self) -> float:
        return self.s_values[0]

    @property
    def final_s(self) -> float:
        return self.s_values[-1]


@dataclass(frozen=True)
class ExperimentTrace:
    config: ExperimentConfig
    runs: tuple = field(default=())

    def median_initial(self) -> float:
        return statistics.median(run.initial_s for run in self.runs)

    def median_final(self) -> float:
        return statistics.median(run.final_s for run in self.runs)

    def divergent_count(self) -> int:
        return sum(1 for run in self.runs if run.diverged)


def _admitted_real_instance(rng, config: ExperimentConfig, seed: int):
    for resamples in range(MAX_RESAMPLES):
        inst = draw_instance(rng, config.dim, "real-gaussian")
        if inst.admitted(ACTIVATION_RCOND_FLOOR):
            try:
                return inst, baseline_denominator(inst), resamples
            except InstanceRejectedError:
                pass
    raise MaxResampleError(f"seed {seed}: no admitted instance after {MAX_RESAMPLES} draws")


def _descend(w0, quad, denom, config: ExperimentConfig, activation) -> list:
    """Full-batch gradient descent; returns s at steps 0..steps.

    The update direction is the gradient of the unnormalized objective N;
    the default schedule scales the step by 1/denominator, which makes it
    an exact descent on s (the denominator does not depend on W) and keeps
    the step size scale-free across instances. The raw schedule W -= lr*g
    is unstable near the default lr and loses the dimension trend.

    Raises FloatingPointError when a step overflows or goes invalid
    (numpy raises it in place of a warning), when sigma(W X2) has a 1-norm
    past float64 range, or when the score or the updated W is not finite,
    and NearSingularError when sigma(W X2) degenerates; the caller
    resamples W and retries. With a positive finite step, a finite W after
    the update means a finite gradient.
    """
    step_size = config.effective_learning_rate / denom
    steps = config.steps
    w = np.array(w0, dtype=np.float64, copy=True)
    series = []
    with np.errstate(over="raise", invalid="raise"):
        for step in range(steps + 1):
            try:
                objective, state = _forward(w, quad, activation)
            except ValueError as exc:  # sigma(W X2) has a 1-norm past float64 range
                raise FloatingPointError(f"sigma(W X2) overflows at step {step}") from exc
            s = objective / denom
            if not math.isfinite(s):
                raise FloatingPointError(f"non-finite score at step {step}")
            series.append(s)
            if step == steps:
                break
            w -= step_size * _gradient_from_forward(state, quad, activation)
            require_finite(w, "W after a step", FloatingPointError)
    return series


def _run_seed(seed: int, config: ExperimentConfig) -> SeedRun:
    rng = np.random.Generator(np.random.PCG64(seed))
    activation = get_activation(config.activation)
    inst, denom, instance_resamples = _admitted_real_instance(rng, config, seed)
    quad = _real_quad(inst)
    for w_resamples in range(MAX_RESAMPLES):
        w0 = rng.normal(0.0, math.sqrt(1.0 / config.dim), size=(config.dim, config.dim))
        try:
            series = _descend(w0, quad, denom, config, activation)
        except (NearSingularError, FloatingPointError):
            continue
        return SeedRun(
            seed=seed,
            s_values=tuple(series),
            baseline_denominator=denom,
            w_resamples=w_resamples,
            instance_resamples=instance_resamples,
            diverged=series[-1] > DIVERGENCE_FACTOR * series[0],
        )
    raise MaxResampleError(f"seed {seed}: {MAX_RESAMPLES} consecutive failed descents")


def run_experiment(config: ExperimentConfig) -> ExperimentTrace:
    """Run every seed to completion; deterministic per (config, seed).

    Each seed owns an independent PCG64 stream keyed by its seed value,
    so adding or removing seeds never perturbs the others.
    """
    runs = tuple(_run_seed(seed, config) for seed in config.seeds)
    return ExperimentTrace(config=config, runs=runs)


def config_to_json(config: ExperimentConfig) -> dict:
    return {
        "dim": config.dim,
        "activation": config.activation,
        "steps": config.steps,
        "seeds": list(config.seeds),
        "learning_rate": config.effective_learning_rate,
        "learning_rate_was_default": config.learning_rate is None,
    }


def trace_summary(trace: ExperimentTrace) -> dict:
    return {
        "median_initial_s": trace.median_initial(),
        "median_final_s": trace.median_final(),
        "runs": [
            {
                "seed": run.seed,
                "initial_s": run.initial_s,
                "final_s": run.final_s,
                "baseline_denominator": run.baseline_denominator,
                "w_resamples": run.w_resamples,
                "instance_resamples": run.instance_resamples,
                "diverged": run.diverged,
            }
            for run in trace.runs
        ],
    }


def write_trace_csv(trace: ExperimentTrace, csv_path) -> str:
    """Write the per-step scores as CSV plus a JSON sidecar.

    CSV columns are ``seed,step,s`` with one row per recorded step. The
    sidecar, the CSV path with its extension replaced by ``.config.json``,
    holds the full configuration and per-seed summaries. Returns the
    sidecar path.
    """
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "step", "s"])
        for run in trace.runs:
            for step, s in enumerate(run.s_values):
                writer.writerow([run.seed, step, float(s)])
    sidecar_path = os.path.splitext(str(csv_path))[0] + ".config.json"
    sidecar = {"config": config_to_json(trace.config), "summary": trace_summary(trace)}
    save_json(sidecar_path, sidecar)
    return sidecar_path
