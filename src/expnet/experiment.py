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
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import (
    ActivationSingularError,
    ComplexInputError,
    InstanceRejectedError,
    MaxResampleError,
)
from .linalg import inverse, lu_factor, lu_solve
from .solver import ProblemInstance, draw_instance

#: Largest imaginary magnitude tolerated when coercing inputs to reals.
COMPLEX_TOLERANCE = 1e-12

#: rcond floor for sigma(W X2) and for instance admission in this module.
ACTIVATION_RCOND_FLOOR = 1e-6

#: Per-unit-dimension default learning rate (lr = LEARNING_RATE_SCALE * dim).
LEARNING_RATE_SCALE = 1e-3

#: Central-difference step for the finite-difference gradient path.
FD_STEP = 1e-6

#: Consecutive rejected draws (instances or inits) before giving up.
MAX_CONSECUTIVE_RESAMPLES = 100

#: A run is flagged divergent when final s exceeds this multiple of initial s.
DIVERGENCE_FACTOR = 10.0

GRADIENT_MODES = ("analytic", "finite-difference")


@dataclass(frozen=True)
class Activation:
    """Entry-wise activation with its derivative, both vectorized."""

    kind: str
    apply: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


# relu'(0) = 0 by convention.
RELU = Activation(
    "relu",
    lambda p: np.maximum(p, 0.0),
    lambda p: (p > 0.0).astype(np.float64),
)
SIGMOID = Activation(
    "sigmoid",
    lambda p: expit(p),
    lambda p: expit(p) * (1.0 - expit(p)),
)
IDENTITY = Activation(
    "identity",
    lambda p: np.asarray(p, dtype=np.float64),
    lambda p: np.ones_like(p, dtype=np.float64),
)

ACTIVATIONS = {a.kind: a for a in (RELU, SIGMOID, IDENTITY)}


def get_activation(name) -> Activation:
    if isinstance(name, Activation):
        return name
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choices: {sorted(ACTIVATIONS)}"
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


def apply_activation(a, activation) -> np.ndarray:
    """Apply an entry-wise activation over the reals.

    Complex input is accepted only when its imaginary part is below
    COMPLEX_TOLERANCE in magnitude; otherwise ComplexInputError.
    """
    return get_activation(activation).apply(_as_real(a))


def _real_quad(inst: ProblemInstance):
    return (
        _as_real(inst.x1, "x1"),
        _as_real(inst.x2, "x2"),
        _as_real(inst.y1, "y1"),
        _as_real(inst.y2, "y2"),
    )


def baseline_denominator(inst: ProblemInstance) -> float:
    """Identity-activation objective ||Y1 - Y2 X2^-1 X1||_F^2.

    Raises InstanceRejectedError when this is exactly zero (the s-score
    would be undefined on such an instance).
    """
    x1, x2, y1, y2 = _real_quad(inst)
    base = y1 - y2 @ (inverse(x2) @ x1)
    value = float(np.linalg.norm(base) ** 2)
    if value == 0.0:
        raise InstanceRejectedError(
            "baseline objective is exactly zero; s-score undefined"
        )
    return value


@dataclass(frozen=True)
class _Forward:
    p1: np.ndarray
    p2: np.ndarray
    factors: object  # real LU of sigma(W X2)
    m: np.ndarray  # sigma(W X2)^-1 sigma(W X1)
    r: np.ndarray  # Y1 - Y2 m

    @property
    def objective(self) -> float:
        return float(np.sum(self.r * self.r))


def _forward(w, quad, activation, rcond_floor):
    x1, x2, y1, y2 = quad
    p1 = w @ x1
    p2 = w @ x2
    factors = lu_factor(activation.apply(p2))
    if factors.rcond <= rcond_floor:
        raise ActivationSingularError(
            f"sigma(W X2) is near singular (rcond {factors.rcond:.3e} <= "
            f"{rcond_floor:g})",
            factors.rcond,
        )
    m = lu_solve(factors, activation.apply(p1))
    r = y1 - y2 @ m
    return _Forward(p1=p1, p2=p2, factors=factors, m=m, r=r)


def _fd_gradient(w, quad, activation, rcond_floor, step: float = FD_STEP):
    """Central finite-difference gradient of N (2 d^2 forward passes)."""
    w = np.array(w, dtype=np.float64)
    grad = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            saved = w[i, j]
            w[i, j] = saved + step
            plus = _forward(w, quad, activation, rcond_floor).objective
            w[i, j] = saved - step
            minus = _forward(w, quad, activation, rcond_floor).objective
            w[i, j] = saved
            grad[i, j] = (plus - minus) / (2.0 * step)
    return grad


def two_layer_objective(
    w, inst: ProblemInstance, activation="sigmoid",
    rcond_floor: float = ACTIVATION_RCOND_FLOOR,
) -> float:
    """N(W) = ||Y1 - Y2 sigma(W X2)^-1 sigma(W X1)||_F^2."""
    activation = get_activation(activation)
    fwd = _forward(_as_real(w, "w"), _real_quad(inst), activation, rcond_floor)
    return fwd.objective


def two_layer_s_score(
    w, inst: ProblemInstance, activation="sigmoid",
    rcond_floor: float = ACTIVATION_RCOND_FLOOR,
) -> float:
    """Objective normalized by the identity-activation baseline."""
    return two_layer_objective(w, inst, activation, rcond_floor) / (
        baseline_denominator(inst)
    )


def _gradient_from_forward(fwd: _Forward, quad, activation) -> np.ndarray:
    """Gradient of N at the forward state.

    With P1 = W X1, P2 = W X2, S_i = sigma(P_i), M = S2^-1 S1 and
    R = Y1 - Y2 M:

        U = S2^-T Y2^T R
        V = U M^T
        grad N = 2 [ (V . sigma'(P2)) X2^T - (U . sigma'(P1)) X1^T ]

    where . is the entry-wise product.
    """
    x1, x2, y1, y2 = quad
    u = lu_solve(fwd.factors, y2.T @ fwd.r, trans=1)
    v = u @ fwd.m.T
    return 2.0 * (
        (v * activation.derivative(fwd.p2)) @ x2.T
        - (u * activation.derivative(fwd.p1)) @ x1.T
    )


def two_layer_gradient(
    w, inst: ProblemInstance, activation="sigmoid",
    rcond_floor: float = ACTIVATION_RCOND_FLOOR,
) -> np.ndarray:
    """Analytic gradient of the unnormalized objective N at W."""
    activation = get_activation(activation)
    w = _as_real(w, "w")
    quad = _real_quad(inst)
    fwd = _forward(w, quad, activation, rcond_floor)
    return _gradient_from_forward(fwd, quad, activation)


def two_layer_gradient_fd(
    w, inst: ProblemInstance, activation="sigmoid",
    rcond_floor: float = ACTIVATION_RCOND_FLOOR, step: float = FD_STEP,
) -> np.ndarray:
    """Central finite-difference gradient of N (2 d^2 objective calls)."""
    return _fd_gradient(
        _as_real(w, "w"), _real_quad(inst), get_activation(activation), rcond_floor, step
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings for one descent experiment (all seeds share them)."""

    dim: int
    activation: str = "sigmoid"
    steps: int = 2000
    seeds: tuple = tuple(range(1, 11))
    learning_rate: float | None = None  # None -> LEARNING_RATE_SCALE * dim
    gradient_mode: str = "analytic"
    rcond_floor: float = ACTIVATION_RCOND_FLOOR

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        get_activation(self.activation)
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(
                f"gradient_mode must be one of {GRADIENT_MODES}, "
                f"got {self.gradient_mode!r}"
            )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

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

    @property
    def final_s(self) -> tuple:
        return tuple(run.final_s for run in self.runs)

    def median_initial(self) -> float:
        return statistics.median(run.initial_s for run in self.runs)

    def median_final(self) -> float:
        return statistics.median(run.final_s for run in self.runs)

    def divergent_count(self) -> int:
        return sum(1 for run in self.runs if run.diverged)


def _admitted_real_instance(rng, config: ExperimentConfig, seed: int):
    resamples = 0
    while True:
        inst = draw_instance(rng, config.dim, "real-gaussian")
        if inst.admitted(config.rcond_floor):
            try:
                denom = baseline_denominator(inst)
            except InstanceRejectedError:
                pass
            else:
                return inst, denom, resamples
        resamples += 1
        if resamples >= MAX_CONSECUTIVE_RESAMPLES:
            raise MaxResampleError(
                f"seed {seed}: no admitted instance after {resamples} draws"
            )


def _descend(w0, quad, denom, config: ExperimentConfig, activation) -> list:
    """Full-batch gradient descent; returns s at steps 0..steps.

    The update direction is the gradient of the unnormalized objective N;
    the default schedule scales the step by 1/denominator, which makes it
    an exact descent on s (the denominator does not depend on W) and keeps
    the step size scale-free across instances. The raw schedule W -= lr*g
    is unstable near the default lr and loses the dimension trend.

    Raises FloatingPointError on any non-finite score or gradient and
    ActivationSingularError when sigma(W X2) degenerates; the caller
    resamples W and retries.
    """
    lr = config.effective_learning_rate
    w = np.array(w0, dtype=np.float64, copy=True)
    series = []
    for step in range(config.steps + 1):
        fwd = _forward(w, quad, activation, config.rcond_floor)
        s = fwd.objective / denom
        if not math.isfinite(s):
            raise FloatingPointError(f"non-finite score at step {step}")
        series.append(s)
        if step == config.steps:
            break
        if config.gradient_mode == "analytic":
            grad = _gradient_from_forward(fwd, quad, activation)
        else:
            grad = _fd_gradient(w, quad, activation, config.rcond_floor)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient at step {step}")
        w -= (lr / denom) * grad
    return series


def _run_seed(seed: int, config: ExperimentConfig) -> SeedRun:
    rng = np.random.Generator(np.random.PCG64(seed))
    activation = get_activation(config.activation)
    inst, denom, instance_resamples = _admitted_real_instance(rng, config, seed)
    quad = _real_quad(inst)
    w_resamples = 0
    while True:
        w0 = rng.normal(0.0, math.sqrt(1.0 / config.dim), size=(config.dim, config.dim))
        try:
            series = _descend(w0, quad, denom, config, activation)
        except (ActivationSingularError, FloatingPointError):
            w_resamples += 1
            if w_resamples >= MAX_CONSECUTIVE_RESAMPLES:
                raise MaxResampleError(
                    f"seed {seed}: {w_resamples} consecutive failed descents"
                ) from None
            continue
        break
    return SeedRun(
        seed=seed,
        s_values=tuple(series),
        baseline_denominator=denom,
        w_resamples=w_resamples,
        instance_resamples=instance_resamples,
        diverged=series[-1] > DIVERGENCE_FACTOR * series[0],
    )


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
        "gradient_mode": config.gradient_mode,
        "rcond_floor": config.rcond_floor,
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


def write_trace_csv(trace: ExperimentTrace, csv_path, config_path=None) -> str:
    """Write the per-step scores as CSV plus a JSON sidecar.

    CSV columns are ``seed,step,s`` with one row per recorded step. The
    sidecar (default: same basename with a .config.json suffix) holds the
    full configuration and per-seed summaries.
    """
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "step", "s"])
        for run in trace.runs:
            for step, s in enumerate(run.s_values):
                writer.writerow([run.seed, step, float(s)])
    if config_path is None:
        base, _ = os.path.splitext(str(csv_path))
        config_path = base + ".config.json"
    sidecar = {"config": config_to_json(trace.config), "summary": trace_summary(trace)}
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    return str(config_path)
