"""The benchmark's three workloads and the independent checks on their outputs.

Every workload draws its inputs from the benchmark seed, runs in whole
rounds of the same operations, and checks each output with numpy and scipy
routes that share no code with expnet. All calls into expnet go through
module attributes (``expnet.solver.solve_three_layer``), which is where the
tracer wraps them.

* ``interp-battery``: make_instance -> solve_three_layer (alpha = e,
  principal branch) -> verify on complex-Gaussian quadruples at
  d in {2, 4, 8, 16, 32}. logm and expm dominate; experiment is never used.
* ``descent``: run_experiment on the shapes of acceptance criterion 6, one
  seed's descent per operation. Many small real LU calls plus Python step
  overhead; matfuncs is never used, so kernel work must leave it unchanged.
* ``cli-pipeline``: in-process ``expnet.cli.run`` chains
  gen -> solve -> verify -> eval -> logm at d in {8, 16, 32}. Parser
  construction and matrix JSON, which the other two never touch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import expnet.cli
import expnet.experiment
import expnet.matfuncs
import expnet.solver

#: The documented admission threshold, applied with the benchmark's own exact
#: 1-norm rcond so that a change to the program's admission rule cannot change
#: the inputs.
ADMISSION_RCOND = 1e-3

#: Instances whose layer-one exponential expm(W1 Xi) has a 2-norm condition
#: number above this lose digits in every forward pass at alpha = e (measured:
#: over 3,466 admitted instances, all 8 with a residual above 1e-6 had a
#: condition number above 1e9, and below 1e6 no residual exceeded 2.3e-9).
#: Drawn inputs stay below it, so whether an operation fails never depends
#: on the seed.
HUMP_COND_LIMIT = 1e6

#: Fixed inputs that show the known fault in every round: barely admitted
#: instances (exact rcond of X1 - X2 is 2.4e-3 and 1.1e-3) for which
#: solve_three_layer returns weights that miss Y2 by 6e-5 and 8e-3 without
#: raising. Each is the first quadruple of ``default_rng((seed, d))``.
FAULT_INSTANCES = ((4, 180), (16, 20))

ALPHA = math.e
INTERP_TOL = 1e-6  # relative Frobenius residual against Y1 and Y2
EXPM_MATCH_TOL = 1e-8  # scipy expm of a returned logarithm against its argument


@dataclass
class Op:
    """One timed operation: size class, nominal seconds, failure, checked
    residual and work done (1, or the recorded steps of a descent)."""

    cls: str
    seconds: float
    failed: bool
    residual: float = math.nan
    work: int = 1


# -- independent numerics ----------------------------------------------------


def complex_gaussian(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def rcond_1(a: np.ndarray) -> float:
    """Exact 1-norm reciprocal condition number."""
    return 1.0 / (np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1))


def hump_cond(x1: np.ndarray, x2: np.ndarray) -> float:
    """Condition number of expm(W1 Xi) for W1 = ln(e) (X1 - X2)^-1."""
    w1 = np.linalg.inv(x1 - x2)
    return max(np.linalg.cond(scipy.linalg.expm(w1 @ x)) for x in (x1, x2))


def relative(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def forward(w1, w2, w3, x) -> np.ndarray:
    """W3 expm(W2 expm(W1 X)) with scipy's exponential."""
    return w3 @ scipy.linalg.expm(w2 @ scipy.linalg.expm(w1 @ x))


def admitted(quad) -> bool:
    x1, x2, y1, y2 = quad
    return min(rcond_1(m) for m in (x1, x2, y1, y2, x1 - x2)) > ADMISSION_RCOND


def draw_quadruples(rng: np.random.Generator, d: int, count: int) -> list:
    """Admitted quadruples (X1, X2, Y1, Y2) below the hump limit."""
    out = []
    while len(out) < count:
        quad = tuple(complex_gaussian(rng, d) for _ in range(4))
        if admitted(quad) and hump_cond(quad[0], quad[1]) <= HUMP_COND_LIMIT:
            out.append(quad)
    return out


def fault_quadruple(d: int, seed: int) -> tuple:
    rng = np.random.default_rng((seed, d))
    quad = tuple(complex_gaussian(rng, d) for _ in range(4))
    if not admitted(quad):
        raise RuntimeError(f"fault instance (d={d}, seed={seed}) is not admitted")
    return quad


def check_interpolant(w1, w2, w3, z, quad) -> tuple[bool, float]:
    """Residual of the network against both labels and expm(Z) = alpha Y1^-1 Y2.

    Returns (passed, worst interpolation residual).
    """
    x1, x2, y1, y2 = quad
    residual = max(relative(forward(w1, w2, w3, x1), y1), relative(forward(w1, w2, w3, x2), y2))
    z_error = relative(scipy.linalg.expm(z), ALPHA * np.linalg.solve(y1, y2))
    return residual <= INTERP_TOL and z_error <= EXPM_MATCH_TOL, residual


def check_trace(s_values) -> bool:
    s = np.asarray(s_values, dtype=float)
    return bool(s.size) and bool(np.all(np.isfinite(s))) and bool(np.all(s >= 0.0))


def read_matrix(path) -> np.ndarray:
    """Decode the matrix JSON format with plain json and numpy."""
    with open(path, encoding="utf-8") as fh:
        return decode_matrix(json.load(fh))


def decode_matrix(obj) -> np.ndarray:
    entries = np.asarray(obj["entries"], dtype=float)
    return entries[..., 0] + 1j * entries[..., 1]


def check_chain(inst_dir, fx1_path, logm_path) -> tuple[bool, float]:
    """Check a chain's files against the instance's labels.

    eval's f(X1) and the stored weights must reproduce Y1 and Y2, and the
    logm output must exponentiate back to Y1. Returns (passed, worst
    interpolation residual).
    """
    x1, x2, y1, y2 = (read_matrix(inst_dir / f"{n}.json") for n in ("x1", "x2", "y1", "y2"))
    with open(inst_dir / "weights.json", encoding="utf-8") as fh:
        weights = json.load(fh)
    w1, w2, w3 = (decode_matrix(weights[k]) for k in ("w1", "w2", "w3"))
    residual = max(
        relative(read_matrix(fx1_path), y1),
        relative(forward(w1, w2, w3, x1), y1),
        relative(forward(w1, w2, w3, x2), y2),
    )
    log_error = relative(scipy.linalg.expm(read_matrix(logm_path)), y1)
    return residual <= INTERP_TOL and log_error <= EXPM_MATCH_TOL, residual


# -- workloads ---------------------------------------------------------------
#
# A workload's ``round(timed)`` runs one round and returns its Ops. ``timed``
# (from run.py) calls a function under the clock and returns
# (value, error, seconds, warnings); a raised error or any warning fails the
# operation. ``roles`` names the size classes behind the small/mid/large
# latency metrics, ``layers`` the traced functions the workload must call.


class InterpBattery:
    name = "interp-battery"
    dims = (2, 4, 8, 16, 32)
    per_round = 8
    pool_size = 64  # per d; rounds cycle through the pool in slices
    roles = {"small": "d4", "mid": "d16", "large": "d32"}
    layers = (
        "linalg.lu_factor",
        "linalg.lu_solve",
        "linalg.inverse",
        "linalg.schur_decompose",
        "matfuncs.expm",
        "matfuncs.logm",
        "solver.make_instance",
        "solver.solve_three_layer",
        "solver.verify",
        "solver.eval_three_layer",
    )

    def __init__(self, seed: int, workdir):
        self.pool = {d: draw_quadruples(np.random.default_rng([seed, 1, d]), d, self.pool_size) for d in self.dims}
        self.faults = [(d, fault_quadruple(d, s)) for d, s in FAULT_INSTANCES]
        self.rounds = 0

    @staticmethod
    def interpolate(quad):
        inst = expnet.solver.make_instance(*quad)
        weights = expnet.solver.solve_three_layer(inst, alpha=ALPHA, branch=expnet.matfuncs.PRINCIPAL)
        expnet.solver.verify(weights, inst)
        return weights

    def op(self, d, quad, timed) -> Op:
        weights, error, seconds, caught = timed(lambda: self.interpolate(quad))
        if error is not None or caught:
            return Op(f"d{d}", seconds, True)
        passed, residual = check_interpolant(weights.w1, weights.w2, weights.w3, weights.z, quad)
        return Op(f"d{d}", seconds, not passed, residual)

    def warm_up(self, timed) -> None:
        for d in self.dims:
            self.op(d, self.pool[d][0], timed)

    def round(self, timed) -> list:
        start = (self.rounds * self.per_round) % self.pool_size
        self.rounds += 1
        batch = [(d, q) for d in self.dims for q in self.pool[d][start : start + self.per_round]]
        return [self.op(d, q, timed) for d, q in batch + self.faults]

    def check_run(self) -> list:
        return []

    def close(self) -> None:
        pass


class Descent:
    name = "descent"
    configs = (("sigmoid", 4), ("sigmoid", 8), ("sigmoid", 16), ("relu", 8))
    steps = 2000
    roles = {"small": "sigmoid-d4", "mid": "sigmoid-d8", "large": "sigmoid-d16"}
    layers = ("linalg.lu_factor", "linalg.lu_solve", "linalg.inverse", "experiment.run_experiment")

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng([seed, 2])
        drawn = rng.choice(2**31, size=12, replace=False)
        self.seeds = tuple(int(s) for s in drawn[:10])
        self.identity_seeds = tuple(int(s) for s in drawn[10:])
        self.last = {}  # (activation, d) -> SeedRuns of the latest round

    def descend(self, activation, d, seeds, steps):
        config = expnet.experiment.ExperimentConfig(dim=d, activation=activation, steps=steps, seeds=seeds)
        return expnet.experiment.run_experiment(config)

    def warm_up(self, timed) -> None:
        for activation, d in self.configs:
            timed(lambda: self.descend(activation, d, self.seeds[:1], 20))

    def round(self, timed) -> list:
        # Seed-major order spreads each configuration's descents over the
        # whole round, so one slow stretch of a shared host does not land
        # on one configuration's median.
        ops = []
        self.last = {config: [] for config in self.configs}
        for seed in self.seeds:
            for activation, d in self.configs:
                trace, error, seconds, caught = timed(lambda: self.descend(activation, d, (seed,), self.steps))
                run = trace.runs[0] if error is None else None
                failed = run is None or bool(caught) or not check_trace(run.s_values)
                ops.append(Op(f"{activation}-d{d}", seconds, failed, work=0 if failed else len(run.s_values)))
                if run is not None:
                    self.last[activation, d].append(run)
        return ops

    def check_run(self) -> list:
        """Method properties of the descent, over the latest round."""
        problems = check_descent_medians(self.last)
        identity = self.descend("identity", 4, self.identity_seeds, 50)
        if any(abs(s - 1.0) > 1e-10 for run in identity.runs for s in run.s_values):
            problems.append("identity activation does not pin s = 1 to 1e-10")
        alone = {run.seed: run for run in self.last.get(("sigmoid", 4), [])}.get(self.seeds[0])
        rerun = self.descend("sigmoid", 4, (self.seeds[1], self.seeds[0]), self.steps).runs[1]
        if alone is None or np.asarray(alone.s_values).tobytes() != np.asarray(rerun.s_values).tobytes():
            problems.append("a seed's trace changed when rerun beside another seed")
        return problems

    def close(self) -> None:
        pass


def check_descent_medians(runs_by_config) -> list:
    problems = []
    for (activation, d), runs in runs_by_config.items():
        if not runs:
            problems.append(f"{activation} d={d}: no completed descent")
            continue
        initial = statistics.median(run.s_values[0] for run in runs)
        final = statistics.median(run.s_values[-1] for run in runs)
        if not final < initial:
            problems.append(f"{activation} d={d}: median final s {final:.3g} >= initial {initial:.3g}")
        if d == 8 and not final < 0.5:
            problems.append(f"{activation} d={d}: median final s {final:.3g} >= 0.5")
    return problems


class CliPipeline:
    name = "cli-pipeline"
    dims = (8, 16, 32)
    pool_size = 6  # gen seeds per d
    roles = {"small": "d8", "mid": "d16", "large": "d32"}
    layers = (
        "linalg.lu_factor",
        "linalg.lu_solve",
        "linalg.inverse",
        "linalg.schur_decompose",
        "linalg.matrix_to_json",
        "linalg.matrix_from_json",
        "matfuncs.expm",
        "matfuncs.logm",
        "solver.make_instance",
        "solver.random_instance",
        "solver.solve_three_layer",
        "solver.verify",
        "solver.eval_three_layer",
        "cli.run",
        "cli.build_parser",
    )

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng([seed, 3])
        self.seeds = {d: self.gen_seeds(rng, d) for d in self.dims}
        self.workdir = workdir
        self.chains = 0

    def gen_seeds(self, rng, d) -> list:
        """gen seeds whose instances stay below the hump limit."""
        seeds = []
        while len(seeds) < self.pool_size:
            seed = int(rng.integers(2**31))
            inst = expnet.solver.random_instance(d, seed)
            if hump_cond(np.asarray(inst.x1), np.asarray(inst.x2)) <= HUMP_COND_LIMIT:
                seeds.append(seed)
        return seeds

    @staticmethod
    def chain(d, seed, where) -> int:
        """gen -> solve -> verify -> eval -> logm; the first nonzero exit code, or 0."""
        inst = where / "inst"
        steps = (
            ["gen", "--dim", str(d), "--seed", str(seed), "--out", str(inst)],
            ["solve", "--instance", str(inst)],
            ["verify", "--instance", str(inst), "--weights", str(inst / "weights.json")],
            ["eval", "--weights", str(inst / "weights.json"), "--in", str(inst / "x1.json"), "--out", str(where / "fx1.json")],
            ["logm", "--in", str(inst / "y1.json"), "--out", str(where / "y1.logm.json")],
        )
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in steps:
                code = expnet.cli.run(argv)
                if code != 0:
                    return code
        return 0

    def op(self, d, seed, timed) -> Op:
        where = self.workdir / f"chain-{self.chains}"
        self.chains += 1
        code, error, seconds, caught = timed(lambda: self.chain(d, seed, where))
        try:
            if error is not None or caught or code != 0:
                return Op(f"d{d}", seconds, True)
            passed, residual = check_chain(where / "inst", where / "fx1.json", where / "y1.logm.json")
            return Op(f"d{d}", seconds, not passed, residual)
        finally:
            shutil.rmtree(where, ignore_errors=True)

    def warm_up(self, timed) -> None:
        for d in self.dims:
            self.op(d, self.seeds[d][0], timed)

    def round(self, timed) -> list:
        k = self.chains // len(self.dims)
        return [self.op(d, self.seeds[d][k % self.pool_size], timed) for d in self.dims]

    def check_run(self) -> list:
        return []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (InterpBattery, Descent, CliPipeline)}
