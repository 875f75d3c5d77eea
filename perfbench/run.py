#!/usr/bin/env python3
"""Benchmark command for expnet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports expnet from ``src/``,
draws its inputs from ``--seed``, runs whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output, and prints
one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from rounds that alternate untraced and traced so the
tracing overhead is measured against the same operations. Every run also
writes a run record (and, when traced, its spans) under ``perfbench/runs/``.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are at most 32 x 32, and a single thread
# keeps timings steady on a shared 2-CPU host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

#: Fresh-process set-ups timed per run; setup_s is their median.
SETUP_PROBES = 5

#: Reported times are scaled to the machine speed at which
#: reference_seconds() takes this long (it took 1.5-2.5 ms on the 2-CPU
#: host the benchmark was tuned on). Other tenants of a shared host change
#: its speed by up to 2x within seconds; there, the median of raw operation
#: times moved 20-30% between runs, and the median of operation time over
#: the reference time measured beside it moved 2-8%.
NOMINAL_REFERENCE_S = 1.5e-3
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((16, 16))

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "small_ms.p50": "ms",
    "mid_ms.p50": "ms",
    "large_ms.p50": "ms",
}

#: Traced only to count the draws behind solver.draws_per_admitted.
_DRAWS = "solver.draw_instance"


def reference_seconds() -> float:
    """Wall time of a fixed computation that shares no code with expnet."""
    start = time.perf_counter()
    for _ in range(100):
        np.linalg.inv(_REFERENCE_MATRIX)
    total = 0
    for i in range(8000):
        total += i
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that scales a wall time to the speed at which the reference
    takes NOMINAL_REFERENCE_S, from the reference timings around it."""
    return NOMINAL_REFERENCE_S / (0.5 * (before + after))


class Timer:
    """Times one operation; traces it when ``tracing`` is set.

    Returns (value, error, nominal seconds, warnings). Any exception is
    caught and returned, because a failing operation is counted, not fatal.
    The reference computation runs after every operation, outside the
    timed and traced region. Traced operations are timed on the tracer's
    clock, which leaves out its JSON byte counting, so the
    traced-against-untraced difference is the cost of the spans themselves.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False
        self.ops = 0
        self.reference = reference_seconds()
        self.wall = []  # measured seconds of each operation
        self.references = []  # reference seconds after each operation
        self.scales = []  # speed_scale of each operation

    def __call__(self, fn):
        tracer = self.tracer if self.tracing else None
        clock = tracer.now if tracer else time.perf_counter
        value = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer:
                tracer.op = self.ops
                tracer.enabled = True
                tracer.open("op")
            start = clock()
            try:
                value = fn()
            except Exception as exc:  # the operation failed; the run goes on
                error = exc
            seconds = clock() - start
            if tracer:
                tracer.close()
                tracer.enabled = False
        self.ops += 1
        if error is not None:
            print(f"operation failed: {type(error).__name__}: {error}", file=sys.stderr)
        before, self.reference = self.reference, reference_seconds()
        scale = speed_scale(before, self.reference)
        self.wall.append(seconds)
        self.references.append(self.reference)
        self.scales.append(scale)
        return value, error, seconds * scale, caught


def percentile(values, q):
    values = sorted(values)
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(args) -> float:
    """Wall seconds from starting a fresh interpreter to its first timed
    operation. Unlike operation times these are not scaled: a reference
    timed beside a set-up did not track its speed (scaling raised the
    probe-to-probe variation from 10% to 15%)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(workload, seconds, tracer):
    """Whole rounds until ``seconds`` pass; with a tracer, each untraced
    round is followed by the same round traced.

    Returns (untraced ops, traced ops, rounds run, timer).
    """
    timer = Timer(tracer)
    plain, traced = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        plain += workload.round(timer)
        rounds += 1
        if tracer:
            timer.tracing = True
            traced += workload.round(timer)
            timer.tracing = False
            rounds += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced, rounds, timer


def by_class(ops):
    classes = {}
    for op in ops:
        classes.setdefault(op.cls, []).append(op)
    return classes


def throughput(ops) -> float:
    """Work per second of operation time: interpolants, recorded descent
    steps (resampled descents included in the time) or CLI chains."""
    return sum(op.work for op in ops) / sum(op.seconds for op in ops)


def end_to_end(workload, ops, setup_s):
    classes = by_class(ops)
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput": throughput(ops),
    }
    for role, cls in workload.roles.items():
        values[f"{role}_ms.p50"] = 1e3 * percentile([op.seconds for op in classes[cls]], 50)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def residual_p50(ops) -> float:
    residuals = [op.residual for op in ops if not op.failed and not math.isnan(op.residual)]
    return statistics.median(residuals) if residuals else 0.0


def self_ms(tracer, timer) -> Counter:
    """Self time of each traced function (and of the operation spans, key
    "op"), summed over the traced operations. Each operation's span self
    times are scaled by the factor applied to that operation's time."""
    total = Counter()
    for (key, op), seconds in tracer.self_seconds.items():
        total[key] += 1e3 * seconds * timer.scales[op]
    return total


def per_layer(workload, tracer, timer, plain, traced):
    """Per-layer metrics from the traced rounds (the untraced rounds give
    the overhead baseline)."""
    calls, sites = tracer.calls(), tracer.site_calls
    for key in workload.layers:
        if calls[key] == 0:
            raise RuntimeError(
                f"{key} recorded no calls on {workload.name}; it may have been renamed "
                "or imported under another name"
            )
    busy = self_ms(tracer, timer)
    metrics = {}
    for key in tracing.KEYS:
        if key != _DRAWS:
            metrics[f"{key}.calls"] = (calls[key], "count")
            metrics[f"{key}.self_ms"] = (busy[key] / len(traced), "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["linalg.json_bytes"] = (tracer.json_bytes, "bytes")
    metrics["matfuncs.expm.calls_per_interp"] = (
        ratio(calls["matfuncs.expm"], calls["solver.solve_three_layer"]), "count")
    metrics["solver.draws_per_admitted"] = (
        ratio(sites[_DRAWS, "expnet.solver"], calls["solver.random_instance"]), "ratio")
    metrics["solver.residual_p50"] = (residual_p50(traced), "relative")
    metrics["experiment.useful_forward_ratio"] = (
        ratio(sum(op.work for op in traced), sites["linalg.lu_factor", "expnet.experiment"]), "ratio")
    overhead = sum(op.seconds for op in traced) / sum(op.seconds for op in plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def self_shares(busy) -> dict:
    """Each key's share of the traced operations' time, in percent."""
    total = sum(busy.values())
    return {key: 100.0 * value / total for key, value in sorted(busy.items())}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="expnet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "expnet" / "__init__.py").is_file():
        print(f"error: no expnet source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs src on the path)
    import expnet

    if not Path(expnet.__file__).resolve().is_relative_to(SRC):
        print(f"error: expnet was imported from {expnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setups = [] if args.setup_only or args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workdir = RUNS / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up(Timer())
    if args.setup_only:
        workload.close()
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        plain, traced, rounds, timer = measure(workload, args.seconds, tracer)
        problems = workload.check_run()
    finally:
        workload.close()
        if tracer:
            tracer.uninstall()
    ops = plain + traced
    if tracer:
        metrics = per_layer(workload, tracer, timer, plain, traced)
    else:
        metrics = end_to_end(workload, plain, statistics.median(setups))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }

    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    classes = {
        cls: {
            "ops": len(group),
            "failed": sum(op.failed for op in group),
            "ms_p50": 1e3 * percentile([op.seconds for op in group], 50),
            "ms_p90": 1e3 * percentile([op.seconds for op in group], 90) if len(group) >= 2 else None,
        }
        for cls, group in sorted(by_class(plain).items())
    }
    record = {
        **environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes_s": setups,
        "nominal_reference_ms": 1e3 * NOMINAL_REFERENCE_S,
        "measured_reference_ms_p50": 1e3 * statistics.median(timer.references),
        "wall_ms_total": 1e3 * sum(timer.wall),
        "residual_p50": residual_p50(plain),
        "rounds": rounds,
        "failed_per_round": result["failed"] / rounds,
        "classes": classes,
        "self_pct": self_shares(self_ms(tracer, timer)) if tracer else {},
        "problems": problems,
        **result,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if tracer:
        tracer.write_spans(f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
