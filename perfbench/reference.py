#!/usr/bin/env python3
"""Reference figures for the matrix-function kernels, on the battery's inputs.

For each d of interp-battery, takes the first instances of the battery's
pool for a seed and forms the arguments the solver hands its kernels:
W1 X1 with W1 = (X1 - X2)^-1 (alpha = e) for expm, and e * Y1^-1 Y2 for
logm. Times scipy.linalg and expnet on each (median of repeated calls,
unscaled wall time) and gives their relative Frobenius error against
V f(D) V^-1 from mpmath's eigendecomposition at 40 digits, an oracle that
shares no code with either. (mpmath.logm itself is not used: on these
inputs at d >= 8 it disagreed with both kernels and with the
eigendecomposition by a relative 1.)

    python3 perfbench/reference.py

Prints a Markdown table; perfbench/README.md quotes its output.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

import run  # sets one BLAS thread before numpy loads

sys.path.insert(0, str(run.SRC))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

import expnet.matfuncs  # noqa: E402
import workloads  # noqa: E402

mpmath.mp.dps = 40

SEED = 1  # battery seed whose pool supplies the inputs
SAMPLES = 3  # instances per d
REPEATS = 20  # timed calls per kernel and input


def oracle(scalar_fn, a: np.ndarray) -> np.ndarray:
    """V f(D) V^-1 at 40 digits; the inputs have distinct eigenvalues."""
    eigenvalues, v = mpmath.eig(mpmath.matrix(a.tolist()))
    out = v * mpmath.diag([scalar_fn(e) for e in eigenvalues]) * mpmath.inverse(v)
    return np.array([[complex(out[i, j]) for j in range(a.shape[1])] for i in range(a.shape[0])])


def median_ms(fn, a, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(a)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> int:
    battery = workloads.InterpBattery(SEED, None)
    kernels = {
        "expm": (scipy.linalg.expm, expnet.matfuncs.expm, mpmath.exp),
        "logm": (scipy.linalg.logm, expnet.matfuncs.logm, mpmath.log),
    }
    print("| d | kernel | scipy ms | expnet ms | scipy max error | expnet max error |")
    print("|---|---|---|---|---|---|")
    for d in battery.dims:
        args_by_kernel = {"expm": [], "logm": []}
        for x1, x2, y1, y2 in battery.pool[d][:SAMPLES]:
            args_by_kernel["expm"].append(np.linalg.inv(x1 - x2) @ x1)
            args_by_kernel["logm"].append(math.e * np.linalg.solve(y1, y2))
        for name, (ref, ours, exact) in kernels.items():
            rows = []
            for a in args_by_kernel[name]:
                truth = oracle(exact, a)
                rows.append((
                    median_ms(ref, a, REPEATS),
                    median_ms(ours, a, REPEATS),
                    workloads.relative(ref(a), truth),
                    workloads.relative(ours(a), truth),
                ))
            ref_ms, our_ms = (statistics.median(r[i] for r in rows) for i in (0, 1))
            ref_err, our_err = (max(r[i] for r in rows) for i in (2, 3))
            print(f"| {d} | {name} | {ref_ms:.3f} | {our_ms:.3f} | {ref_err:.1e} | {our_err:.1e} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
