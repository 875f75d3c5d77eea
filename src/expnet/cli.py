"""Command-line interface.

Subcommands: gen, solve, eval, verify, expm, logm, experiment. All file
exchange uses the package's matrix JSON format; the experiment writes a
trace CSV plus a JSON sidecar.

Exit codes (stable contract):
    0  success / verification passed
    2  usage or flag validation error
    3  instance rejected or resampling exhausted
    4  file I/O or input format error
    5  numerical failure (singular input, branch-cut breakdown,
       overflow, or a verification that ran but missed tolerance)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiment as xp
from . import solver
from .errors import (
    ActivationSingularError,
    ComplexInputError,
    ConvergenceError,
    DimensionError,
    IllConditionedError,
    InstanceRejectedError,
    MaxResampleError,
    NearSingularError,
    SingularInputError,
)
from .linalg import load_matrix, save_matrix
from .matfuncs import BranchSpec, expm, logm


def parse_seeds(text: str) -> tuple:
    """Parse a seed list: "7", "1,2,5", "1..10", or mixes like "1..3,9"."""
    seeds = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty seed token in {text!r}")
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"descending seed range {token!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(token))
    if any(s < 0 for s in seeds):
        raise ValueError(f"seeds must be nonnegative, got {seeds}")
    return tuple(seeds)


def _print_report(report: solver.SolveReport) -> None:
    print(f"residual1: {report.residual1:.6e}")
    print(f"residual2: {report.residual2:.6e}")
    for name, value in report.identity_checks.items():
        print(f"{name}: {value:.6e}")
    print(f"admitted: {report.admitted}")
    print(f"pass: {report.passed} (tol {report.tol:g})")


def _write_report(path, report: solver.SolveReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solver.report_to_json(report), fh, indent=2)
        fh.write("\n")


def _instance_dir(path) -> str:
    return path if os.path.isdir(path) else os.path.dirname(os.path.abspath(path))


def cmd_gen(args) -> int:
    inst = solver.random_instance(
        args.dim, args.seed, kind=args.kind, threshold=args.threshold
    )
    out = args.out or f"instance-d{args.dim}-s{args.seed}"
    manifest = solver.save_instance(
        out, inst, manifest_extra={"seed": args.seed, "kind": args.kind}
    )
    print(f"wrote {manifest}")
    for key in ("x1", "x2", "y1", "y2", "x1_minus_x2"):
        print(f"rcond {key}: {inst.rconds[key]:.6e}")
    return 0


def cmd_solve(args) -> int:
    inst = solver.load_instance(args.instance)
    weights = solver.solve_three_layer(
        inst, alpha=args.alpha, branch=BranchSpec(args.branch_offset)
    )
    report = solver.verify(weights, inst, tol=args.tol)
    base = _instance_dir(args.instance)
    weights_path = args.weights_out or os.path.join(base, "weights.json")
    report_path = args.report_out or os.path.join(base, "report.json")
    solver.save_weights(weights_path, weights)
    _write_report(report_path, report)
    print(f"wrote {weights_path}")
    print(f"wrote {report_path}")
    _print_report(report)
    if not report.passed:
        print(
            f"error: verification missed tolerance {report.tol:g}", file=sys.stderr
        )
        return 5
    return 0


def cmd_verify(args) -> int:
    inst = solver.load_instance(args.instance)
    weights = solver.load_weights(args.weights)
    report = solver.verify(weights, inst, tol=args.tol)
    if args.report_out:
        _write_report(args.report_out, report)
    _print_report(report)
    if not report.passed:
        print(
            f"error: verification missed tolerance {report.tol:g}", file=sys.stderr
        )
        return 5
    return 0


def cmd_eval(args) -> int:
    weights = solver.load_weights(args.weights)
    x = load_matrix(args.input)
    save_matrix(args.out, solver.eval_three_layer(weights, x))
    print(f"wrote {args.out}")
    return 0


def _matfun_out(args, op: str) -> str:
    if args.out:
        return args.out
    base, _ = os.path.splitext(str(args.input))
    return f"{base}.{op}.json"


def cmd_expm(args) -> int:
    a = load_matrix(args.input)
    out = _matfun_out(args, "expm")
    save_matrix(out, expm(a))
    print(f"wrote {out}")
    return 0


def cmd_logm(args) -> int:
    a = load_matrix(args.input)
    lg = logm(a, BranchSpec(args.branch_offset))
    out = _matfun_out(args, "logm")
    save_matrix(out, lg)
    norm_a = float(np.linalg.norm(a))
    roundtrip = float(np.linalg.norm(expm(lg) - a)) / norm_a if norm_a else 0.0
    print(f"wrote {out}")
    print(f"roundtrip residual: {roundtrip:.6e}")
    return 0


def cmd_experiment(args) -> int:
    config = xp.ExperimentConfig(
        dim=args.dim,
        activation=args.activation,
        steps=args.steps,
        seeds=parse_seeds(args.seeds),
        learning_rate=args.lr,
        gradient_mode=args.gradient_mode,
        rcond_floor=args.rcond_floor,
    )
    trace = xp.run_experiment(config)
    out = args.out or f"trace-{config.activation}-d{config.dim}.csv"
    sidecar = xp.write_trace_csv(trace, out)
    print(f"wrote {out}")
    print(f"wrote {sidecar}")
    print(f"median initial s: {trace.median_initial():.12g}")
    print(f"median final s: {trace.median_final():.12g}")
    diverged = trace.divergent_count()
    if diverged:
        print(f"divergent seeds: {diverged} of {len(trace.runs)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expnet",
        description=(
            "Closed-form interpolation with matrix-exponential networks, "
            "matrix exp/log utilities, and a descent experiment for "
            "entry-wise activations."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="sample an admitted random instance to files")
    p.add_argument("--dim", type=int, required=True, help="matrix dimension d")
    p.add_argument("--seed", type=int, required=True, help="PCG64 stream seed")
    p.add_argument(
        "--kind",
        choices=("complex-gaussian", "real-gaussian"),
        default="complex-gaussian",
        help="entry distribution (default complex-gaussian)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=solver.ADMISSION_RCOND,
        help="admission rcond threshold (default %(default)g)",
    )
    p.add_argument("--out", help="output directory (default instance-d<dim>-s<seed>)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", help="construct three-layer weights for an instance and verify"
    )
    p.add_argument("--instance", required=True, help="instance directory or manifest")
    p.add_argument(
        "--alpha",
        type=float,
        default=math.e,
        help="interpolation scale, positive and away from 1 (default e)",
    )
    p.add_argument(
        "--branch-offset",
        type=int,
        default=0,
        help="logarithm branch: adds 2*pi*k*i to every eigenvalue log",
    )
    p.add_argument(
        "--tol",
        type=float,
        default=solver.DEFAULT_TOLERANCE,
        help="relative residual pass tolerance (default %(default)g)",
    )
    p.add_argument("--weights-out", help="weights JSON path (default beside instance)")
    p.add_argument("--report-out", help="report JSON path (default beside instance)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify stored weights against an instance")
    p.add_argument("--instance", required=True, help="instance directory or manifest")
    p.add_argument("--weights", required=True, help="weights JSON path")
    p.add_argument(
        "--tol", type=float, default=solver.DEFAULT_TOLERANCE,
        help="relative residual pass tolerance (default %(default)g)",
    )
    p.add_argument("--report-out", help="also write the report JSON here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="apply stored weights to a matrix file")
    p.add_argument("--weights", required=True, help="weights JSON path")
    p.add_argument("--in", dest="input", required=True, help="input matrix JSON")
    p.add_argument("--out", required=True, help="output matrix JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expm", help="matrix exponential of a matrix file")
    p.add_argument("--in", dest="input", required=True, help="input matrix JSON")
    p.add_argument("--out", help="output path (default <in>.expm.json)")
    p.set_defaults(func=cmd_expm)

    p = sub.add_parser("logm", help="matrix logarithm of a matrix file")
    p.add_argument("--in", dest="input", required=True, help="input matrix JSON")
    p.add_argument("--out", help="output path (default <in>.logm.json)")
    p.add_argument(
        "--branch-offset",
        type=int,
        default=0,
        help="adds 2*pi*k*i to every eigenvalue log (default 0: principal)",
    )
    p.set_defaults(func=cmd_logm)

    p = sub.add_parser(
        "experiment", help="gradient-descent study of entry-wise activations"
    )
    p.add_argument("--dim", type=int, required=True, help="matrix dimension d")
    p.add_argument(
        "--activation",
        choices=sorted(xp.ACTIVATIONS),
        default="sigmoid",
        help="entry-wise activation (default sigmoid)",
    )
    p.add_argument(
        "--steps", type=int, default=2000, help="descent steps (default %(default)s)"
    )
    p.add_argument(
        "--seeds",
        default="1..10",
        help='seed list: "7", "1,2,5", or "1..10" (default %(default)s)',
    )
    p.add_argument(
        "--lr",
        type=float,
        default=None,
        help="learning rate on the normalized score (default 1e-3 * dim)",
    )
    p.add_argument(
        "--gradient-mode",
        choices=xp.GRADIENT_MODES,
        default="analytic",
        help="gradient computation (default analytic)",
    )
    p.add_argument(
        "--rcond-floor",
        type=float,
        default=xp.ACTIVATION_RCOND_FLOOR,
        help="rcond floor for instance admission and the post-activation "
        "matrix (default %(default)g)",
    )
    p.add_argument("--out", help="trace CSV path (default trace-<activation>-d<dim>.csv)")
    p.set_defaults(func=cmd_experiment)

    return parser


#: Exit code per error class; the first matching row wins, so a
#: json.JSONDecodeError (a ValueError) exits 4, not 2.
_EXIT_CODES = (
    ((InstanceRejectedError, MaxResampleError, ComplexInputError), 3),
    ((json.JSONDecodeError, KeyError, DimensionError, OSError), 4),
    ((SingularInputError, IllConditionedError, NearSingularError, ConvergenceError,
      ActivationSingularError, OverflowError, FloatingPointError), 5),
    ((ValueError,), 2),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
