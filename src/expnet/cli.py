"""Command-line interface.

Subcommands: gen, solve, eval, verify, expm, logm, experiment. All file
exchange uses the package's matrix JSON format; the experiment writes a
trace CSV plus a JSON sidecar.

``run(argv)`` is the in-process entry point: it returns the exit code,
and ``main()`` exits the process with it. Exit codes (stable contract):
    0  success / verification passed
    2  usage or flag validation error
    3  instance rejected or resampling exhausted
    4  file I/O or input format error
    5  numerical failure (singular input, branch-cut breakdown,
       overflow, or a verification that ran but missed tolerance)
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from . import experiment as xp
from . import solver
from .errors import (
    ComplexInputError,
    ConvergenceError,
    DimensionError,
    IllConditionedError,
    InstanceRejectedError,
    MatrixFormatError,
    MaxResampleError,
    NearSingularError,
)
from .linalg import GAUSSIAN_KINDS, _shown, load_matrix, save_json, save_matrix
from .matfuncs import PRINCIPAL, expm, logm


#: Most seeds ``--seeds`` may name. One descent per seed; the bound keeps a
#: range such as 1..1000000000 from being expanded before it is refused.
MAX_SEEDS = 10_000


def parse_seeds(text: str) -> tuple:
    """Parse a seed list: "7", "1,2,5", "1..10", or mixes like "1..3,9".

    Only the syntax and the count are checked here (ValueError naming
    ``--seeds``): the ranges may name at most ``MAX_SEEDS`` seeds in all,
    counted before any is expanded.
    :class:`~expnet.experiment.ExperimentConfig` refuses a negative seed.
    """
    ranges = []
    for token in str(text).split(","):
        lo_text, dots, hi_text = token.partition("..")
        try:  # int() refuses an empty token and one past Python's digit limit
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
            if hi < lo:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"--seeds must be integers and ascending ranges lo..hi, got {_shown(text)}"
            ) from None
        ranges.append(range(lo, hi + 1))
    if sum(r.stop - r.start for r in ranges) > MAX_SEEDS:  # len() stops at 2**63
        raise ValueError(f"--seeds must name at most {MAX_SEEDS} seeds, got {_shown(text)}")
    return tuple(itertools.chain.from_iterable(ranges))


def _report_exit_code(report: solver.SolveReport) -> int:
    """Print the report; the exit code is 5 when it missed tolerance."""
    print(f"residual1: {report.residual1:.6e}")
    print(f"residual2: {report.residual2:.6e}")
    for name, value in report.identity_checks.items():
        print(f"{name}: {value:.6e}")
    print(f"admitted: {report.admitted}")
    print(f"pass: {report.passed} (tol {report.tol:g})")
    if report.passed:
        return 0
    print(f"error: verification missed tolerance {report.tol:g}", file=sys.stderr)
    return 5


def cmd_gen(args) -> int:
    inst = solver.random_instance(args.dim, args.seed, kind=args.kind)
    out = args.out or f"instance-d{args.dim}-s{args.seed}"
    manifest = solver.save_instance(
        out, inst, manifest_extra={"seed": args.seed, "kind": args.kind}
    )
    print(f"wrote {manifest}")
    for key, rcond in inst.rconds.items():
        print(f"rcond {key}: {rcond:.6e}")
    return 0


def cmd_solve(args) -> int:
    inst = solver.load_instance(args.instance)
    weights = solver.solve_three_layer(
        inst, alpha=args.alpha, branch=args.branch_offset
    )
    report = solver.verify(weights, inst, tol=args.tol)
    base = solver._instance_dir(args.instance)
    weights_path = args.weights_out or os.path.join(base, "weights.json")
    report_path = args.report_out or os.path.join(base, "report.json")
    solver.save_weights(weights_path, weights)
    save_json(report_path, solver.report_to_json(report))
    print(f"wrote {weights_path}")
    print(f"wrote {report_path}")
    return _report_exit_code(report)


def cmd_verify(args) -> int:
    inst = solver.load_instance(args.instance)
    weights = solver.load_weights(args.weights)
    report = solver.verify(weights, inst, tol=args.tol)
    if args.report_out:
        save_json(args.report_out, solver.report_to_json(report))
    return _report_exit_code(report)


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
    lg = logm(a, args.branch_offset)
    # expm may refuse lg, so it runs before the write; a norm past float
    # range gives an inf residual, as in verify, not a warning and NaN
    with np.errstate(over="ignore", invalid="ignore"):
        roundtrip = solver._relative(expm(lg) - a, a)
    out = _matfun_out(args, "logm")
    save_matrix(out, lg)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Its defaults are read from the library on that first build. Reuse is
    safe: every ``parse_args`` makes a fresh ``Namespace``, and argparse
    looks up ``sys.stdout`` and ``sys.stderr`` only when it prints.
    """
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
        choices=GAUSSIAN_KINDS,
        default="complex-gaussian",
        help="entry distribution (default %(default)s)",
    )
    p.add_argument("--out", help="output directory (default instance-d<dim>-s<seed>)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", help="construct three-layer weights for an instance and verify"
    )
    p.add_argument("--instance", required=True, help="instance directory (or a file in it)")
    p.add_argument(
        "--alpha",
        type=float,
        default=solver.DEFAULT_ALPHA,
        help="interpolation scale, positive and away from 1 (default %(default)g)",
    )
    p.add_argument(
        "--branch-offset",
        type=int,
        default=PRINCIPAL,
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
    p.add_argument("--instance", required=True, help="instance directory (or a file in it)")
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
        default=PRINCIPAL,
        help="adds 2*pi*k*i to every eigenvalue log (default %(default)s: principal)",
    )
    p.set_defaults(func=cmd_logm)

    p = sub.add_parser(
        "experiment", help="gradient-descent study of entry-wise activations"
    )
    # LEARNING_RATE_SCALE printed as 1e-3, not str()'s 0.001
    lr_scale = np.format_float_scientific(xp.LEARNING_RATE_SCALE, trim="-", exp_digits=1)
    p.add_argument("--dim", type=int, required=True, help="matrix dimension d")
    p.add_argument(
        "--activation",
        choices=sorted(xp.ACTIVATIONS),
        default=xp.ExperimentConfig.activation,
        help="entry-wise activation (default %(default)s)",
    )
    p.add_argument(
        "--steps",
        type=int,
        default=xp.ExperimentConfig.steps,
        help="descent steps (default %(default)s)",
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
        help=f"learning rate on the normalized score (default {lr_scale} * dim)",
    )
    p.add_argument("--out", help="trace CSV path (default trace-<activation>-d<dim>.csv)")
    p.set_defaults(func=cmd_experiment)

    return parser


#: Exit code per error class; the first matching row wins, so a
#: json.JSONDecodeError or a MatrixFormatError (both ValueErrors) exits 4,
#: not 2.
_EXIT_CODES = (
    ((InstanceRejectedError, MaxResampleError, ComplexInputError), 3),
    ((json.JSONDecodeError, MatrixFormatError, DimensionError, OSError), 4),
    ((IllConditionedError, NearSingularError, ConvergenceError, OverflowError), 5),
    ((ValueError,), 2),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def run(argv=None) -> int:
    """Run one command in-process and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
