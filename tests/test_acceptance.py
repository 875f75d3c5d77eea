"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Criteria 1-3, 9 and 10 share a module-scoped battery of solved random
instances; the rest build their own fixtures. Every expected value comes
from an independent oracle (truncated Taylor exponential, closed-form
Jordan block logarithm, central finite differences, hand-derived scalar
case, mpmath at 50 digits), never from the implementation under test.
"""

import math
import statistics
import time

import mpmath
import numpy as np
import pytest

import expnet as en

from conftest import (
    central_difference,
    check_commuting_product,
    jordan_block_log,
    random_complex,
    random_matrix,
    taylor_expm,
)

DIMS = (2, 4, 8, 16)
PER_DIM = 100
BATTERY_ALPHA = math.e
NEAR_ONE_ALPHAS = (0.9, 0.95, 1.05, 1.1)


def _announce(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _solved_residual(inst, alpha):
    """(report, worse residual) of the solve at ``alpha``; (None, inf) when
    the solve refuses the instance as near-singular, which counts as a miss."""
    try:
        report = en.verify(en.solve_three_layer(inst, alpha=alpha), inst)
    except en.NearSingularError:
        return None, math.inf
    return report, max(report.residual1, report.residual2)


@pytest.fixture(scope="module")
def battery():
    """100 admitted complex-Gaussian instances per d in {2,4,8,16},
    solved and verified at alpha = e; records wall time."""
    start = time.perf_counter()
    rows = {d: [] for d in DIMS}
    for d in DIMS:
        for i in range(PER_DIM):
            inst = en.random_instance(d, seed=d * 10_000 + i)
            rows[d].append((inst, *_solved_residual(inst, BATTERY_ALPHA)))
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_exact_interpolation(battery):
    rows, elapsed = battery
    residuals = [r for per_dim in rows.values() for (_, _, r) in per_dim]
    frac = float(np.mean([r <= 1e-6 for r in residuals]))
    med = float(np.median(residuals))
    _announce(
        "1 exact-interpolation",
        frac >= 0.99 and med <= 1e-8 and elapsed <= 30.0,
        f"frac<=1e-6 {frac:.4f}, median {med:.3e}, battery {elapsed:.1f}s",
    )


def test_criterion_2_alpha_freedom(battery):
    rows, _ = battery
    worst_frac, worst_med = 1.0, 0.0
    for alpha in (0.5, 2.0):
        residuals = []
        for per_dim in rows.values():
            for (inst, _, _) in per_dim:
                residuals.append(_solved_residual(inst, alpha)[1])
        worst_frac = min(worst_frac, float(np.mean([r <= 1e-6 for r in residuals])))
        worst_med = max(worst_med, float(np.median(residuals)))
    _announce(
        "2 alpha-freedom",
        worst_frac >= 0.99 and worst_med <= 1e-8,
        f"alpha in {{1/2, 2, e}}: worst frac {worst_frac:.4f}, "
        f"worst median {worst_med:.3e}",
    )


def test_criterion_3_proof_identities(battery):
    # Quantified over the interpolating (residual <= 1e-6) population of
    # criterion 1: the same <= 1% tail of barely-admitted instances with
    # ||W1 X|| ~ 1/rcond(X1-X2) loses the identities and the residuals
    # together, by exponential-hump amplification no double-precision
    # evaluation avoids.
    rows, _ = battery
    named = ("scale_identity", "commutant_form")
    worst = 0.0
    kept = total = 0
    for per_dim in rows.values():
        for (_, rep, residual) in per_dim:
            total += 1
            if residual > 1e-6:
                continue
            kept += 1
            for key in named:
                worst = max(worst, rep.identity_checks[key])
    _announce(
        "3 proof-identities",
        worst <= 1e-7 and kept >= 0.99 * total,
        f"worst of {named} = {worst:.3e} over {kept}/{total} "
        "interpolating instances",
    )


def test_criterion_4_matrix_function_kernels():
    # expm vs plain 30-term Taylor at ||A||_F <= 1
    worst_taylor = 0.0
    for seed in range(100):
        dim = seed % 8 + 1
        a = random_complex(seed, dim)
        norm = np.linalg.norm(a)
        a = a / norm * min(1.0, 0.05 + 0.95 * (seed % 20) / 19)
        ref = taylor_expm(a, terms=30)
        worst_taylor = max(
            worst_taylor,
            float(np.linalg.norm(en.expm(a) - ref) / np.linalg.norm(ref)),
        )

    # expm(logm(A)) roundtrip on admitted matrices
    worst_round = 0.0
    for seed in range(60):
        dim = seed % 7 + 2
        a = random_matrix(dim, seed=5_000 + seed)
        if en.lu_factor(a).rcond <= 1e-3:
            continue
        worst_round = max(
            worst_round,
            float(np.linalg.norm(en.expm(en.logm(a)) - a) / np.linalg.norm(a)),
        )

    # logm vs the closed-form Jordan block series under conjugation
    rng = np.random.default_rng(2024)
    worst_jordan = 0.0
    for lam in (2.0, 1.0 + 1.0j, 0.5 - 0.3j, -0.4 + 0.9j, 3.0j):
        for m in (2, 3, 4):
            block = lam * np.eye(m, dtype=complex) + np.eye(m, k=1, dtype=complex)
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            s = np.eye(m, dtype=complex) + 0.25 * g
            sinv = np.linalg.inv(s)
            expected = s @ jordan_block_log(lam, m) @ sinv
            got = en.logm(s @ block @ sinv)
            worst_jordan = max(
                worst_jordan,
                float(
                    np.linalg.norm(got - expected) / np.linalg.norm(expected)
                ),
            )

    # commuting product collapse and determinant identity
    worst_commute = 0.0
    worst_det = 0.0
    for seed in range(30):
        dim = seed % 6 + 2
        a = random_complex(seed + 300, dim)
        a = a / np.linalg.norm(a)
        b = 0.6 * a @ a - 1.1 * a + 0.3 * np.eye(dim)
        worst_commute = max(worst_commute, check_commuting_product(a, b))
        det = complex(np.linalg.det(en.expm(a)))
        tr = complex(np.exp(np.trace(a)))
        worst_det = max(worst_det, abs(det - tr) / abs(tr))

    ok = (
        worst_taylor <= 1e-12
        and worst_round <= 1e-8
        and worst_jordan <= 1e-7
        and worst_commute <= 1e-9
        and worst_det <= 1e-9
    )
    _announce(
        "4 matrix-function-kernels",
        ok,
        f"taylor {worst_taylor:.2e}, roundtrip {worst_round:.2e}, "
        f"jordan {worst_jordan:.2e}, commuting {worst_commute:.2e}, "
        f"det {worst_det:.2e}",
    )


def test_criterion_5_scalar_worked_example():
    inst = en.make_instance([[2.0]], [[1.0]], [[3.0]], [[6.0]])
    w = en.solve_three_layer(inst, alpha=2.0)
    ln2 = math.log(2.0)
    errs = (
        abs(w.w1[0, 0] - ln2),
        abs(w.w2[0, 0] + ln2 / 2.0),
        abs(w.w3[0, 0] - 12.0),
        abs(en.eval_three_layer(w, inst.x1)[0, 0] - 3.0),
        abs(en.eval_three_layer(w, inst.x2)[0, 0] - 6.0),
    )
    _announce(
        "5 scalar-worked-example",
        max(errs) <= 1e-12,
        f"W1=ln2, W2=-ln2/2, W3=12, f(2)=3, f(1)=6 to {max(errs):.2e}",
    )


def test_criterion_6_elementwise_experiment():
    start = time.perf_counter()
    seeds = tuple(range(1, 11))

    def run(dim, activation):
        cfg = en.ExperimentConfig(dim=dim, activation=activation, steps=2000,
                                  seeds=seeds)
        return en.run_experiment(cfg)

    sig8 = run(8, "sigmoid")
    rel8 = run(8, "relu")
    sig4 = run(4, "sigmoid")
    sig16 = run(16, "sigmoid")

    identity = en.run_experiment(
        en.ExperimentConfig(dim=4, activation="identity", steps=50, seeds=(1, 2))
    )
    pinned = all(
        abs(s - 1.0) <= 1e-10 for run_ in identity.runs for s in run_.s_values
    )
    elapsed = time.perf_counter() - start

    ok = (
        sig8.median_final() < 0.5
        and sig8.median_final() < sig8.median_initial()
        and rel8.median_final() < 0.5
        and rel8.median_final() < rel8.median_initial()
        and sig16.median_final() <= sig4.median_final()
        and pinned
        and elapsed <= 300.0
    )
    _announce(
        "6 elementwise-experiment",
        ok,
        f"sigmoid d8 {sig8.median_initial():.3f}->{sig8.median_final():.3f}, "
        f"relu d8 {rel8.median_initial():.3f}->{rel8.median_final():.3f}, "
        f"d16 {sig16.median_final():.3f} <= d4 {sig4.median_final():.3f}, "
        f"identity pinned {pinned}, {elapsed:.0f}s",
    )


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    k = 0
    while checked < 50:
        k += 1
        dim = (k % 3) + 2  # d in {2, 3, 4}
        inst = en.random_instance(dim, seed=9_000 + k, kind="real-gaussian")
        w = rng.normal(0.0, 0.6, (dim, dim))
        try:
            g = en.two_layer_gradient(w, inst, "sigmoid")
        except en.NearSingularError:
            continue
        ref = central_difference(
            lambda v: en.two_layer_objective(v, inst, "sigmoid"), w
        )
        worst = max(
            worst,
            float(np.linalg.norm(g - ref) / max(np.linalg.norm(ref), 1.0)),
        )
        checked += 1
    _announce(
        "7 gradient-correctness",
        worst <= 1e-5 and checked == 50,
        f"{checked} sigmoid points d<=4, worst relative gap {worst:.2e}",
    )


def _exact_residuals(weights, inst):
    """Relative Frobenius residuals of the float weights at X1 and X2,
    evaluated with mpmath's exponential at 50 digits."""

    def mp(a):
        return mpmath.matrix(np.asarray(a).tolist())

    with mpmath.workdps(50):
        w1, w2, w3 = mp(weights.w1), mp(weights.w2), mp(weights.w3)
        out = []
        for x, y in ((inst.x1, inst.y1), (inst.x2, inst.y2)):
            f = w3 * mpmath.expm(w2 * mpmath.expm(w1 * mp(x)))
            out.append(float(mpmath.mnorm(f - mp(y), "f") / mpmath.mnorm(mp(y), "f")))
    return out


def test_criterion_8_residuals_match_exact_oracle(monkeypatch):
    # The two battery misses at alpha = e (d = 4, seeds 40006 and 40034)
    # and five clean seeds at each of d = 2, 4, 8: every float residual
    # of verify must track the exact residual of the same weights, so a
    # miss cannot hide behind a residual that only measures rounding.
    # The solve refuses the two misses; with its floor at 0 it returns
    # their weights for verify.
    monkeypatch.setattr(en.solver, "LAYER_RCOND_FLOOR", 0.0)
    cases = [(4, 40_006), (4, 40_034)] + [
        (d, d * 10_000 + i) for d in (2, 4, 8) for i in range(5)
    ]
    worst_ratio = 1.0
    disagreements = []
    for d, seed in cases:
        inst = en.random_instance(d, seed=seed)
        weights = en.solve_three_layer(inst, alpha=BATTERY_ALPHA)
        rep = en.verify(weights, inst)
        exact = _exact_residuals(weights, inst)
        for got, want in zip((rep.residual1, rep.residual2), exact):
            if max(got, want) <= 1e-13:
                continue
            ratio = max(got / want, want / got) if min(got, want) > 0 else math.inf
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 10.0:
                disagreements.append((d, seed, got, want))
        if rep.passed != (max(exact) <= 1e-6):
            disagreements.append((d, seed, rep.passed, exact))
    _announce(
        "8 exact-residual-oracle",
        not disagreements,
        f"{len(cases)} instances d<=8, worst float/exact ratio {worst_ratio:.2f} "
        f"above 1e-13, disagreements {disagreements}",
    )


def test_criterion_9_one_layer_solves_one_equation(battery):
    # The paper's contrast: a single linear layer W = Y1 X1^-1 fits the
    # first pair exactly and misses the second, where the three-layer
    # network above fits both. W comes from numpy, not from expnet.
    rows, _ = battery
    worst_fit, misses = 0.0, {d: [] for d in DIMS}
    for d, per_dim in rows.items():
        for (inst, _, _) in per_dim:
            x1, x2, y1, y2 = inst.x1, inst.x2, inst.y1, inst.y2
            w = np.linalg.solve(x1.T, y1.T).T
            worst_fit = max(worst_fit, np.linalg.norm(w @ x1 - y1) / np.linalg.norm(y1))
            misses[d].append(np.linalg.norm(w @ x2 - y2) / np.linalg.norm(y2))
    least_miss = min(min(m) for m in misses.values())
    medians = ", ".join(f"d={d} {statistics.median(m):.2f}" for d, m in misses.items())
    _announce(
        "9 one-layer-one-equation",
        worst_fit <= 1e-10 and least_miss >= 0.5,
        f"worst fit at pair 1 {worst_fit:.1e}, least miss at pair 2 "
        f"{least_miss:.2f}, median miss {medians}",
    )


def test_criterion_10_alpha_near_one_fits_or_refuses(battery):
    # Near alpha = 1 the third layer expm(alpha/(alpha-1) L) magnifies the
    # error with which the forward map rebuilds its exponent at X1: most
    # battery instances cannot be fit in float there. Each solve must
    # pass verify at 1e-6 or raise NearSingularError, never return a miss.
    rows, _ = battery
    refused, misses, worst = [], [], 0.0
    for alpha in NEAR_ONE_ALPHAS:
        count = 0
        for per_dim in rows.values():
            for (inst, _, _) in per_dim:
                report, residual = _solved_residual(inst, alpha)
                if report is None:
                    count += 1
                elif residual > 1e-6:
                    misses.append((inst.dim, alpha, residual))
                else:
                    worst = max(worst, residual)
        refused.append(count)
    _announce(
        "10 alpha-near-one",
        not misses,
        f"alpha in {NEAR_ONE_ALPHAS}: refused {refused} of {len(DIMS) * PER_DIM}, "
        f"accepted misses {misses[:5]} ({len(misses)}), worst accepted {worst:.2e}",
    )
