import csv
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, experiment as xp, linalg, solver

from conftest import central_difference


def real_instance(dim, seed):
    return solver.random_instance(dim, seed=seed, kind="real-gaussian")


class TestActivations:
    def test_relu(self):
        p = np.array([[-2.0, 0.0], [3.0, -0.5]])
        assert_array_equal(xp.RELU.apply(p), [[0.0, 0.0], [3.0, 0.0]])
        # subgradient convention: derivative at 0 is 0
        assert_array_equal(
            xp.RELU.derivative(xp.RELU.apply(p)), [[0.0, 0.0], [1.0, 0.0]]
        )

    def test_sigmoid_matches_formula(self):
        # the sigmoid is scipy's expit, bit for bit
        from scipy.special import expit

        p = np.array([0.0, 1e-300, -1e-300, 40.0, -40.0, 745.0, -745.0, np.inf, -np.inf])
        expected = expit(p)
        # back to the state before the first call, which binds expit itself
        object.__setattr__(xp.SIGMOID, "apply", xp._first_sigmoid)
        first = xp.SIGMOID.apply(p)
        assert xp.SIGMOID.apply is expit
        for got in (first, xp.SIGMOID.apply(p), xp.SIGMOID.apply(p[::-1])[::-1]):
            assert_array_equal(got, expected, strict=True)
            assert got.tobytes() == expected.tobytes()

        p = np.linspace(-30, 30, 13).reshape(1, -1)
        expected = 1.0 / (1.0 + np.exp(-p))
        assert_allclose(
            xp.SIGMOID.derivative(xp.SIGMOID.apply(p)),
            expected * (1 - expected),
            rtol=1e-12,
        )

    def test_sigmoid_saturation_is_finite(self):
        p = np.array([[-1000.0, 1000.0]])
        out = xp.SIGMOID.apply(p)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_identity(self):
        p = np.array([[1.5, -2.0]])
        assert_array_equal(xp.IDENTITY.apply(p), p)
        assert_array_equal(
            xp.IDENTITY.derivative(xp.IDENTITY.apply(p)), np.ones_like(p)
        )

    def test_lookup(self):
        assert xp.get_activation("relu") is xp.RELU
        with pytest.raises(ValueError):
            xp.get_activation("tanh")
        # activations go by name only
        for other in (xp.SIGMOID, ["relu"]):
            with pytest.raises(ValueError):
                xp.get_activation(other)


def s_score(w, inst, activation):
    return xp.two_layer_objective(w, inst, activation) / xp.baseline_denominator(inst)


class TestScore:
    def test_identity_activation_pins_score_to_one(self):
        inst = real_instance(4, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.normal(0, 0.5, (4, 4))
            s = s_score(w, inst, "identity")
            assert abs(s - 1.0) <= 1e-10

    def test_score_matches_straight_line_reimplementation(self):
        # independent evaluation: numpy inv/norm straight off the formula
        inst = real_instance(4, seed=9)
        x1, x2, y1, y2 = (m.real for m in (inst.x1, inst.x2, inst.y1, inst.y2))
        rng = np.random.default_rng(11)
        for _ in range(5):
            w = rng.normal(0, 0.6, (4, 4))
            sig1 = 1.0 / (1.0 + np.exp(-(w @ x1)))
            sig2 = 1.0 / (1.0 + np.exp(-(w @ x2)))
            num = np.linalg.norm(y1 - y2 @ np.linalg.inv(sig2) @ sig1, "fro") ** 2
            den = np.linalg.norm(y1 - y2 @ np.linalg.inv(x2) @ x1, "fro") ** 2
            s = s_score(w, inst, "sigmoid")
            assert abs(s - num / den) <= 1e-12 * max(1.0, abs(s))

    def test_singular_activation_rejected(self):
        inst = real_instance(3, seed=3)
        # sigma(0 * X) is constant, hence rank one
        for activation in ("sigmoid", "relu"):
            with pytest.raises(errors.NearSingularError) as info:
                xp.two_layer_objective(np.zeros((3, 3)), inst, activation)
            assert info.value.rcond <= xp.ACTIVATION_RCOND_FLOOR

    def test_zero_baseline_rejected(self):
        x1 = np.diag([2.0, 3.0])
        x2 = np.eye(2)
        y2 = np.diag([1.0, 4.0])
        y1 = y2 @ np.linalg.inv(x2) @ x1  # makes the baseline exactly 0
        inst = solver.make_instance(x1, x2, y1, y2)
        with pytest.raises(errors.InstanceRejectedError):
            xp.baseline_denominator(inst)

    def test_rounding_imaginary_part_accepted(self):
        # a 1e-14 imaginary part is below COMPLEX_TOLERANCE and is dropped
        inst = real_instance(3, seed=2)
        w = np.random.default_rng(1).normal(0, 0.5, (3, 3))
        n = xp.two_layer_objective(w, inst, "sigmoid")
        assert xp.two_layer_objective(w + 1e-14j, inst, "sigmoid") == n

    def test_complex_instance_rejected(self):
        inst = solver.random_instance(3, seed=4)  # complex entries
        with pytest.raises(errors.ComplexInputError):
            xp.two_layer_objective(np.eye(3), inst, "sigmoid")


PUBLIC_PASSES = [xp.two_layer_objective, xp.two_layer_gradient]


class TestPublicPassOverflow:
    # an overflow anywhere in the public objective or gradient is an
    # OverflowError, and numpy prints no warning (each call runs with
    # warnings as errors)
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    @pytest.mark.parametrize("public_pass", PUBLIC_PASSES, ids=lambda f: f.__name__)
    def test_overflowing_products_raise(self, public_pass, activation):
        inst = real_instance(3, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                public_pass(np.full((3, 3), 1e308), inst, activation)

    @pytest.mark.parametrize("public_pass", PUBLIC_PASSES, ids=lambda f: f.__name__)
    def test_a_norm_past_float64_range_raises(self, public_pass):
        # W X2 itself is finite, but its 1-norm is past float64 range
        inst = real_instance(3, seed=1)
        w = (1e308 / np.abs(inst.x2.real).max()) * np.eye(3)
        assert np.isfinite(w @ inst.x2.real).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                public_pass(w, inst, "identity")
        assert isinstance(info.value.__cause__, ValueError)

    def test_an_overflow_in_the_gradient_pass_alone_raises(self):
        base = real_instance(3, seed=1)
        big = 3e152
        inst = solver.make_instance(base.x1, base.x2, big * base.y1, big * base.y2)
        w = np.random.default_rng(0).normal(0, 0.6, (3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(xp.two_layer_objective(w, inst, "sigmoid"))
            with pytest.raises(OverflowError):
                xp.two_layer_gradient(w, inst, "sigmoid")

    @pytest.mark.parametrize("public_pass", PUBLIC_PASSES, ids=lambda f: f.__name__)
    def test_bad_w_is_refused_before_the_pass(self, public_pass):
        inst = real_instance(3, seed=1)
        w = np.eye(3)
        w[1, 2] = np.inf
        with pytest.raises(ValueError, match="w entries must be finite"):
            public_pass(w, inst, "sigmoid")
        with pytest.raises(errors.DimensionError):
            public_pass(np.eye(2), inst, "sigmoid")


class TestGradient:
    def finite_difference(self, w, inst, activation):
        return central_difference(
            lambda v: xp.two_layer_objective(v, inst, activation), w
        )

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_matches_finite_differences(self, activation):
        # relu trips NearSingularError on many draws (zeroed rows),
        # so sample enough points that at least 8 survive
        rng = np.random.default_rng(7)
        checked = 0
        for k in range(30):
            inst = real_instance(3, seed=200 + k)
            w = rng.normal(0, 0.6, (3, 3))
            if activation == "relu":
                # central differences are invalid across the kink at 0
                pre = np.concatenate(
                    [(w @ inst.x1.real).ravel(), (w @ inst.x2.real).ravel()]
                )
                if np.min(np.abs(pre)) < 1e-4:
                    continue
            try:
                g = xp.two_layer_gradient(w, inst, activation)
                ref = self.finite_difference(w, inst, activation)
            except errors.NearSingularError:
                continue
            assert np.linalg.norm(g - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)
            checked += 1
        assert checked >= 8

    def test_identity_gradient_vanishes(self):
        inst = real_instance(4, seed=5)
        w = np.random.default_rng(2).normal(0, 0.5, (4, 4))
        g = xp.two_layer_gradient(w, inst, "identity")
        assert np.linalg.norm(g) < 1e-10

    def test_gradient_vanishes_at_exact_solution(self):
        # build Y1 so the residual at W is exactly zero: a global minimum
        rng = np.random.default_rng(17)
        x1 = rng.normal(0, 1, (3, 3))
        x2 = rng.normal(0, 1, (3, 3))
        y2 = rng.normal(0, 1, (3, 3))
        w = rng.normal(0, 0.6, (3, 3))
        sig = xp.SIGMOID.apply
        y1 = y2 @ np.linalg.inv(sig(w @ x2)) @ sig(w @ x1)
        inst = solver.make_instance(x1, x2, y1, y2)
        assert xp.two_layer_objective(w, inst, "sigmoid") <= 1e-20
        g = xp.two_layer_gradient(w, inst, "sigmoid")
        assert np.linalg.norm(g) <= 1e-8

    def test_gradient_parallel_to_score_gradient(self):
        # the baseline denominator does not depend on W, so the gradient
        # of s is the objective gradient divided by that constant
        inst = real_instance(3, seed=8)
        w = np.random.default_rng(5).normal(0, 0.5, (3, 3))
        denom = xp.baseline_denominator(inst)
        g_obj = xp.two_layer_gradient(w, inst, "sigmoid")
        g_s = central_difference(lambda v: s_score(v, inst, "sigmoid"), w)
        ref = g_obj / denom
        assert np.linalg.norm(g_s - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)

    def test_package_fd_mode_agrees(self):
        inst = real_instance(3, seed=6)
        w = np.random.default_rng(3).normal(0, 0.5, (3, 3))
        g = xp.two_layer_gradient(w, inst, "sigmoid")
        gfd = central_difference(
            lambda v: xp.two_layer_objective(v, inst, "sigmoid"), w
        )
        assert_allclose(g, gfd, rtol=0, atol=1e-5 * max(1.0, np.abs(gfd).max()))


class TestConfig:
    def test_default_learning_rate_scales_with_dim(self):
        cfg = xp.ExperimentConfig(dim=8)
        assert cfg.effective_learning_rate == pytest.approx(8e-3)
        cfg = xp.ExperimentConfig(dim=8, learning_rate=0.5)
        assert cfg.effective_learning_rate == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            xp.ExperimentConfig(dim=0)
        with pytest.raises(ValueError):
            xp.ExperimentConfig(dim=4, steps=-1)
        with pytest.raises(ValueError):
            xp.ExperimentConfig(dim=4, seeds=())
        with pytest.raises(ValueError):
            xp.ExperimentConfig(dim=4, activation="tanh")

    @pytest.mark.parametrize("seed", [-3, -1.0, True, 1.9, math.nan, math.inf, "1"])
    def test_seeds_must_be_nonnegative_integers(self, seed):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(seed))}$"):
            xp.ExperimentConfig(dim=2, steps=3, seeds=(1, seed))

    @pytest.mark.parametrize("seeds", [5, 5.0, None])
    def test_seeds_must_be_iterable(self, seeds):
        with pytest.raises(ValueError, match=f"^seeds must be .*got {re.escape(repr(seeds))}$"):
            xp.ExperimentConfig(dim=2, steps=3, seeds=seeds)

    def test_repeated_seed_is_refused(self):
        # checked after conversion, so 1 and 1.0 are the same seed
        with pytest.raises(ValueError, match="^seeds must be distinct, got 1 more than once$"):
            xp.ExperimentConfig(dim=2, steps=3, seeds=(1, 2, 1.0))

    @pytest.mark.parametrize("dim", [0, -2, 2.5, True, math.nan, math.inf, "2"])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=f"^dim .*got {re.escape(repr(dim))}$"):
            xp.ExperimentConfig(dim=dim, steps=3, seeds=(1,))

    @pytest.mark.parametrize("steps", [-1, 1.5, True, False, math.nan, math.inf, "3"])
    def test_steps_must_be_a_nonnegative_integer(self, steps):
        with pytest.raises(ValueError, match=f"^steps .*got {re.escape(repr(steps))}$"):
            xp.ExperimentConfig(dim=2, steps=steps, seeds=(1,))

    def test_integral_dim_and_steps_become_ints(self):
        cfg = xp.ExperimentConfig(dim=3.0, steps=np.int64(4), seeds=(1,))
        assert (cfg.dim, cfg.steps) == (3, 4)
        assert type(cfg.dim) is int and type(cfg.steps) is int
        assert len(xp.run_experiment(cfg).runs[0].s_values) == 5

    def test_integral_seeds_become_ints(self):
        cfg = xp.ExperimentConfig(dim=2, seeds=(2.0, np.int64(3), 0))
        assert cfg.seeds == (2, 3, 0)
        assert all(type(seed) is int for seed in cfg.seeds)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, 0.0, -1e-3])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            xp.ExperimentConfig(dim=4, learning_rate=lr)

    @pytest.mark.parametrize(
        "lr", [True, np.True_, "0.1", 1 + 0j], ids=["bool", "numpy-bool", "str", "complex"]
    )
    def test_learning_rate_must_be_a_real_number(self, lr):
        with pytest.raises(ValueError, match="^learning_rate must be positive and finite"):
            xp.ExperimentConfig(dim=4, learning_rate=lr)

    def test_real_learning_rates_are_accepted(self):
        for lr in (2, np.float32(0.5), np.int64(3)):
            assert xp.ExperimentConfig(dim=4, learning_rate=lr).learning_rate == lr


class TestRunExperiment:
    def test_descent_makes_progress(self):
        cfg = xp.ExperimentConfig(dim=4, steps=150, seeds=(1, 2, 3, 4))
        trace = xp.run_experiment(cfg)
        assert len(trace.runs) == 4
        for run in trace.runs:
            assert len(run.s_values) == cfg.steps + 1
        assert trace.median_final() < trace.median_initial()

    def test_deterministic(self):
        cfg = xp.ExperimentConfig(dim=3, steps=40, seeds=(5, 6))
        a = xp.run_experiment(cfg)
        b = xp.run_experiment(cfg)
        for ra, rb in zip(a.runs, b.runs):
            assert ra.s_values == rb.s_values
            assert ra.baseline_denominator == rb.baseline_denominator

    def test_seed_isolation(self):
        # a seed's trajectory does not depend on its neighbors
        wide = xp.run_experiment(xp.ExperimentConfig(dim=3, steps=20, seeds=(1, 2, 3)))
        solo = xp.run_experiment(xp.ExperimentConfig(dim=3, steps=20, seeds=(2,)))
        assert wide.runs[1].s_values == solo.runs[0].s_values

    def test_identity_stays_pinned_every_step(self):
        cfg = xp.ExperimentConfig(dim=4, activation="identity", steps=30, seeds=(1,))
        run = xp.run_experiment(cfg).runs[0]
        assert all(abs(s - 1.0) <= 1e-10 for s in run.s_values)

    def test_zero_steps_allowed(self):
        cfg = xp.ExperimentConfig(dim=3, steps=0, seeds=(1, 2))
        trace = xp.run_experiment(cfg)
        for run in trace.runs:
            assert len(run.s_values) == 1

    def test_descent_factors_over_the_reals(self, monkeypatch):
        dtypes = []

        def recording_lu_factor(a):
            factors = linalg._lu_factor(a)
            dtypes.append(factors[0].dtype)
            return factors

        monkeypatch.setattr(xp, "_lu_factor", recording_lu_factor)
        xp.run_experiment(xp.ExperimentConfig(dim=3, steps=5, seeds=(1, 2)))
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_traces_match_the_scipy_lu_route(self, monkeypatch, activation):
        # the LU layer calls LAPACK directly; the same routines reached
        # through scipy.linalg's wrappers must give byte-identical traces
        calls = {"factor": 0, "solve": 0, "inverse": 0}

        def scipy_lu_factor(a):
            calls["factor"] += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
            anorm = np.linalg.norm(a, 1)
            if anorm == 0.0 or np.any(np.diagonal(lu) == 0):
                return lu, piv, 0.0
            gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
            rcond, _ = gecon(lu, anorm, norm="1")
            return lu, piv, float(rcond)

        def scipy_lu_solve(lu, piv, b, trans):
            calls["solve"] += 1
            return scipy.linalg.lu_solve((lu, piv), b, trans=trans)

        def scipy_inverse(a):
            calls["inverse"] += 1
            lu, piv, _ = scipy_lu_factor(a)
            return scipy_lu_solve(lu, piv, np.eye(a.shape[0]), 0)

        cfg = xp.ExperimentConfig(dim=4, activation=activation, steps=40, seeds=(1, 2, 3))
        direct = xp.run_experiment(cfg)
        monkeypatch.setattr(xp, "_lu_factor", scipy_lu_factor)
        monkeypatch.setattr(xp, "_lu_solve", scipy_lu_solve)
        monkeypatch.setattr(xp, "inverse", scipy_inverse)
        reference = xp.run_experiment(cfg)
        # a descent that bypassed the stand-ins would compare with itself
        assert all(calls.values()), calls
        for got, ref in zip(direct.runs, reference.runs):
            got_bytes = np.asarray(got.s_values).tobytes()
            assert got_bytes == np.asarray(ref.s_values).tobytes()
            assert got.w_resamples == ref.w_resamples

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_trace_matches_the_pinned_step(self, activation, dim):
        # the step as written before the descent was trimmed, kept verbatim
        # on linalg.lu_factor and lu_solve and stepped here by hand: every
        # float operation, and so every trace byte, must be the same
        @dataclass(frozen=True)
        class Forward:
            s1: np.ndarray
            s2: np.ndarray
            factors: object
            m: np.ndarray
            r: np.ndarray

            @property
            def objective(self) -> float:
                return float(np.sum(self.r * self.r))

        def forward(w, quad, activation, rcond_floor):
            x1, x2, y1, y2 = quad
            s1 = activation.apply(w @ x1)
            s2 = activation.apply(w @ x2)
            factors = linalg.lu_factor(s2)
            if factors.rcond <= rcond_floor:
                raise errors.NearSingularError("singular", factors.rcond)
            m = linalg.lu_solve(factors, s1)
            r = y1 - y2 @ m
            return Forward(s1=s1, s2=s2, factors=factors, m=m, r=r)

        def gradient_from_forward(fwd, quad, activation):
            x1, x2, y1, y2 = quad
            u = linalg.lu_solve(fwd.factors, y2.T @ fwd.r, trans=1)
            v = u @ fwd.m.T
            return 2.0 * (
                (v * activation.derivative(fwd.s2)) @ x2.T
                - (u * activation.derivative(fwd.s1)) @ x1.T
            )

        def descend(w0, quad, denom, lr, steps, act):
            w = np.array(w0, dtype=np.float64, copy=True)
            series = []
            for step in range(steps + 1):
                fwd = forward(w, quad, act, xp.ACTIVATION_RCOND_FLOOR)
                s = fwd.objective / denom
                if not math.isfinite(s):
                    raise FloatingPointError(step)
                series.append(s)
                if step == steps:
                    break
                grad = gradient_from_forward(fwd, quad, act)
                if not np.all(np.isfinite(grad)):
                    raise FloatingPointError(step)
                w -= (lr / denom) * grad
            return series

        def pinned_run(seed, cfg):
            rng = np.random.Generator(np.random.PCG64(seed))
            for instance_resamples in range(solver.MAX_RESAMPLES):
                inst = solver.draw_instance(rng, dim, "real-gaussian")
                if inst.admitted(xp.ACTIVATION_RCOND_FLOOR):
                    try:
                        denom = xp.baseline_denominator(inst)
                        break
                    except errors.InstanceRejectedError:
                        pass
            quad = tuple(
                np.ascontiguousarray(m.real) for m in (inst.x1, inst.x2, inst.y1, inst.y2)
            )
            act = xp.get_activation(activation)
            for w_resamples in range(solver.MAX_RESAMPLES):
                w0 = rng.normal(0.0, math.sqrt(1.0 / dim), size=(dim, dim))
                try:
                    series = descend(
                        w0, quad, denom, cfg.effective_learning_rate, cfg.steps, act
                    )
                except (errors.NearSingularError, FloatingPointError):
                    continue
                return series, w_resamples, instance_resamples

        cfg = xp.ExperimentConfig(dim=dim, activation=activation, steps=200, seeds=(1, 2))
        for run in xp.run_experiment(cfg).runs:
            series, w_resamples, instance_resamples = pinned_run(run.seed, cfg)
            assert np.asarray(run.s_values).tobytes() == np.asarray(series).tobytes()
            assert (run.w_resamples, run.instance_resamples) == (
                w_resamples, instance_resamples
            )

    def test_one_factor_and_two_solves_per_step(self, monkeypatch):
        calls = {"_lu_factor": 0, "_lu_solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(xp, "_lu_factor", counted("_lu_factor", linalg._lu_factor))
        monkeypatch.setattr(xp, "_lu_solve", counted("_lu_solve", linalg._lu_solve))
        steps = 25
        run = xp.run_experiment(xp.ExperimentConfig(dim=4, steps=steps, seeds=(1,))).runs[0]
        assert run.w_resamples == 0
        assert calls == {"_lu_factor": steps + 1, "_lu_solve": 2 * steps + 1}

    def test_fd_mode_tracks_analytic(self):
        # a reference descent stepped with the finite-difference gradient,
        # from seed 3's instance and start redrawn off the same PCG64 stream
        dim, steps, seed = 2, 10, 3
        cfg = xp.ExperimentConfig(dim=dim, steps=steps, seeds=(seed,))
        run = xp.run_experiment(cfg).runs[0]
        assert run.instance_resamples == 0 and run.w_resamples == 0
        rng = np.random.Generator(np.random.PCG64(seed))
        inst = solver.draw_instance(rng, dim, "real-gaussian")
        w = rng.normal(0.0, math.sqrt(1.0 / dim), size=(dim, dim))
        denom = xp.baseline_denominator(inst)
        step = cfg.effective_learning_rate / denom
        reference = [s_score(w, inst, "sigmoid")]
        for _ in range(steps):
            w = w - step * central_difference(
                lambda v: xp.two_layer_objective(v, inst, "sigmoid"), w
            )
            reference.append(s_score(w, inst, "sigmoid"))
        assert_allclose(run.s_values, reference, rtol=1e-5, atol=1e-8)

    def test_divergence_flag(self):
        # one relu step at this rate takes seed 3's score from 0.6748 to
        # 18.20, past DIVERGENCE_FACTOR times its start, without overflowing
        cfg = xp.ExperimentConfig(
            dim=4, activation="relu", steps=1, seeds=(3,), learning_rate=0.1
        )
        trace = xp.run_experiment(cfg)
        run = trace.runs[0]
        assert run.w_resamples == 0 and run.instance_resamples == 0
        assert_allclose(run.s_values, [0.6748, 18.20], rtol=1e-3)
        assert run.diverged and trace.divergent_count() == 1

    @pytest.mark.parametrize(
        "activation, dim, seeds",
        [("sigmoid", 2, (2, 4, 5)), ("relu", 3, tuple(range(1, 9)))],
    )
    def test_overflowing_starts_are_resampled(self, activation, dim, seeds):
        # at this rate the first update overflows on most starts, and
        # relu's sigma(W X2) can reach a 1-norm past float64 range; each
        # such start is a failed one, with no warning (the suite runs with
        # warnings as errors) and no ValueError escaping
        cfg = xp.ExperimentConfig(
            dim=dim, activation=activation, steps=20, seeds=seeds, learning_rate=1e307
        )
        trace = xp.run_experiment(cfg)
        assert sum(run.w_resamples for run in trace.runs) > 0
        for run in trace.runs:
            assert all(math.isfinite(s) for s in run.s_values)

    def test_overflow_on_every_start_exhausts_the_resamples(self):
        cfg = xp.ExperimentConfig(dim=2, steps=20, seeds=(5,), learning_rate=1e308)
        with pytest.raises(errors.MaxResampleError):
            xp.run_experiment(cfg)

    def test_resample_exhaustion(self, monkeypatch):
        # an admission rule that refuses every draw starves the sampler
        monkeypatch.setattr(solver.ProblemInstance, "admitted", lambda *_: False)
        cfg = xp.ExperimentConfig(dim=3, steps=5, seeds=(1,))
        with pytest.raises(errors.MaxResampleError):
            xp.run_experiment(cfg)

    def test_mean_progress_and_rare_divergence(self):
        # averaged over the default seeds, descent at the default rate
        # makes progress and divergence stays the exception
        for activation in ("sigmoid", "relu"):
            cfg = xp.ExperimentConfig(dim=4, activation=activation, steps=200)
            trace = xp.run_experiment(cfg)
            initials = [r.initial_s for r in trace.runs]
            assert sum(r.final_s for r in trace.runs) <= sum(initials)
            assert trace.divergent_count() < 0.2 * len(trace.runs)


class TestTraceFiles:
    def test_csv_and_sidecar(self, tmp_path):
        cfg = xp.ExperimentConfig(dim=3, steps=10, seeds=(1, 2))
        trace = xp.run_experiment(cfg)
        out = tmp_path / "trace.csv"
        sidecar = xp.write_trace_csv(trace, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "step", "s"]
        assert len(rows) == 1 + 2 * 11
        assert rows[1][:2] == ["1", "0"]
        assert float(rows[1][2]) == trace.runs[0].s_values[0]
        meta = json.loads((tmp_path / "trace.config.json").read_text())
        assert sidecar == str(tmp_path / "trace.config.json")
        assert meta["config"]["dim"] == 3
        assert meta["config"]["learning_rate"] == pytest.approx(3e-3)
        assert len(meta["summary"]["runs"]) == 2

    def test_activation_object_is_refused_by_the_config(self):
        # the config, its trace files and the run name the activation:
        # an Activation object, even one of ACTIVATIONS, is refused
        tanh = xp.Activation("tanh", np.tanh, lambda s: 1.0 - s * s)
        for activation in (xp.SIGMOID, tanh):
            with pytest.raises(ValueError, match="unknown activation"):
                xp.ExperimentConfig(dim=2, activation=activation, steps=3, seeds=(1,))

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = xp.ExperimentConfig(dim=3, steps=8, seeds=(4,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        xp.write_trace_csv(xp.run_experiment(cfg), p1)
        xp.write_trace_csv(xp.run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
