import csv
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, experiment as xp, linalg, solver


def real_instance(dim, seed):
    return solver.random_instance(dim, seed=seed, kind="real-gaussian")


class TestActivations:
    def test_relu(self):
        p = np.array([[-2.0, 0.0], [3.0, -0.5]])
        assert_array_equal(xp.RELU.apply(p), [[0.0, 0.0], [3.0, 0.0]])
        # subgradient convention: derivative at 0 is 0
        assert_array_equal(xp.RELU.derivative(p), [[0.0, 0.0], [1.0, 0.0]])

    def test_sigmoid_matches_formula(self):
        p = np.linspace(-30, 30, 13).reshape(1, -1)
        expected = 1.0 / (1.0 + np.exp(-p))
        assert_allclose(xp.SIGMOID.apply(p), expected, rtol=1e-12)
        assert_allclose(
            xp.SIGMOID.derivative(p), expected * (1 - expected), rtol=1e-12
        )

    def test_sigmoid_saturation_is_finite(self):
        p = np.array([[-1000.0, 1000.0]])
        out = xp.SIGMOID.apply(p)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_identity(self):
        p = np.array([[1.5, -2.0]])
        assert_array_equal(xp.IDENTITY.apply(p), p)
        assert_array_equal(xp.IDENTITY.derivative(p), np.ones_like(p))

    def test_lookup(self):
        assert xp.get_activation("relu") is xp.RELU
        assert xp.get_activation(xp.SIGMOID) is xp.SIGMOID
        with pytest.raises(ValueError):
            xp.get_activation("tanh")

    def test_apply_activation_complex_guard(self):
        ok = np.array([[1.0 + 1e-14j, 2.0]])
        assert_allclose(xp.apply_activation(ok, "identity"), [[1.0, 2.0]])
        with pytest.raises(errors.ComplexInputError):
            xp.apply_activation(np.array([[1.0 + 1e-3j]]), "relu")


class TestScore:
    def test_identity_activation_pins_score_to_one(self):
        inst = real_instance(4, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            w = rng.normal(0, 0.5, (4, 4))
            s = xp.two_layer_s_score(w, inst, "identity")
            assert abs(s - 1.0) <= 1e-10

    def test_score_is_normalized_objective(self):
        inst = real_instance(3, seed=2)
        w = np.random.default_rng(1).normal(0, 0.5, (3, 3))
        n = xp.two_layer_objective(w, inst, "sigmoid")
        denom = xp.baseline_denominator(inst)
        assert xp.two_layer_s_score(w, inst, "sigmoid") == pytest.approx(n / denom)

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
            s = xp.two_layer_s_score(w, inst, "sigmoid")
            assert abs(s - num / den) <= 1e-12 * max(1.0, abs(s))

    def test_singular_activation_rejected(self):
        inst = real_instance(3, seed=3)
        # sigma(0 * X) is constant, hence rank one
        with pytest.raises(errors.ActivationSingularError):
            xp.two_layer_objective(np.zeros((3, 3)), inst, "sigmoid")
        with pytest.raises(errors.ActivationSingularError):
            xp.two_layer_objective(np.zeros((3, 3)), inst, "relu")

    def test_zero_baseline_rejected(self):
        x1 = np.diag([2.0, 3.0])
        x2 = np.eye(2)
        y2 = np.diag([1.0, 4.0])
        y1 = y2 @ np.linalg.inv(x2) @ x1  # makes the baseline exactly 0
        inst = solver.make_instance(x1, x2, y1, y2)
        with pytest.raises(errors.InstanceRejectedError):
            xp.baseline_denominator(inst)

    def test_complex_instance_rejected(self):
        inst = solver.random_instance(3, seed=4)  # complex entries
        with pytest.raises(errors.ComplexInputError):
            xp.two_layer_objective(np.eye(3), inst, "sigmoid")


class TestGradient:
    def finite_difference(self, w, inst, activation, h=1e-6):
        # test-local central differences, independent of the package's
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp = w.copy()
                wp[i, j] += h
                wm = w.copy()
                wm[i, j] -= h
                g[i, j] = (
                    xp.two_layer_objective(wp, inst, activation)
                    - xp.two_layer_objective(wm, inst, activation)
                ) / (2 * h)
        return g

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_matches_finite_differences(self, activation):
        # relu trips ActivationSingularError on many draws (zeroed rows),
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
            except errors.ActivationSingularError:
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
        h = 1e-6
        g_s = np.zeros_like(w)
        for i in range(3):
            for j in range(3):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                g_s[i, j] = (
                    xp.two_layer_s_score(wp, inst, "sigmoid")
                    - xp.two_layer_s_score(wm, inst, "sigmoid")
                ) / (2 * h)
        ref = g_obj / denom
        assert np.linalg.norm(g_s - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)

    def test_package_fd_mode_agrees(self):
        inst = real_instance(3, seed=6)
        w = np.random.default_rng(3).normal(0, 0.5, (3, 3))
        g = xp.two_layer_gradient(w, inst, "sigmoid")
        gfd = xp.two_layer_gradient_fd(w, inst, "sigmoid", step=1e-6)
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
        with pytest.raises(ValueError):
            xp.ExperimentConfig(dim=4, gradient_mode="autodiff")


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

    @pytest.mark.parametrize("mode", xp.GRADIENT_MODES)
    def test_descent_factors_over_the_reals(self, monkeypatch, mode):
        dtypes = []

        def recording_lu_factor(a):
            factors = linalg.lu_factor(a)
            dtypes.append(factors.lu.dtype)
            return factors

        monkeypatch.setattr(xp, "lu_factor", recording_lu_factor)
        xp.run_experiment(
            xp.ExperimentConfig(dim=3, steps=5, seeds=(1, 2), gradient_mode=mode)
        )
        assert dtypes and all(dtype == np.float64 for dtype in dtypes)

    def test_fd_mode_tracks_analytic(self):
        seeds = (3,)
        a = xp.run_experiment(
            xp.ExperimentConfig(dim=2, steps=10, seeds=seeds, gradient_mode="analytic")
        )
        b = xp.run_experiment(
            xp.ExperimentConfig(
                dim=2, steps=10, seeds=seeds, gradient_mode="finite-difference"
            )
        )
        assert_allclose(a.runs[0].s_values, b.runs[0].s_values, rtol=1e-5, atol=1e-8)

    def test_divergence_flag(self):
        # absurd learning rate blows the score up without overflowing
        cfg = xp.ExperimentConfig(
            dim=3, steps=12, seeds=(1, 2, 3, 4), learning_rate=50.0
        )
        try:
            trace = xp.run_experiment(cfg)
        except errors.MaxResampleError:
            return  # every start failed outright: also acceptable
        assert any(r.diverged for r in trace.runs) or all(
            r.final_s <= xp.DIVERGENCE_FACTOR * r.initial_s for r in trace.runs
        )

    def test_resample_exhaustion(self):
        # no Gaussian draw has rcond anywhere near 1, so admission starves
        cfg = xp.ExperimentConfig(dim=3, steps=5, seeds=(1,), rcond_floor=0.999)
        with pytest.raises(errors.MaxResampleError):
            xp.run_experiment(cfg)

    def test_mean_progress_and_rare_divergence(self):
        # averaged over the default seeds, descent at the default rate
        # makes progress and divergence stays the exception
        for activation in ("sigmoid", "relu"):
            cfg = xp.ExperimentConfig(dim=4, activation=activation, steps=200)
            trace = xp.run_experiment(cfg)
            initials = [r.initial_s for r in trace.runs]
            assert sum(trace.final_s) <= sum(initials)
            assert trace.divergent_count() < 0.2 * len(trace.runs)

    def test_final_s_matches_runs(self):
        cfg = xp.ExperimentConfig(dim=3, steps=6, seeds=(1, 2, 3))
        trace = xp.run_experiment(cfg)
        assert trace.final_s == tuple(r.s_values[-1] for r in trace.runs)


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

    def test_csv_bytes_deterministic(self, tmp_path):
        cfg = xp.ExperimentConfig(dim=3, steps=8, seeds=(4,))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        xp.write_trace_csv(xp.run_experiment(cfg), p1)
        xp.write_trace_csv(xp.run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
