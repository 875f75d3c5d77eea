import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from expnet import errors, linalg, solver

from conftest import oracle_expm


def admitted_instance(dim, seed):
    return solver.random_instance(dim, seed=seed)


class TestInstances:
    def test_make_instance_computes_rconds(self):
        inst = solver.make_instance(
            np.diag([2.0, 3.0]), np.eye(2), 2 * np.eye(2), 3 * np.eye(2)
        )
        assert set(inst.rconds) == {"x1", "x2", "y1", "y2", "x1_minus_x2"}
        assert inst.admitted()
        assert inst.dim == 2

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionError):
            solver.make_instance(np.eye(2), np.eye(2), np.eye(3), np.eye(2))

    def test_equal_data_points_not_admitted(self):
        inst = solver.make_instance(np.eye(3), np.eye(3), np.eye(3), 2 * np.eye(3))
        assert inst.rconds["x1_minus_x2"] == 0.0
        assert not inst.admitted()

    def test_random_instance_deterministic_and_admitted(self):
        a = solver.random_instance(4, seed=5)
        b = solver.random_instance(4, seed=5)
        for name in ("x1", "x2", "y1", "y2"):
            assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.admitted()

    def test_random_instance_exhaustion(self, monkeypatch):
        # an admission rule that refuses every draw starves the sampler
        monkeypatch.setattr(solver.ProblemInstance, "admitted", lambda *_: False)
        with pytest.raises(errors.MaxResampleError):
            solver.random_instance(4, seed=1)

    def test_instance_file_roundtrip(self, tmp_path):
        inst = admitted_instance(3, seed=8)
        manifest = solver.save_instance(tmp_path / "inst", inst)
        again = solver.load_instance(manifest)
        for name in ("x1", "x2", "y1", "y2"):
            assert_array_equal(getattr(again, name), getattr(inst, name))
        assert again.rconds == pytest.approx(inst.rconds)
        # loading by directory works too
        by_dir = solver.load_instance(tmp_path / "inst")
        assert_array_equal(by_dir.x1, inst.x1)


class TestScalarExample:
    """Hand-checkable d=1 case: X1=2, X2=1, Y1=3, Y2=6, alpha=2.

    Then W1 = ln2/(2-1) = ln2, exp(W1*2)=4, exp(W1*1)=2,
    Z = log(2 * 6/3) = 2ln2, W2 = (2ln2 - ln2)/(1-2) / exp(ln2 * 1)
    = -ln2/2, W3 = 3 exp(ln2/2 * 4)^... = 12, f(2)=3, f(1)=6.
    """

    def setup_method(self):
        self.inst = solver.make_instance([[2.0]], [[1.0]], [[3.0]], [[6.0]])
        self.w = solver.solve_three_layer(self.inst, alpha=2.0)

    def test_weights_closed_form(self):
        assert self.w.w1[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)
        assert self.w.w2[0, 0] == pytest.approx(-math.log(2.0) / 2.0, abs=1e-12)
        assert self.w.w3[0, 0] == pytest.approx(12.0, abs=1e-12)

    def test_interpolates_exactly(self):
        f1 = solver.eval_three_layer(self.w, self.inst.x1)
        f2 = solver.eval_three_layer(self.w, self.inst.x2)
        assert abs(f1[0, 0] - 3.0) <= 1e-12
        assert abs(f2[0, 0] - 6.0) <= 1e-12


class TestSolveThreeLayer:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_interpolates_random_instances(self, dim):
        inst = admitted_instance(dim, seed=dim * 7 + 1)
        w = solver.solve_three_layer(inst)
        rep = solver.verify(w, inst, tol=1e-8)
        assert rep.passed, (rep.residual1, rep.residual2)

    def test_forward_map_against_oracle_expm(self):
        # dual route: weights from the package, evaluation via the
        # independent Taylor-with-squaring exponential
        inst = admitted_instance(4, seed=21)
        w = solver.solve_three_layer(inst)
        f1 = w.w3 @ oracle_expm(w.w2 @ oracle_expm(w.w1 @ inst.x1))
        f2 = w.w3 @ oracle_expm(w.w2 @ oracle_expm(w.w1 @ inst.x2))
        assert np.linalg.norm(f1 - inst.y1) <= 1e-8 * np.linalg.norm(inst.y1)
        assert np.linalg.norm(f2 - inst.y2) <= 1e-8 * np.linalg.norm(inst.y2)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, math.e, 10.0])
    def test_alpha_freedom(self, alpha):
        inst = admitted_instance(4, seed=33)
        w = solver.solve_three_layer(inst, alpha=alpha)
        assert solver.verify(w, inst, tol=1e-8).passed

    def test_branch_freedom(self):
        # any logarithm branch yields a valid interpolant
        inst = admitted_instance(3, seed=44)
        for offset in (-1, 0, 1, 3):
            w = solver.solve_three_layer(inst, branch=offset)
            rep = solver.verify(w, inst, tol=1e-7)
            assert rep.passed, (offset, rep.residual1, rep.residual2)

    def test_residual1_reports_a_miss_at_x1(self):
        # battery instance whose weights miss Y1 by 7e-2 in 50-digit
        # arithmetic at alpha = e; residual1 must not read as rounding
        inst = admitted_instance(4, seed=40006)
        rep = solver.verify(solver.solve_three_layer(inst, alpha=math.e), inst)
        assert rep.residual1 > 1e-6

    def test_identity_checks_small(self):
        inst = admitted_instance(5, seed=55)
        rep = solver.verify(solver.solve_three_layer(inst), inst)
        for name, value in rep.identity_checks.items():
            if name == "difference_rcond":
                assert value > 0.0
            else:
                assert value <= 1e-7, (name, value)

    def test_rejected_instance(self):
        inst = solver.make_instance(np.eye(3), np.eye(3), np.eye(3), 2 * np.eye(3))
        with pytest.raises(errors.InstanceRejectedError):
            solver.solve_three_layer(inst)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 1.0, 1.0005])
    def test_alpha_validation(self, alpha):
        inst = admitted_instance(2, seed=66)
        with pytest.raises(ValueError):
            solver.solve_three_layer(inst, alpha=alpha)
        with pytest.raises(ValueError):
            solver.compute_z(inst.y1, inst.y2, alpha)

    def test_z_satisfies_definition(self):
        inst = admitted_instance(4, seed=77)
        from expnet.matfuncs import expm

        z = solver.compute_z(inst.y1, inst.y2, 2.0)
        target = 2.0 * (linalg.inverse(inst.y1) @ inst.y2)
        assert_allclose(expm(z), target, rtol=1e-10, atol=1e-12)

    def test_eval_dimension_mismatch(self):
        inst = admitted_instance(2, seed=88)
        w = solver.solve_three_layer(inst)
        with pytest.raises(errors.DimensionError):
            solver.eval_three_layer(w, np.eye(3))

    def test_verify_dimension_mismatch(self):
        w = solver.solve_three_layer(admitted_instance(3, seed=88))
        with pytest.raises(errors.DimensionError):
            solver.verify(w, admitted_instance(2, seed=88))


class TestVerifyRobustness:
    def test_verify_never_raises_on_bad_weights(self):
        inst = admitted_instance(2, seed=9)
        w = solver.solve_three_layer(inst)
        bad = solver.ThreeLayerWeights(
            w1=linalg.cmatrix(np.full((2, 2), 1e7)),
            w2=w.w2,
            w3=w.w3,
            alpha=w.alpha,
            z=w.z,
        )
        rep = solver.verify(bad, inst)
        assert not rep.passed
        assert rep.residual1 == math.inf or rep.residual1 > rep.tol

    def test_only_second_forward_pass_overflows(self):
        # expm(W1 X1) = e^-10 but expm(W1 X2) = e^10, so W2 expm(W1 X2)
        # has norm 2e4 and its exponential overflows
        inst = solver.make_instance([[-1.0]], [[1.0]], [[3.0]], [[6.0]])
        w1 = np.array([[10.0]], dtype=complex)
        w2 = np.array([[1.0]], dtype=complex)
        w3 = inst.y1 * np.exp(-math.exp(-10.0))
        w = solver.ThreeLayerWeights(w1=w1, w2=w2, w3=w3, alpha=2.0, z=w2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.verify(w, inst)
        assert rep.residual1 <= 1e-12
        assert rep.residual2 == math.inf
        assert not rep.passed

    def test_expm_calls_per_interpolant(self, monkeypatch):
        # solve forms two exponentials; verify forms expm(W1 Xi) once
        # each and reuses them for its forward passes, then expm(Z): five more
        calls = []
        real_expm = solver.expm

        def counting_expm(a):
            calls.append(a.shape)
            return real_expm(a)

        monkeypatch.setattr(solver, "expm", counting_expm)
        inst = admitted_instance(4, seed=14)
        solver.verify(solver.solve_three_layer(inst), inst)
        assert len(calls) == 7

    def test_weights_alpha_validated(self):
        w = solver.solve_three_layer(admitted_instance(2, seed=10))
        with pytest.raises(ValueError):
            solver.ThreeLayerWeights(
                w1=w.w1, w2=w.w2, w3=w.w3, alpha=1.0, z=w.z
            )

    def test_weights_share_one_shape(self):
        # built in the library, not read from JSON: a 3 x 3 w2 among
        # 2 x 2 weights is refused where the record is made
        w = solver.solve_three_layer(admitted_instance(2, seed=1))
        with pytest.raises(errors.DimensionError):
            solver.ThreeLayerWeights(
                w1=w.w1, w2=linalg.cmatrix(np.eye(3)), w3=w.w3, alpha=w.alpha, z=w.z
            )


class TestSerialization:
    def test_weights_roundtrip(self, tmp_path):
        w = solver.solve_three_layer(admitted_instance(3, seed=12))
        path = tmp_path / "w.json"
        solver.save_weights(path, w)
        again = solver.load_weights(path)
        for name in ("w1", "w2", "w3", "z"):
            assert_array_equal(getattr(again, name), getattr(w, name))
        assert again.alpha == w.alpha

    def test_report_json_shape(self):
        inst = admitted_instance(2, seed=13)
        rep = solver.verify(solver.solve_three_layer(inst), inst)
        obj = solver.report_to_json(rep)
        assert json.dumps(obj)  # plain-JSON serializable
        assert obj["pass"] is True
        assert obj["admitted"] is True
        assert set(obj["identity_checks"]) == {
            "scale_identity",
            "commutant_form",
            "difference_rcond",
            "z_definition",
        }
