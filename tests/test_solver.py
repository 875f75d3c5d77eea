import dataclasses
import json
import math
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from expnet import cli, errors, experiment, linalg, matfuncs, solver

from conftest import oracle_expm, outer_overflow_instance, random_matrix


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

    def test_instance_keeps_the_factors_behind_its_rconds(self):
        inst = admitted_instance(4, seed=3)
        assert inst.factors.keys() == inst.rconds.keys()
        for key, matrix in (("y1", inst.y1), ("x1_minus_x2", inst.x1 - inst.x2)):
            fresh = linalg.lu_factor(matrix)
            assert inst.factors[key].lu.tobytes() == fresh.lu.tobytes()
            assert inst.factors[key].rcond == inst.rconds[key] == fresh.rcond
        # derived data: left out of repr, and the rconds are read from it
        assert "factors" not in repr(inst)
        assert all(inst.rconds[k] == inst.factors[k].rcond for k in inst.factors)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: solver.random_instance(3, 1),
            lambda: solver.solve_three_layer(solver.random_instance(3, 1)),
            lambda: linalg.lu_factor(np.eye(3)),
            lambda: linalg.schur_decompose(np.eye(3) + 0j),
        ],
        ids=["instance", "weights", "lu", "schur"],
    )
    def test_array_records_compare_and_hash_by_identity(self, make):
        a, b = make(), make()
        assert a == a and a != b and len({a, b, a}) == 2

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

    @pytest.mark.parametrize("dim", [0, -2, 2.5, True, math.nan, math.inf, "3"])
    def test_random_instance_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match=f"^dim .*got {re.escape(repr(dim))}$"):
            solver.random_instance(dim, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, math.nan, math.inf, "1"])
    def test_random_instance_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"^seed .*got {re.escape(repr(seed))}$"):
            solver.random_instance(3, seed=seed)

    def test_random_instance_takes_integral_floats(self):
        a = solver.random_instance(3.0, seed=np.int64(5))
        b = solver.random_instance(3, seed=5)
        for name in ("x1", "x2", "y1", "y2"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_instance_file_roundtrip(self, tmp_path, decodes):
        inst = admitted_instance(3, seed=8)
        manifest = solver.save_instance(tmp_path / "inst", inst)
        linalg._decoded.clear()  # so the load runs the decoder on each file
        again = solver.load_instance(manifest)
        assert decodes["n"] == 4
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

    @pytest.mark.parametrize("branch", [0.5, True])
    def test_branch_must_be_an_integer(self, branch):
        # branch 0.5 used to give weights that miss Y2 by a relative 2.0
        with pytest.raises(ValueError, match="^branch "):
            solver.solve_three_layer(admitted_instance(3, seed=5), branch=branch)

    def test_integral_branch_values_give_the_same_weights(self):
        inst = admitted_instance(3, seed=5)
        ref = solver.solve_three_layer(inst, branch=1)
        for branch in (1.0, np.int64(1)):
            w = solver.solve_three_layer(inst, branch=branch)
            for name in ("w1", "w2", "w3", "z"):
                assert getattr(w, name).tobytes() == getattr(ref, name).tobytes()

    def test_residual1_reports_a_miss_at_x1(self, monkeypatch):
        # battery instance whose weights miss Y1 by 7e-2 in 50-digit
        # arithmetic at alpha = e; residual1 must not read as rounding.
        # The solve refuses it unless its floor is 0.
        monkeypatch.setattr(solver, "LAYER_RCOND_FLOOR", 0.0)
        inst = admitted_instance(4, seed=40006)
        rep = solver.verify(solver.solve_three_layer(inst, alpha=math.e), inst)
        assert rep.residual1 > 1e-6

    @pytest.mark.parametrize(
        "seed, alpha",
        [(40006, math.e), (40006, 0.5), (40006, 2.0), (40006, 4.0), (40034, math.e)],
    )
    def test_ill_conditioned_layers_are_refused(self, seed, alpha):
        # battery instances whose weights miss the labels at these scales
        # (and overflow the forward map at X1 for alpha = 4): expm(-W1 X2)
        # is near-singular, and the solve says so instead of returning them
        inst = admitted_instance(4, seed=seed)
        with pytest.raises(errors.NearSingularError, match=r"^expm\(-W1 X2\) .* floor") as info:
            solver.solve_three_layer(inst, alpha=alpha)
        assert info.value.rcond <= solver.LAYER_RCOND_FLOOR

    def test_first_layer_is_refused_before_the_logarithm(self, monkeypatch):
        # expm(-W1 X2) needs no logarithm, so its gate runs first and an
        # instance it refuses costs no logm
        def no_logm(*args):
            raise AssertionError("logm was called")

        monkeypatch.setattr(solver, "logm", no_logm)
        inst = admitted_instance(4, seed=40006)
        with pytest.raises(errors.NearSingularError, match=r"^expm\(-W1 X2\) "):
            solver.solve_three_layer(inst, alpha=math.e)

    def test_third_layer_near_alpha_one_is_refused(self, monkeypatch):
        # at alpha = 1.01 the outer exponential expm(101 L) of this instance
        # is near-singular, and its weights miss the labels by 1e48
        inst = admitted_instance(2, seed=25000)
        name = re.escape("expm(alpha/(alpha-1) L)")
        with pytest.raises(errors.NearSingularError, match=f"^{name} .* floor") as info:
            solver.solve_three_layer(inst, alpha=1.01)
        assert info.value.rcond <= solver.LAYER_RCOND_FLOOR
        monkeypatch.setattr(solver, "LAYER_RCOND_FLOOR", 0.0)
        rep = solver.verify(solver.solve_three_layer(inst, alpha=1.01), inst)
        assert rep.residual1 > 1e40

    def test_outer_exponential_past_float_range_is_an_overflow(self):
        # expm(alpha/(alpha-1) L) has finite entries and W3 is finite
        # (about 1.6e298), but the third-layer gate needs the 1-norm of the
        # exponential, which is past float range; the first gate's
        # refusal, an OverflowError, applies
        inst = outer_overflow_instance()
        assert inst.admitted()
        name = re.escape("expm(alpha/(alpha-1) L), the right factor of w3,")
        with pytest.raises(OverflowError, match=f"^{name} has a 1-norm past float range$"):
            solver.solve_three_layer(inst)

    def test_identity_checks_small(self):
        inst = admitted_instance(5, seed=55)
        rep = solver.verify(solver.solve_three_layer(inst), inst)
        for name, value in rep.identity_checks.items():
            if name == "difference_rcond":
                assert value > 0.0
            else:
                assert value <= 1e-7, (name, value)

    def test_each_instance_matrix_is_factored_once(self, monkeypatch):
        # make_instance factors the five instance matrices; solve and
        # verify each solve Y1^-1 Y2 from Y1's factors, and solve inverts
        # X1 - X2 from its factors, so only the solve's gates on
        # expm(-W1 X2) and the outer exponential and verify's
        # difference_rcond add a factoring; logm makes none
        calls = {"lu_factor": 0, "inverse": 0, "lu_solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        lu_factor = counted("lu_factor", linalg.lu_factor)
        for module in (linalg, solver):
            monkeypatch.setattr(module, "lu_factor", lu_factor)
        monkeypatch.setattr(solver, "inverse", counted("inverse", linalg.inverse))
        monkeypatch.setattr(solver, "lu_solve", counted("lu_solve", linalg.lu_solve))
        q = [random_matrix(4, seed) for seed in (1, 2, 3, 4)]
        inst = solver.make_instance(*q)
        assert calls == {"lu_factor": 5, "inverse": 0, "lu_solve": 0}
        rep = solver.verify(solver.solve_three_layer(inst), inst)
        assert rep.passed
        assert calls == {"lu_factor": 8, "inverse": 1, "lu_solve": 2}

    def test_a_cli_chain_decodes_each_matrix_once(self, tmp_path, decodes, capsys):
        # gen's four matrices are kept as it writes them, so solve, verify,
        # eval and logm decode only the weights file, once: 4 matrices in
        # all. A chain repeated after 18 others decodes as much again.
        def chain(seed):
            inst = tmp_path / f"s{seed}"
            for argv in (
                ["gen", "--dim", "2", "--seed", str(seed), "--out", str(inst)],
                ["solve", "--instance", str(inst)],
                ["verify", "--instance", str(inst), "--weights", str(inst / "weights.json")],
                ["eval", "--weights", str(inst / "weights.json"), "--in",
                 str(inst / "x1.json"), "--out", str(inst / "fx1.json")],
                ["logm", "--in", str(inst / "y1.json"), "--out", str(inst / "y1.logm.json")],
            ):
                assert cli.run(argv) == 0, argv
            count, decodes["n"] = decodes["n"], 0
            return count

        assert chain(1) == 4
        assert [chain(seed) for seed in range(2, 20)] == [4] * 18
        assert chain(1) == 4

    def test_rejected_instance(self):
        inst = solver.make_instance(np.eye(3), np.eye(3), np.eye(3), 2 * np.eye(3))
        with pytest.raises(errors.InstanceRejectedError):
            solver.solve_three_layer(inst)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 1.0, 1.0005, math.inf])
    def test_alpha_validation(self, alpha):
        inst = admitted_instance(2, seed=66)
        with pytest.raises(ValueError, match="alpha"):
            solver.solve_three_layer(inst, alpha=alpha)

    def test_z_satisfies_definition(self):
        inst = admitted_instance(4, seed=77)
        from expnet.matfuncs import expm

        z = solver.solve_three_layer(inst, alpha=2.0).z
        target = 2.0 * (linalg.inverse(inst.y1) @ inst.y2)
        assert_allclose(expm(z), target, rtol=1e-10, atol=1e-12)

    def test_one_alpha_free_logarithm(self, monkeypatch):
        # every alpha and branch takes logm of the same Y1^-1 Y2, and Z
        # is that logarithm shifted by ln(alpha) I
        args, logs = [], []
        real_logm = solver.logm

        def recording_logm(a, branch):
            args.append(a.copy())
            logs.append(real_logm(a, branch))
            return logs[-1]

        monkeypatch.setattr(solver, "logm", recording_logm)
        inst = admitted_instance(4, seed=77)
        for alpha in (0.5, 2.0, math.e):
            for branch in (0, 1):
                z = solver.solve_three_layer(inst, alpha=alpha, branch=branch).z
                shift = math.log(alpha) * np.eye(4)
                assert_array_equal(z, logs[-1] + shift)
        assert all(a.tobytes() == args[0].tobytes() for a in args)

    def test_eval_dimension_mismatch(self):
        inst = admitted_instance(2, seed=88)
        w = solver.solve_three_layer(inst)
        with pytest.raises(errors.DimensionError):
            solver.eval_three_layer(w, np.eye(3))
        # expm(W1 x), when the caller passes it, gets the same check
        with pytest.raises(errors.DimensionError, match="inner"):
            solver.eval_three_layer(w, inst.x1, np.eye(3))

    @pytest.mark.parametrize("layer", ["w1", "w2", "w3"])
    def test_eval_overflow_raises_without_warning(self, layer):
        # an overflow in a product or an exponential of the forward map is
        # an OverflowError, never NaN or infinite output
        inst = admitted_instance(2, seed=3)
        w = solver.solve_three_layer(inst)
        big = dataclasses.replace(w, **{layer: linalg.cmatrix(np.full((2, 2), 1.7e308))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                solver.eval_three_layer(big, inst.x1)

    def test_eval_refuses_non_finite_input(self):
        inst = admitted_instance(2, seed=88)
        w = solver.solve_three_layer(inst)
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            solver.eval_three_layer(w, bad)
        with pytest.raises(ValueError, match="inner"):
            solver.eval_three_layer(w, inst.x1, bad)

    @pytest.mark.parametrize("bad", [[["a", "b"], ["c", "d"]], [[None, 1], [1, 1]]],
                             ids=["strings", "none"])
    def test_eval_refuses_non_numeric_input(self, bad):
        inst = admitted_instance(2, seed=88)
        w = solver.solve_three_layer(inst)
        with pytest.raises(ValueError, match="^x entries must be numbers"):
            solver.eval_three_layer(w, bad)
        with pytest.raises(ValueError, match="^inner entries must be numbers"):
            solver.eval_three_layer(w, inst.x1, bad)

    def test_overflowing_weights_raise_without_warning(self):
        # W2's product overflows at this alpha: the finite check refuses
        # it, and numpy prints nothing first
        inst = admitted_instance(4, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="w2"):
                solver.solve_three_layer(inst, alpha=1e286)

    def test_verify_dimension_mismatch(self):
        w = solver.solve_three_layer(admitted_instance(3, seed=88))
        with pytest.raises(errors.DimensionError):
            solver.verify(w, admitted_instance(2, seed=88))


@pytest.mark.parametrize(
    "call",
    [
        linalg.lu_factor,
        linalg.inverse,
        linalg.schur_decompose,
        linalg.matrix_to_json,
        matfuncs.expm,
        lambda x: matfuncs.logm(x, 1),
        lambda x: solver.eval_three_layer(solver.solve_three_layer(admitted_instance(2, 88)), x),
    ],
    ids=[
        "lu_factor", "inverse", "schur_decompose", "matrix_to_json", "expm", "logm-branch",
        "eval_three_layer",
    ],
)
def test_public_calls_take_a_nested_list(call):
    # the input is converted before its shape is checked
    assert repr(call([[1, 0], [0, 1]])) == repr(call(np.eye(2)))
    with pytest.raises(errors.DimensionError):
        call([[1, 0, 0]])


#: The instance families the solver's property test draws from.
FAMILIES = (
    "gaussian", "x-scaled", "y-scaled", "y2-scaled", "x2-near-x1", "y2-near-y1",
    "non-normal-quotient", "real", "quotient-near-negative-axis",
)


class SolverCase(typing.NamedTuple):
    """The drawn parameters of one solver case; :func:`case_matrices`
    builds its matrices, so a falsifying example prints in one line."""

    dim: int
    seed: int
    family: str
    sign: int
    extra: int | None  # the exponent of a family that draws one
    alpha: float
    branch: int


#: Range of the extra exponent per family that draws one.
EXTRA_RANGES = {"x2-near-x1": (1, 4), "y2-near-y1": (1, 6), "non-normal-quotient": (0, 3)}


@st.composite
def solver_cases(draw):
    """A :class:`SolverCase`: Gaussian quadruples of order 1 to 16
    reshaped by one of ``FAMILIES``, a scale alpha in {e, 1/2, 2} or
    log-uniform on [1e-2, 1e2] (less those within ``MIN_ALPHA_GAP`` of 1,
    which the solve refuses before any arithmetic), and a branch in
    -2..2."""
    dim = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    seed = draw(st.integers(0, 2**32 - 1))
    family = draw(st.sampled_from(FAMILIES))
    sign = draw(st.sampled_from([-1, 1]))
    extra = draw(st.integers(*EXTRA_RANGES[family])) if family in EXTRA_RANGES else None
    alpha = draw(
        st.one_of(
            st.sampled_from([math.e, 0.5, 2.0]),
            st.floats(-2.0, 2.0)
            .map(lambda e: 10.0**e)
            .filter(lambda a: abs(a - 1.0) >= solver.MIN_ALPHA_GAP),
        )
    )
    return SolverCase(dim, seed, family, sign, extra, alpha, draw(st.integers(-2, 2)))


def case_matrices(case: SolverCase) -> tuple:
    """``(x1, x2, y1, y2)`` of a :class:`SolverCase`."""
    dim, sign, extra = case.dim, case.sign, case.extra
    rng = np.random.default_rng(case.seed)
    shape = (4, dim, dim)
    x1, x2, y1, y2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if case.family == "x-scaled":
        x1, x2 = x1 * 10.0 ** (3 * sign), x2 * 10.0 ** (3 * sign)
    elif case.family == "y-scaled":
        y1, y2 = y1 * 10.0 ** (6 * sign), y2 * 10.0 ** (6 * sign)
    elif case.family == "y2-scaled":
        y2 = y2 * 10.0 ** (4 * sign)
    elif case.family == "x2-near-x1":
        x2 = x1 + 10.0**-extra * x2
    elif case.family == "y2-near-y1":
        y2 = y1 + 10.0**-extra * y2
    elif case.family == "non-normal-quotient":
        # Y1^-1 Y2 = S T S^-1 with T triangular and strongly coupled
        t = np.triu(y2, 1) * 10.0**extra + np.diag(np.diag(y2))
        y2 = y1 @ x2 @ t @ np.linalg.inv(x2)
    elif case.family == "real":
        x1, x2, y1, y2 = x1.real, x2.real, y1.real, y2.real
    elif case.family == "quotient-near-negative-axis":
        # eigenvalues -r e^(i phi) with |phi| <= 1e-2, on either side of the cut
        phi = rng.uniform(-1e-2, 1e-2, dim)
        eig = -np.exp(rng.standard_normal(dim) + 1j * phi)
        y2 = y1 @ x2 @ np.diag(eig) @ np.linalg.inv(x2)
    return x1, x2, y1, y2


#: The errors make_instance and solve_three_layer document.
DOCUMENTED_REFUSALS = (
    errors.InstanceRejectedError,
    errors.NearSingularError,
    errors.IllConditionedError,
    errors.ConvergenceError,
    OverflowError,
    ValueError,
)


def solved(case):
    """``(weights, instance)`` of a :func:`solver_cases` case, or None
    when ``make_instance`` or the solve raises a documented refusal."""
    try:
        inst = solver.make_instance(*case_matrices(case))
        return solver.solve_three_layer(inst, alpha=case.alpha, branch=case.branch), inst
    except DOCUMENTED_REFUSALS:
        return None


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=solver_cases())
def test_solve_meets_its_contract_or_raises(case):
    # every solve either interpolates both pairs to 1e-6 or raises a
    # documented error, without a warning: never silent garbage
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (pair := solved(case)) is None:
            return
        rep = solver.verify(*pair)
    assert rep.passed, (rep.residual1, rep.residual2)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    case=solver_cases(),
    source=st.sampled_from(["x1", "x2", "gaussian"]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_eval_gives_finite_output_or_raises(case, source, scale):
    # on an interpolation point or a fresh input, scaled by 10^+-3, the
    # forward map is finite or raises OverflowError, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (pair := solved(case)) is None:
            return
        weights, inst = pair
        if source == "gaussian":
            x = random_matrix(inst.dim, seed=inst.dim)
        else:
            x = getattr(inst, source)
        try:
            out = solver.eval_three_layer(weights, x * scale)
        except OverflowError:
            return
    assert np.isfinite(out).all()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    case=solver_cases(),
    perturbation=st.sampled_from(["scaled", "noise", "swapped"]),
    layers=st.permutations(["w1", "w2", "w3"]),
    exponent=st.integers(-12, 8),
)
def test_verify_reports_on_perturbed_weights(case, perturbation, layers, exponent):
    # verify documents no numerical error: W scaled by 10^+-8, noise of
    # relative size 10^exponent, or two layers swapped give a report whose
    # values are numbers or inf, never NaN, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (pair := solved(case)) is None:
            return
        weights, inst = pair
        fields = {name: getattr(weights, name) for name in ("w1", "w2", "w3")}
        first, second = layers[:2]
        if perturbation == "scaled":
            fields[first] = fields[first] * 10.0 ** math.copysign(8, exponent)
        elif perturbation == "noise":
            noise = random_matrix(inst.dim, seed=exponent + 12)
            fields[first] = fields[first] + 10.0**exponent * np.abs(fields[first]).max() * noise
        else:
            fields[first], fields[second] = fields[second], fields[first]
        rep = solver.verify(dataclasses.replace(weights, **fields), inst)
    values = [rep.residual1, rep.residual2, *rep.identity_checks.values()]
    assert not any(math.isnan(v) for v in values), values


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

    def test_overflowing_residual_is_quiet(self):
        # the norm of f(X) - Y overflows; the suite turns warnings into errors
        inst = admitted_instance(3, seed=1)
        w = solver.solve_three_layer(inst)
        bad = solver.ThreeLayerWeights(
            w1=w.w1, w2=w.w2, w3=w.w3 * 1e300, alpha=w.alpha, z=w.z
        )
        rep = solver.verify(bad, inst)
        assert rep.residual1 == rep.residual2 == math.inf
        assert rep.identity_checks["commutant_form"] <= 1e-12

    def test_a_blowup_in_the_identity_checks_reads_inf(self):
        # expm(W1 X1) is finite, but the norms of the scale and commutant
        # checks overflow: inf / inf was reported as NaN
        inst = solver.random_instance(2, 3)
        w = solver.solve_three_layer(inst)
        bad = dataclasses.replace(w, w1=w.w1 + 100.0 * random_matrix(2, seed=2))
        checks = solver.verify(bad, inst).identity_checks
        assert checks["scale_identity"] == checks["commutant_form"] == math.inf

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-6])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol would pass weights whose residual is infinite
        inst = admitted_instance(3, seed=1)
        w = solver.solve_three_layer(inst)
        with pytest.raises(ValueError, match="tol"):
            solver.verify(w, inst, tol=tol)

    @pytest.mark.parametrize(
        "value", [True, np.True_, "0.1", 1 + 0j], ids=["bool", "numpy-bool", "str", "complex"]
    )
    def test_tol_and_alpha_must_be_real_numbers(self, value):
        inst = admitted_instance(2, seed=1)
        w = solver.solve_three_layer(inst)
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            solver.verify(w, inst, tol=value)
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            solver.solve_three_layer(inst, alpha=value)
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            solver.ThreeLayerWeights(w1=w.w1, w2=w.w2, w3=w.w3, alpha=value, z=w.z)

    def test_an_integer_past_float_range_is_refused(self):
        # float(10**400) overflows: each entry point names its argument in
        # a ValueError instead of raising OverflowError
        inst = admitted_instance(2, seed=1)
        w = solver.solve_three_layer(inst)
        huge = 10**400
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            solver.solve_three_layer(inst, alpha=huge)
        with pytest.raises(ValueError, match="^tol must be positive and finite"):
            solver.verify(w, inst, tol=huge)
        with pytest.raises(ValueError, match="^alpha must be positive and finite"):
            solver.ThreeLayerWeights(w1=w.w1, w2=w.w2, w3=w.w3, alpha=huge, z=w.z)
        with pytest.raises(ValueError, match="^learning_rate must be positive and finite"):
            experiment.ExperimentConfig(dim=3, learning_rate=huge)

    @pytest.mark.parametrize(
        "call, argument",
        [
            (lambda inst, w, big: solver.solve_three_layer(inst, alpha=big), "alpha"),
            (lambda inst, w, big: solver.verify(w, inst, tol=big), "tol"),
            (lambda inst, w, big: experiment.ExperimentConfig(dim=3, learning_rate=big),
             "learning_rate"),
            (lambda inst, w, big: experiment.ExperimentConfig(dim=-big), "dim"),
            (lambda inst, w, big: solver.random_instance(-big, 1), "dim"),
        ],
        ids=["solve-alpha", "verify-tol", "learning_rate", "config-dim", "random_instance-dim"],
    )
    def test_an_integer_too_long_to_print_is_named(self, call, argument):
        # repr of an integer past 4,300 digits raises Python's own
        # ValueError, which names no argument; the message gives its size
        inst = admitted_instance(2, seed=1)
        w = solver.solve_three_layer(inst)
        with pytest.raises(ValueError, match=f"^{argument} must .*int of 5001 digits$"):
            call(inst, w, 10**5000)

    def test_weights_keep_alpha_as_a_float(self):
        w = solver.solve_three_layer(admitted_instance(2, seed=1), alpha=2)
        assert type(w.alpha) is float and w.alpha == 2.0
        obj = {**solver.weights_to_json(w), "alpha": 3}
        assert type(solver.weights_from_json(obj).alpha) is float

    def test_unexpected_errors_propagate(self, monkeypatch):
        # the check block catches only the documented numerical failures
        def broken_lu_factor(a):
            raise TypeError("not a numerical failure")

        inst = admitted_instance(2, seed=9)
        w = solver.solve_three_layer(inst)
        monkeypatch.setattr(solver, "lu_factor", broken_lu_factor)
        with pytest.raises(TypeError):
            solver.verify(w, inst)

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

    def test_overflowing_first_layer_makes_every_value_inf(self):
        # W1 X overflows expm at both points: no forward pass and no
        # identity check can be formed
        inst = admitted_instance(3, seed=1)
        w = solver.solve_three_layer(inst)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.verify(dataclasses.replace(w, w1=w.w1 * 1e9), inst)
        assert rep.residual1 == rep.residual2 == math.inf
        assert list(rep.identity_checks.values()) == [math.inf] * 4
        assert not rep.passed

    def test_zero_second_layer_leaves_commutant_form_inf(self):
        # W2 expm(W1 X1), the reference of commutant_form, has norm 0
        inst = admitted_instance(3, seed=1)
        w = solver.solve_three_layer(inst)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.verify(dataclasses.replace(w, w2=w.w2 * 0), inst)
        assert rep.identity_checks["commutant_form"] == math.inf
        assert math.isfinite(rep.residual1) and math.isfinite(rep.residual2)
        assert not rep.passed

    def test_singular_y1_leaves_z_definition_inf(self):
        # the quotient Y1^-1 Y2 is not formed below inverse()'s rcond floor
        w = solver.solve_three_layer(admitted_instance(2, seed=9))
        inst = solver.make_instance(np.eye(2), 2 * np.eye(2), np.ones((2, 2)), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solver.verify(w, inst)
        assert rep.identity_checks["z_definition"] == math.inf
        assert math.isfinite(rep.identity_checks["scale_identity"])

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

    @pytest.mark.parametrize("name", ["w1", "w2", "w3", "z"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_weights_are_not_written(self, tmp_path, name, bad):
        # the type accepts such a matrix, but load_weights would refuse
        # the file, so no file is written
        w = solver.solve_three_layer(admitted_instance(2, seed=12))
        entries = np.array(getattr(w, name))
        entries[0, 1] = bad
        path = tmp_path / "w.json"
        with pytest.raises(ValueError, match=f"weights {name} entries must be finite"):
            solver.save_weights(path, dataclasses.replace(w, **{name: entries}))
        assert not path.exists()

    def test_a_reloaded_weights_file_is_kept_frozen_and_read_only(self, tmp_path, decodes):
        path = tmp_path / "w.json"
        solver.save_weights(path, solver.solve_three_layer(admitted_instance(2, seed=7)))
        first = solver.load_weights(path)
        assert decodes["n"] == 4  # saving weights keeps no decoded value
        again = solver.load_weights(path)
        assert again is first and decodes["n"] == 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.alpha = 2.0
        for name in ("w1", "w2", "w3", "z"):
            assert not getattr(again, name).flags.writeable

    def test_a_matrix_text_is_not_taken_for_weights(self, tmp_path, decodes):
        path = tmp_path / "m.json"
        linalg.save_matrix(path, np.eye(2))
        assert linalg.load_matrix(path).tobytes() == linalg.cmatrix(np.eye(2)).tobytes()
        with pytest.raises(errors.MatrixFormatError, match="weights JSON"):
            solver.load_weights(path)

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
