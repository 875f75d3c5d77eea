import json
import math
import subprocess
import sys

import numpy as np
import pytest

from expnet import cli, errors, linalg, solver


def run_cli(*argv):
    return cli.run(list(argv))


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "expnet", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "usage" in out.stdout


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSeedParsing:
    def test_forms(self):
        assert cli.parse_seeds("7") == (7,)
        assert cli.parse_seeds("1,2,5") == (1, 2, 5)
        assert cli.parse_seeds("1..4") == (1, 2, 3, 4)
        assert cli.parse_seeds("1..3,9") == (1, 2, 3, 9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cli.parse_seeds("5..2")
        with pytest.raises(ValueError):
            cli.parse_seeds("a")
        with pytest.raises(ValueError):
            cli.parse_seeds("-3")
        with pytest.raises(ValueError):
            cli.parse_seeds("1,,2")


class TestGen:
    def test_writes_admitted_instance(self, workdir, capsys):
        assert run_cli("gen", "--dim", "4", "--seed", "7") == 0
        manifest = json.loads((workdir / "instance-d4-s7/instance.json").read_text())
        assert manifest["dim"] == 4
        assert manifest["seed"] == 7
        assert all(v > 1e-3 for v in manifest["rconds"].values())
        inst = solver.load_instance(workdir / "instance-d4-s7")
        assert inst.admitted()

    def test_byte_identical_reruns(self, workdir):
        run_cli("gen", "--dim", "3", "--seed", "2", "--out", "a")
        run_cli("gen", "--dim", "3", "--seed", "2", "--out", "b")
        for name in ("instance.json", "x1.json", "x2.json", "y1.json", "y2.json"):
            assert (workdir / "a" / name).read_bytes() == (
                workdir / "b" / name
            ).read_bytes()

    def test_dim_zero_is_usage_error(self, workdir, capsys):
        assert run_cli("gen", "--dim", "0", "--seed", "1") == 2

    def test_unwritable_output_is_io_error(self, workdir):
        (workdir / "blocked").write_text("a file, not a directory")
        code = run_cli("gen", "--dim", "2", "--seed", "1", "--out", "blocked")
        assert code == 4


class TestSolveVerifyEval:
    def test_pipeline(self, workdir, capsys):
        run_cli("gen", "--dim", "4", "--seed", "11", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        out = capsys.readouterr().out
        assert "pass: True" in out
        report = json.loads((workdir / "inst/report.json").read_text())
        assert report["pass"] is True
        assert report["residual1"] <= 1e-6

        assert (
            run_cli(
                "verify", "--instance", "inst", "--weights", "inst/weights.json"
            )
            == 0
        )

        code = run_cli(
            "eval",
            "--weights", "inst/weights.json",
            "--in", "inst/x1.json",
            "--out", "fx1.json",
        )
        assert code == 0
        inst = solver.load_instance(workdir / "inst")
        got = linalg.load_matrix(workdir / "fx1.json")
        assert np.linalg.norm(got - inst.y1) <= 1e-6 * np.linalg.norm(inst.y1)

    def test_scalar_example_passes_tight_tolerance(self, workdir, capsys):
        inst = solver.make_instance([[2.0]], [[1.0]], [[3.0]], [[6.0]])
        solver.save_instance(workdir / "scalar", inst)
        code = run_cli(
            "solve", "--instance", "scalar", "--alpha", "2.0", "--tol", "1e-12"
        )
        assert code == 0
        report = json.loads((workdir / "scalar/report.json").read_text())
        assert max(report["residual1"], report["residual2"]) <= 1e-12

    def test_identical_data_points_exit_3(self, workdir):
        x = linalg.random_matrix(3, seed=1)
        inst = solver.make_instance(
            x, x, linalg.random_matrix(3, seed=2), linalg.random_matrix(3, seed=3)
        )
        solver.save_instance(workdir / "bad", inst)
        assert run_cli("solve", "--instance", "bad") == 3

    def test_alpha_validation_exit_2(self, workdir):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst", "--alpha", "1.0") == 2

    def test_missing_instance_exit_4(self, workdir):
        assert run_cli("solve", "--instance", "nowhere") == 4


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InstanceRejectedError("rejected"), 3),
        (errors.MaxResampleError("exhausted"), 3),
        (errors.ComplexInputError("complex"), 3),
        (json.JSONDecodeError("bad json", "{", 0), 4),
        (KeyError("files"), 4),
        (errors.DimensionError("shape"), 4),
        (OSError("unreadable"), 4),
        (errors.SingularInputError("singular"), 5),
        (errors.IllConditionedError("cut"), 5),
        (errors.NearSingularError("near singular", rcond=1e-12), 5),
        (errors.ConvergenceError("no convergence"), 5),
        (errors.ActivationSingularError("sigma singular", rcond=0.0), 5),
        (OverflowError("overflow"), 5),
        (FloatingPointError("nan"), 5),
        (ValueError("bad value"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_exit_code_table(workdir, monkeypatch, capsys, exc, code):
    def failing_expm(a):
        raise exc

    linalg.save_matrix(workdir / "a.json", np.eye(2))
    monkeypatch.setattr(cli, "expm", failing_expm)
    assert run_cli("expm", "--in", "a.json") == code
    assert f"error [{type(exc).__name__}]" in capsys.readouterr().err


class TestMatrixFunctions:
    def test_expm_zero_is_identity(self, workdir):
        linalg.save_matrix(workdir / "z.json", np.zeros((3, 3)))
        assert run_cli("expm", "--in", "z.json", "--out", "ez.json") == 0
        out = linalg.load_matrix(workdir / "ez.json")
        np.testing.assert_array_equal(out, np.eye(3))

    def test_logm_prints_roundtrip(self, workdir, capsys):
        a = linalg.random_matrix(4, seed=9)
        linalg.save_matrix(workdir / "a.json", a)
        assert run_cli("logm", "--in", "a.json") == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("roundtrip residual:")]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) <= 1e-8

    def test_logm_expm_pipeline(self, workdir):
        a = linalg.random_matrix(3, seed=14)
        linalg.save_matrix(workdir / "a.json", a)
        run_cli("logm", "--in", "a.json", "--out", "la.json")
        run_cli("expm", "--in", "la.json", "--out", "back.json")
        back = linalg.load_matrix(workdir / "back.json")
        assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)

    def test_logm_singular_exit_5(self, workdir, capsys):
        linalg.save_matrix(workdir / "s.json", np.diag([1.0, 0.0]))
        assert run_cli("logm", "--in", "s.json") == 5
        assert "singular" in capsys.readouterr().err.lower()

    def test_branch_offset_flag(self, workdir):
        a = linalg.random_matrix(2, seed=5)
        linalg.save_matrix(workdir / "a.json", a)
        run_cli("logm", "--in", "a.json", "--out", "l0.json")
        run_cli("logm", "--in", "a.json", "--out", "l1.json", "--branch-offset", "1")
        l0 = linalg.load_matrix(workdir / "l0.json")
        l1 = linalg.load_matrix(workdir / "l1.json")
        np.testing.assert_allclose(
            l1 - l0, 2j * math.pi * np.eye(2), rtol=0, atol=1e-12
        )


class TestExperimentCommand:
    def test_identity_steps_zero_prints_one(self, workdir, capsys):
        code = run_cli(
            "experiment",
            "--dim", "4",
            "--activation", "identity",
            "--steps", "0",
            "--seeds", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        initial = [l for l in out.splitlines() if l.startswith("median initial s:")]
        assert len(initial) == 1
        assert abs(float(initial[0].split(":")[1]) - 1.0) <= 1e-10

    def test_trace_files_and_determinism(self, workdir, capsys):
        args = (
            "experiment",
            "--dim", "3",
            "--steps", "25",
            "--seeds", "1..3",
            "--out", "t.csv",
        )
        assert run_cli(*args) == 0
        first = (workdir / "t.csv").read_bytes()
        sidecar = json.loads((workdir / "t.config.json").read_text())
        assert sidecar["config"]["seeds"] == [1, 2, 3]
        assert run_cli(*args) == 0
        assert (workdir / "t.csv").read_bytes() == first

    def test_bad_seeds_exit_2(self, workdir):
        assert run_cli("experiment", "--dim", "3", "--seeds", "9..1") == 2

    def test_usage_error_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("gen", "--dimension", "4")
        assert info.value.code == 2
