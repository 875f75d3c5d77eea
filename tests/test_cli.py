import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from expnet import cli, errors, linalg, matfuncs, solver
from expnet.matfuncs import PRINCIPAL

from conftest import random_matrix


def run_cli(*argv):
    return cli.run(list(argv))


def test_module_entry_point():
    src = pathlib.Path(cli.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "expnet", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0
    assert "usage" in out.stdout


COLD_START = """
import sys
import expnet, expnet.cli
from expnet import cli, experiment
seen = ["scipy.special" in sys.modules]
assert cli.run(["gen", "--dim", "3", "--seed", "1", "--out", "inst"]) == 0
assert cli.run(["solve", "--instance", "inst"]) == 0
assert cli.run(["experiment", "--dim", "2", "--activation", "relu", "--steps", "2",
                "--seeds", "1", "--out", "relu.csv"]) == 0
seen.append("scipy.special" in sys.modules)
experiment.run_experiment(experiment.ExperimentConfig(dim=2, steps=2, seeds=(1,)))
seen.append("scipy.special" in sys.modules)
print(seen)
"""


def test_only_the_sigmoid_loads_scipy_special(tmp_path):
    # a fresh process: importing expnet and running the interpolation
    # commands and a relu experiment leave scipy.special unloaded, and the
    # first sigmoid call loads it
    src = pathlib.Path(cli.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", COLD_START],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[False, False, True]"


def readme_commands():
    """argv of every ``expnet`` line in README's "Command line" block."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "expnet":
            yield argv[1:]


def test_readme_commands_parse():
    commands = list(readme_commands())
    assert len(commands) >= 7
    parser = cli.build_parser()
    for argv in commands:
        assert callable(parser.parse_args(argv).func), argv


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
        for text in ["5..2", "a", "1,,2", "1..", "1..2..3"]:
            with pytest.raises(ValueError) as refusal:
                cli.parse_seeds(text)
            assert str(refusal.value) == (
                f"--seeds must be integers and ascending ranges lo..hi, got {text!r}"
            )

    def test_count_is_bounded_before_ranges_are_expanded(self):
        top = cli.MAX_SEEDS
        assert cli.parse_seeds(f"1..{top}") == tuple(range(1, top + 1))
        # past the bound; the last would be a MemoryError if expanded
        for text in [f"1..{top + 1}", f"0,1..{top}", "1..1000000000", f"0..{10**100}"]:
            with pytest.raises(ValueError, match=f"^--seeds must name at most {top} seeds, got "):
                cli.parse_seeds(text)


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

    def test_seed_past_64_bits_is_recorded_exactly(self, workdir, capsys):
        # instance.json is a document: its writer takes an integer of any size
        seed = 4611686018427387904000
        assert run_cli("gen", "--dim", "3", "--seed", str(seed), "--out", "inst") == 0
        assert json.loads((workdir / "inst/instance.json").read_text())["seed"] == seed

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

    def test_infinite_tolerance_exit_2(self, workdir, capsys):
        assert run_cli("gen", "--dim", "3", "--seed", "1", "--out", "inst") == 0
        assert run_cli("solve", "--instance", "inst", "--tol", "inf") == 2
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record", [None, b"garbage", b"\xff\xfe{\x00"], ids=["absent", "garbage", "not-utf8"]
    )
    def test_instance_json_is_not_read(self, workdir, record):
        # an instance is its directory's four matrix files
        run_cli("gen", "--dim", "3", "--seed", "2", "--out", "inst")
        expected = solver.load_instance("inst")
        manifest = workdir / "inst/instance.json"
        if record is None:
            manifest.unlink()
        else:
            manifest.write_bytes(record)
        for path in ("inst", "inst/x2.json") + (() if record is None else ("inst/instance.json",)):
            got = solver.load_instance(path)
            for name in ("x1", "x2", "y1", "y2"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()

    def test_solve_writes_beside_the_instance_given_either_way(self, workdir, capsys):
        run_cli("gen", "--dim", "3", "--seed", "2", "--out", "inst")
        (workdir / "inst/instance.json").write_text("garbage")
        capsys.readouterr()
        written = []
        for instance in ("inst", "inst/instance.json"):
            assert run_cli("solve", "--instance", instance) == 0
            lines = capsys.readouterr().out.splitlines()
            paths = [os.path.realpath(l[len("wrote "):]) for l in lines if l.startswith("wrote ")]
            written.append([(p, pathlib.Path(p).read_bytes()) for p in paths])
        inst = os.path.realpath(workdir / "inst")
        assert [p for p, _ in written[0]] == [
            os.path.join(inst, "weights.json"), os.path.join(inst, "report.json")
        ]
        assert written[0] == written[1]

    def test_identical_data_points_exit_3(self, workdir):
        x = random_matrix(3, seed=1)
        inst = solver.make_instance(
            x, x, random_matrix(3, seed=2), random_matrix(3, seed=3)
        )
        solver.save_instance(workdir / "bad", inst)
        assert run_cli("solve", "--instance", "bad") == 3

    def test_alpha_validation_exit_2(self, workdir):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst", "--alpha", "1.0") == 2

    def test_infinite_alpha_weights_exit_2(self, workdir, capsys):
        # json writes and reads Infinity; the weights record refuses it
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        (workdir / "w.json").write_text(json.dumps({**weights, "alpha": math.inf}))
        assert run_cli("verify", "--instance", "inst", "--weights", "w.json") == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    def test_huge_integer_alpha_weights_exit_2(self, workdir, capsys):
        # a 401-digit integer literal is past float range, like 1e400
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        (workdir / "w.json").write_text(json.dumps({**weights, "alpha": 10**400}))
        assert run_cli("verify", "--instance", "inst", "--weights", "w.json") == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1e400", "-Infinity"])
    def test_non_standard_alpha_weights_exit_2(self, workdir, capsys, token):
        # orjson refuses these tokens; json.loads reads them, and the
        # weights record refuses the value
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        body = json.dumps({**weights, "alpha": "ALPHA"}).replace('"ALPHA"', token)
        (workdir / "w.json").write_text(body)
        assert run_cli("verify", "--instance", "inst", "--weights", "w.json") == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "inner, message",
        [
            # orjson reads any depth, and the refusal shows three levels
            ("", "weights JSON 'alpha' must be a number, got [[[[...]]]]"),
            # only json.loads reads the NaN, and it runs out of stack
            ("NaN", "w.json nests too deeply to decode"),
        ],
        ids=["plain", "around-nan"],
    )
    def test_deeply_nested_alpha_weights_exit_4(self, workdir, capsys, inner, message):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        deep = "[" * 100_000 + inner + "]" * 100_000
        body = json.dumps({**weights, "alpha": "ALPHA"}).replace('"ALPHA"', deep)
        (workdir / "w.json").write_text(body)
        assert run_cli("verify", "--instance", "inst", "--weights", "w.json") == 4
        assert capsys.readouterr().err == f"error [MatrixFormatError]: {message}\n"

    def test_long_alpha_list_weights_exit_4_with_a_short_message(self, workdir, capsys):
        # the full repr of the list would be a 600,000-byte line
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        (workdir / "w.json").write_text(json.dumps({**weights, "alpha": [0] * 200_000}))
        capsys.readouterr()
        argv = ("eval", "--weights", "w.json", "--in", "inst/x1.json", "--out", "fx.json")
        assert run_cli(*argv) == 4
        assert capsys.readouterr().err == (
            "error [MatrixFormatError]: weights JSON 'alpha' must be a number, "
            "got [0, 0, 0, 0, 0, 0, ...]\n"
        )

    @pytest.mark.parametrize("layer", ["w1", "w2", "w3"])
    def test_eval_overflow_exit_5(self, workdir, capsys, layer):
        # the forward map overflows: exit 5 and no output file, never a
        # file of NaN and Infinity entries that every reader refuses
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        weights[layer] = linalg.matrix_to_json(np.full((2, 2), 1.7e308))
        (workdir / "w.json").write_text(json.dumps(weights))
        argv = ("eval", "--weights", "w.json", "--in", "inst/x1.json", "--out", "fx.json")
        assert run_cli(*argv) == 5
        assert "error [OverflowError]" in capsys.readouterr().err
        assert not (workdir / "fx.json").exists()

    def test_overflowing_solve_exit_5_without_warning(self, workdir, capsys):
        run_cli("gen", "--dim", "4", "--seed", "1", "--out", "inst")
        capsys.readouterr()
        assert run_cli("solve", "--instance", "inst", "--alpha", "1e286") == 5
        err = capsys.readouterr().err
        assert err.startswith("error [OverflowError]") and err.count("\n") == 1
        assert not (workdir / "inst/weights.json").exists()

    def test_missed_tolerance_exit_5(self, workdir, capsys):
        # the verification runs and its files are written, but no residual meets 1e-300
        run_cli("gen", "--dim", "3", "--seed", "1", "--out", "inst")
        capsys.readouterr()
        for argv in (
            ("solve", "--instance", "inst", "--tol", "1e-300"),
            ("verify", "--instance", "inst", "--weights", "inst/weights.json",
             "--tol", "1e-300", "--report-out", "r.json"),
        ):
            assert run_cli(*argv) == 5, argv
            assert capsys.readouterr().err == "error: verification missed tolerance 1e-300\n"
        assert (workdir / "inst/weights.json").exists()
        for report in ("inst/report.json", "r.json"):
            assert json.loads((workdir / report).read_text())["pass"] is False

    def test_overflowing_verify_reports_infinity(self, workdir, capsys):
        # report.json is a document: an overflowed residual is written as
        # Infinity, which json reads back as inf
        run_cli("gen", "--dim", "3", "--seed", "1", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        w1 = linalg.matrix_from_json(weights["w1"])
        (workdir / "w.json").write_text(
            json.dumps({**weights, "w1": linalg.matrix_to_json(1e9 * w1)})
        )
        argv = ("verify", "--instance", "inst", "--weights", "w.json", "--report-out", "r.json")
        assert run_cli(*argv) == 5
        report = json.loads((workdir / "r.json").read_text())
        values = [report["residual1"], report["residual2"], *report["identity_checks"].values()]
        assert len(values) == 6 and all(v == math.inf for v in values)

    def test_ill_conditioned_layers_exit_5(self, workdir, capsys):
        # expm(-W1 X2) of this instance is near-singular at the default alpha:
        # the solve refuses it and writes nothing
        run_cli("gen", "--dim", "4", "--seed", "40006", "--out", "inst")
        capsys.readouterr()
        assert run_cli("solve", "--instance", "inst") == 5
        err = capsys.readouterr().err
        assert err.startswith("error [NearSingularError]: expm(-W1 X2)") and err.count("\n") == 1
        assert not (workdir / "inst/weights.json").exists()
        assert not (workdir / "inst/report.json").exists()

    def test_third_layer_near_alpha_one_exits_5(self, workdir, capsys):
        run_cli("gen", "--dim", "2", "--seed", "25000", "--out", "inst")
        capsys.readouterr()
        assert run_cli("solve", "--instance", "inst", "--alpha", "1.01") == 5
        err = capsys.readouterr().err
        assert err.startswith("error [NearSingularError]: expm(alpha/(alpha-1) L)")
        assert err.count("\n") == 1
        assert not (workdir / "inst/weights.json").exists()

    def test_missing_instance_exit_4(self, workdir, capsys):
        assert run_cli("solve", "--instance", "nowhere") == 4
        # a missing path is an error, even when its parent directory holds an instance
        assert run_cli("gen", "--dim", "2", "--seed", "3", "--out", ".") == 0
        assert run_cli("solve", "--instance", "nowhere") == 4
        assert "nowhere" in capsys.readouterr().err
        assert not (workdir / "weights.json").exists()

    def test_verify_dimension_mismatch_exit_4(self, workdir, capsys):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "d2")
        run_cli("gen", "--dim", "3", "--seed", "3", "--out", "d3")
        assert run_cli("solve", "--instance", "d3") == 0
        code = run_cli("verify", "--instance", "d2", "--weights", "d3/weights.json")
        assert code == 4
        assert "error [DimensionError]" in capsys.readouterr().err

    def test_solve_defaults_come_from_the_library(self, monkeypatch):
        monkeypatch.setattr(solver, "DEFAULT_ALPHA", 2.0)
        # the cached parser read its defaults when an earlier test built it
        parser = cli.build_parser.__wrapped__()
        args = parser.parse_args(["solve", "--instance", "inst"])
        assert args.alpha == 2.0
        assert args.branch_offset == PRINCIPAL


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InstanceRejectedError("rejected"), 3),
        (errors.MaxResampleError("exhausted"), 3),
        (errors.ComplexInputError("complex"), 3),
        (json.JSONDecodeError("bad json", "{", 0), 4),
        (errors.MatrixFormatError("entries"), 4),
        (errors.DimensionError("shape"), 4),
        (OSError("unreadable"), 4),
        (errors.IllConditionedError("cut"), 5),
        (errors.NearSingularError("near singular", rcond=1e-12), 5),
        (errors.ConvergenceError("no convergence"), 5),
        (OverflowError("overflow"), 5),
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


def test_every_package_error_has_an_exit_code():
    for cls in errors.ExpnetError.__subclasses__():
        assert issubclass(cls, cli._HANDLED), cls.__name__


def test_bad_learning_rate_exit_2(workdir, capsys):
    # the suite runs with warnings as errors, so a warning would fail here
    assert run_cli(
        "experiment", "--dim", "3", "--steps", "20", "--seeds", "1", "--lr", "nan"
    ) == 2
    assert "learning_rate" in capsys.readouterr().err


class TestMatrixFunctions:
    def test_expm_zero_is_identity(self, workdir):
        linalg.save_matrix(workdir / "z.json", np.zeros((3, 3)))
        assert run_cli("expm", "--in", "z.json", "--out", "ez.json") == 0
        out = linalg.load_matrix(workdir / "ez.json")
        np.testing.assert_array_equal(out, np.eye(3))

    def test_logm_prints_roundtrip(self, workdir, capsys):
        a = random_matrix(4, seed=9)
        linalg.save_matrix(workdir / "a.json", a)
        assert run_cli("logm", "--in", "a.json") == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("roundtrip residual:")]
        assert len(line) == 1
        assert float(line[0].split(":")[1]) <= 1e-8

    def test_logm_expm_pipeline(self, workdir):
        a = random_matrix(3, seed=14)
        linalg.save_matrix(workdir / "a.json", a)
        run_cli("logm", "--in", "a.json", "--out", "la.json")
        run_cli("expm", "--in", "la.json", "--out", "back.json")
        back = linalg.load_matrix(workdir / "back.json")
        assert np.linalg.norm(back - a) <= 1e-8 * np.linalg.norm(a)

    def test_logm_singular_exit_5(self, workdir, capsys):
        linalg.save_matrix(workdir / "s.json", np.diag([1.0, 0.0]))
        assert run_cli("logm", "--in", "s.json") == 5
        err = capsys.readouterr().err
        assert "error [NearSingularError]" in err
        assert "singular" in err.lower()

    def test_logm_root_cap_exit_5(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(matfuncs, "LOGM_MAX_SQRTS", 2)
        linalg.save_matrix(workdir / "a.json", np.diag([100.0, 1.0]))
        assert run_cli("logm", "--in", "a.json") == 5
        assert "error [ConvergenceError]" in capsys.readouterr().err

    def test_logm_whose_roundtrip_overflows_writes_nothing(self, workdir, capsys):
        # the log is refused by expm's norm limit in the roundtrip check
        run_cli("gen", "--dim", "3", "--seed", "1", "--out", "inst")
        code = run_cli("logm", "--in", "inst/y1.json", "--branch-offset", "20000000",
                       "--out", "l.json")
        assert code == 5
        assert "error [OverflowError]" in capsys.readouterr().err
        assert not (workdir / "l.json").exists()

    def test_logm_whose_norm_overflows_prints_an_infinite_residual(self, workdir, capsys):
        # ||a||_F is past float range; the suite turns a warning into an error
        linalg.save_matrix(workdir / "a.json", np.diag([1e200, 2e200]))
        assert run_cli("logm", "--in", "a.json", "--out", "la.json") == 0
        assert capsys.readouterr().out == "wrote la.json\nroundtrip residual: inf\n"
        assert_allclose(linalg.load_matrix(workdir / "la.json"),
                        np.diag(np.log([1e200, 2e200])), rtol=1e-15)

    def test_bool_entry_exit_4(self, workdir, capsys):
        # numpy would read true as 1.0
        (workdir / "m.json").write_text(
            '{"dim": 2, "entries": [[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}'
        )
        assert run_cli("expm", "--in", "m.json", "--out", "e.json") == 4
        assert capsys.readouterr().err == (
            "error [MatrixFormatError]: matrix JSON entries must be numbers, got true or false\n"
        )
        assert not (workdir / "e.json").exists()

    @pytest.mark.parametrize(
        "body",
        [
            '{"dim": 1, "entries": [[["x", 0.0]]]}',
            '{"dim": 1, "entries": 5}',
            '{"dim": 1, "entries": [[[1.0, 0.0, 5.0]]]}',
            '{"entries": [[[1.0, 0.0]]]}',
            '[[[1.0, 0.0]]]',
            '{"dim": 1, "entries": [[[NaN, 0.0]]]}',
            '{"dim": 0, "entries": []}',
            '{"dim": "1", "entries": [[[1.0, 0.0]]]}',
            '{"dim": 1.0, "entries": [[[1.0, 0.0]]]}',
            '{"dim": true, "entries": [[[1.0, 0.0]]]}',
            '{"dim": 2, "entries": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}',
            '{"dim": 1, "entries": [[[1e400, 0.0]]]}',
            '{"dim": 1, "entries": [[[0.0, -Infinity]]]}',
            # nested past the stack: orjson reads any depth, and the format
            # check refuses it, showing a refused dim three levels deep;
            # json.loads, which alone reads the NaN, runs out of stack
            "[" * 100_000 + "]" * 100_000,
            '{"dim": 2, "entries": ' + "[" * 2000 + "]" * 2000 + "}",
            '{"dim": ' + "[" * 100_000 + "]" * 100_000 + ', "entries": []}',
            "[" * 100_000 + "NaN" + "]" * 100_000,
        ],
        ids=[
            "string-entry", "scalar-entries", "triple", "no-dim", "list", "nan", "order-0",
            "string-dim", "float-dim", "bool-dim", "ragged", "1e400", "-infinity",
            "deep-array", "deep-entries", "deep-dim", "deep-nan",
        ],
    )
    def test_malformed_matrix_file_exit_4(self, workdir, capsys, body):
        (workdir / "m.json").write_text(body)
        assert run_cli("expm", "--in", "m.json") == 4
        err = capsys.readouterr().err
        assert err.startswith("error [MatrixFormatError]") and err.count("\n") == 1

    def test_long_dim_list_exits_4_with_a_short_message(self, workdir, capsys):
        # the full repr of the list would be a 600,000-byte line
        (workdir / "m.json").write_text(json.dumps({"dim": [0] * 200_000, "entries": []}))
        assert run_cli("expm", "--in", "m.json") == 4
        assert capsys.readouterr().err == (
            "error [MatrixFormatError]: matrix JSON 'dim' must be an integer, "
            "got [0, 0, 0, 0, 0, 0, ...]\n"
        )

    def test_deeply_nested_file_exits_4_in_a_fresh_process(self, workdir):
        (workdir / "m.json").write_text("[" * 100_000 + "NaN" + "]" * 100_000)
        src = pathlib.Path(cli.__file__).parents[1]
        result = subprocess.run(
            [sys.executable, "-m", "expnet", "expm", "--in", "m.json"],
            capture_output=True, text=True, cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 4
        assert result.stderr == "error [MatrixFormatError]: m.json nests too deeply to decode\n"

    def test_integer_entries_past_64_bits_read_as_floats(self, workdir, capsys):
        # orjson reads these literals as the floats they round to; json.loads
        # kept them as integers, which made an object array the format refused
        big = (2**64, 10**20 + 1, -(2**63) - 1)
        (workdir / "m.json").write_text(
            f'{{"dim": 2, "entries": [[[{big[0]}, 0], [0, 0]], [[{big[1]}, {big[2]}], [1, 0]]]}}'
        )
        expected = linalg.cmatrix([[float(big[0]), 0], [float(big[1]) + 1j * float(big[2]), 1]])
        assert linalg.load_matrix(workdir / "m.json").tobytes() == expected.tobytes()
        assert run_cli("expm", "--in", "m.json") == 5  # read, then too large for expm
        assert "error [OverflowError]" in capsys.readouterr().err

    def test_dim_past_64_bits_is_not_an_integer(self, workdir, capsys):
        # orjson reads the literal as a float, which is refused as a dim
        (workdir / "m.json").write_text(
            '{"dim": 18446744073709551616, "entries": [[[1.0, 0.0]]]}'
        )
        assert run_cli("expm", "--in", "m.json") == 4
        err = capsys.readouterr().err
        assert err.startswith("error [MatrixFormatError]: matrix JSON 'dim' must be an integer")

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda w: [1, 2], "MatrixFormatError"),
            (lambda w: {k: v for k, v in w.items() if k != "z"}, "MatrixFormatError"),
            (lambda w: {**w, "alpha": "x"}, "MatrixFormatError"),
            (lambda w: {**w, "alpha": True}, "MatrixFormatError"),
            (lambda w: {**w, "alpha": None}, "MatrixFormatError"),
            (lambda w: {**w, "w1": 5}, "MatrixFormatError"),
            (lambda w: {**w, "w2": linalg.matrix_to_json(np.eye(3))}, "DimensionError"),
        ],
        ids=[
            "list", "no-z", "string-alpha", "bool-alpha", "null-alpha", "scalar-w1",
            "mixed-size",
        ],
    )
    def test_malformed_weights_file_exit_4(self, workdir, capsys, edit, error):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        weights = json.loads((workdir / "inst/weights.json").read_text())
        (workdir / "w.json").write_text(json.dumps(edit(weights)))
        assert run_cli("verify", "--instance", "inst", "--weights", "w.json") == 4
        assert f"error [{error}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["logm", "--in", "inst/y1.json"], "inst/y1.json"),
            (["verify", "--instance", "inst", "--weights", "inst/weights.json"],
             "inst/weights.json"),
            (["solve", "--instance", "inst"], "inst/x1.json"),
        ],
        ids=["matrix", "weights", "manifest"],
    )
    def test_file_that_is_not_utf8_exit_4(self, workdir, capsys, argv, bad):
        run_cli("gen", "--dim", "2", "--seed", "3", "--out", "inst")
        assert run_cli("solve", "--instance", "inst") == 0
        (workdir / bad).write_bytes(b"\xff\xfe{\x00\"\x00d\x00")
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert "error [MatrixFormatError]" in err and "not UTF-8" in err

    def test_branch_offset_flag(self, workdir):
        a = random_matrix(2, seed=5)
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

    def test_divergent_seed_is_printed_and_recorded(self, workdir, capsys):
        # one relu step at this rate takes seed 3's score from 0.6748 to 18.20
        argv = ("experiment", "--dim", "4", "--activation", "relu", "--steps", "1",
                "--seeds", "3", "--lr", "0.1", "--out", "t.csv")
        assert run_cli(*argv) == 0
        assert "divergent seeds: 1 of 1" in capsys.readouterr().out.splitlines()
        sidecar = json.loads((workdir / "t.config.json").read_text())
        assert [run["diverged"] for run in sidecar["summary"]["runs"]] == [True]

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

    @pytest.mark.parametrize("lr, code", [("1e307", 0), ("1e308", 3)])
    def test_huge_learning_rate_prints_no_warning(self, workdir, lr, code):
        # a child process with the default warning filters: an overflow
        # warning would reach its stderr instead of failing the test
        src = pathlib.Path(cli.__file__).parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "expnet", "experiment", "--dim", "2", "--steps", "20",
             "--seeds", "1..5", "--lr", lr, "--out", "t.csv"],
            capture_output=True, text=True, cwd=workdir,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.returncode == code, out.stderr
        assert "Warning" not in out.stderr
        if code == 3:
            assert out.stderr.startswith("error [MaxResampleError]: seed 5")

    def test_repeated_seed_exit_2(self, workdir, capsys):
        # a repeated seed would run twice and write its trace rows twice
        code = run_cli("experiment", "--dim", "2", "--steps", "3", "--seeds", "1..3,2",
                       "--out", "t.csv")
        assert code == 2
        assert "seeds must be distinct, got 2 more than once" in capsys.readouterr().err
        assert not list(workdir.iterdir())

    def test_bad_seeds_exit_2(self, workdir):
        assert run_cli("experiment", "--dim", "3", "--seeds", "9..1") == 2

    @pytest.mark.parametrize(
        "seeds, shown",
        [
            (",,," + "x" * 100_000, "',,,xxxxxxxxx...xxxxxxxxxxxxx'"),
            ("1," + "7" * 5_000, "'1,7777777777...7777777777777'"),
            ("1.." + "7" * 5_000, "'1..777777777...7777777777777'"),
        ],
        ids=["long-text", "long-seed", "long-range"],
    )
    def test_long_seeds_exit_2_with_a_short_message(self, workdir, capsys, seeds, shown):
        # the full text, or Python's digit-limit message, would be printed
        assert run_cli("experiment", "--dim", "3", "--seeds", seeds) == 2
        assert capsys.readouterr().err == (
            "error [ValueError]: --seeds must be integers and ascending ranges lo..hi, "
            f"got {shown}\n"
        )
        assert not list(workdir.iterdir())

    def test_a_billion_seeds_exit_2(self, workdir, capsys):
        assert run_cli("experiment", "--dim", "3", "--seeds", "1..1000000000") == 2
        assert capsys.readouterr().err == (
            f"error [ValueError]: --seeds must name at most {cli.MAX_SEEDS} seeds, "
            "got '1..1000000000'\n"
        )
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize(
        "seeds", [("--seeds", "-3"), ("--seeds", "1,-1"), ("--seeds=-2..1",)]
    )
    def test_negative_seed_exit_2(self, workdir, capsys, seeds):
        # the experiment config refuses it before any seed runs
        assert run_cli("experiment", "--dim", "3", *seeds) == 2
        assert "seeds must be nonnegative integers" in capsys.readouterr().err
        assert not list(workdir.iterdir())

    @pytest.mark.parametrize(
        "dim, steps", [("2.5", "5"), ("0", "5"), ("3", "1.5"), ("3", "-1")]
    )
    def test_bad_dim_or_steps_exit_2(self, workdir, dim, steps):
        # argparse refuses a non-integer, the experiment config a bad sign
        assert run_cli("experiment", "--dim", dim, "--steps", steps) == 2
        assert not list(workdir.iterdir())

    def test_usage_error_unknown_flag(self, capsys):
        assert run_cli("gen", "--dimension", "4") == 2


class TestInProcessRun:
    """``cli.run`` returns argparse's exit code and reuses one parser."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["gen", "--dim", "x", "--seed", "1"], ["frobnicate"]],
        ids=["missing-flag", "bad-type", "unknown-command"],
    )
    def test_usage_error_returns_2(self, capsys, argv):
        assert cli.run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: expnet")

    def test_help_returns_0(self, capsys):
        assert cli.run(["--help"]) == 0
        out, err = capsys.readouterr()
        assert "usage" in out
        assert err == ""

    def test_flag_values_do_not_carry_over(self, workdir, capsys):
        run_cli("gen", "--dim", "3", "--seed", "5", "--out", "inst")
        assert run_cli("solve", "--instance", "inst", "--weights-out", "other.json") == 0
        assert (workdir / "other.json").exists()
        assert not (workdir / "inst/weights.json").exists()
        (workdir / "other.json").unlink()
        assert run_cli("solve", "--instance", "inst") == 0
        assert (workdir / "inst/weights.json").exists()
        assert not (workdir / "other.json").exists()

    def test_usage_error_then_valid_command(self, workdir, capsys):
        assert run_cli("solve") == 2
        assert run_cli("gen", "--dim", "2", "--seed", "1") == 0
        assert (workdir / "instance-d2-s1/instance.json").exists()

    def test_chains_match_a_fresh_process(self, workdir, capsys):
        def chain(where):
            inst = f"{where}/inst"
            steps = (
                ["gen", "--dim", "4", "--seed", "3", "--out", inst],
                ["solve", "--instance", inst],
                ["verify", "--instance", inst, "--weights", f"{inst}/weights.json",
                 "--report-out", f"{where}/verify.json"],
                ["eval", "--weights", f"{inst}/weights.json", "--in", f"{inst}/x1.json",
                 "--out", f"{where}/fx1.json"],
                ["logm", "--in", f"{inst}/y1.json", "--out", f"{where}/y1.logm.json"],
            )
            for argv in steps:
                assert cli.run(argv) == 0, argv

        chain("a")
        chain("b")
        src = pathlib.Path(cli.__file__).parents[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "expnet", "solve", "--instance", "a/inst",
             "--weights-out", "fresh-weights.json", "--report-out", "fresh-report.json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert fresh.returncode == 0, fresh.stderr
        for name in ("inst/instance.json", "inst/x1.json", "inst/weights.json",
                     "inst/report.json", "verify.json", "fx1.json", "y1.logm.json"):
            assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()
        assert (workdir / "fresh-weights.json").read_bytes() == (
            workdir / "a/inst/weights.json"
        ).read_bytes()
        report = (workdir / "a/inst/report.json").read_bytes()
        assert (workdir / "fresh-report.json").read_bytes() == report
        assert (workdir / "a/verify.json").read_bytes() == report
