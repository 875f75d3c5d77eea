"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench

Smoke runs of every workload in both modes check the printed metrics
against BENCHMARK.json; the remaining tests show that each output check
rejects a deliberately perturbed output, so no check is vacuous.
"""

import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace, section):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if section == "end_to_end":
        assert all(v > 0 for v in values.values())
    elif workload == "descent":
        assert values["matfuncs.expm.calls"] == values["matfuncs.logm.calls"] == 0
    # Only the fixed fault instances fail, once per round.
    if workload == "interp-battery":
        battery = workloads.InterpBattery
        per_round = len(battery.dims) * battery.per_round + len(workloads.FAULT_INSTANCES)
        assert result["failed"] * per_round == result["attempted"] * len(workloads.FAULT_INSTANCES)
    else:
        assert result["failed"] == 0


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    out = bench("interp-battery", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_nudged_outputs_fail_the_interpolation_check():
    quad = workloads.draw_quadruples(np.random.default_rng(0), 4, 1)[0]
    w = workloads.InterpBattery.interpolate(quad)
    assert workloads.check_interpolant(w.w1, w.w2, w.w3, w.z, quad)[0]
    w3 = np.array(w.w3)
    w3[0, 0] *= 1 + 1e-4
    assert not workloads.check_interpolant(w.w1, w.w2, w3, w.z, quad)[0]
    z = np.array(w.z)
    z[1, 0] += 1e-6
    assert not workloads.check_interpolant(w.w1, w.w2, w.w3, z, quad)[0]


def test_a_warning_fails_a_battery_operation(monkeypatch):
    battery = workloads.InterpBattery(0, None)
    quad = battery.pool[2][0]
    assert not battery.op(2, quad, run.Timer()).failed
    interpolate = workloads.InterpBattery.interpolate

    def noisy(quad):
        warnings.warn("overflow encountered", RuntimeWarning)
        return interpolate(quad)

    monkeypatch.setattr(workloads.InterpBattery, "interpolate", staticmethod(noisy))
    assert battery.op(2, quad, run.Timer()).failed


def test_nudged_files_fail_the_chain_check(tmp_path):
    assert workloads.CliPipeline.chain(8, 3, tmp_path) == 0
    files = (tmp_path / "inst", tmp_path / "fx1.json", tmp_path / "y1.logm.json")
    assert workloads.check_chain(*files)[0]
    for path, key in ((files[0] / "weights.json", "w3"), (files[1], None), (files[2], None)):
        original = path.read_text()
        obj = json.loads(original)
        (obj[key] if key else obj)["entries"][0][0][0] += 1e-4
        path.write_text(json.dumps(obj))
        assert not workloads.check_chain(*files)[0], path.name
        path.write_text(original)


def test_descent_checks_reject_bad_traces():
    assert workloads.check_trace([0.9, 0.5, 0.1])
    assert not workloads.check_trace([0.9, float("nan")])
    assert not workloads.check_trace([0.9, -1e-3])
    good = [SimpleNamespace(s_values=(0.9, 0.1))] * 3
    stalled = [SimpleNamespace(s_values=(0.6, 0.55))] * 3
    assert workloads.check_descent_medians({("sigmoid", 8): good}) == []
    assert len(workloads.check_descent_medians({("sigmoid", 8): stalled})) == 1
    assert len(workloads.check_descent_medians({("sigmoid", 4): [SimpleNamespace(s_values=(0.5, 0.6))]})) == 1


def test_tracer_fails_loudly_on_a_missing_or_silent_layer(monkeypatch):
    import expnet.matfuncs

    monkeypatch.delattr(expnet.matfuncs, "logm")
    with pytest.raises(RuntimeError, match="logm"):
        tracing.Tracer().install()
    monkeypatch.undo()
    silent = SimpleNamespace(name="descent", layers=("experiment.run_experiment",))
    with pytest.raises(RuntimeError, match="run_experiment"):
        run.per_layer(silent, tracing.Tracer(), run.Timer(), [], [])
