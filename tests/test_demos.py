"""Smoke test: the demos run to completion with warnings as errors."""

import os
import pathlib
import subprocess
import sys

import pytest

import expnet

DEMOS = pathlib.Path(__file__).parents[1] / "demos"
SRC = pathlib.Path(expnet.__file__).parents[1]


# 03_elementwise_descent.py is left out: it takes seconds, and acceptance
# criterion 6 already runs its configurations
@pytest.mark.parametrize(
    "demo", ["01_matrix_functions.py", "02_closed_form_interpolation.py"]
)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
