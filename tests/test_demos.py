"""Smoke test: every demo runs to the end.

02, 04 and 06 drive constant, cosine-bundle and zero programs through the
integrator's forcing evaluator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_saturating_mode_sets.py",
                                  "02_vorticity_simulation.py",
                                  "03_relaxation_and_chattering.py",
                                  "04_mode_cascade_averaging.py",
                                  "05_endpoint_steering.py",
                                  "06_projection_steering.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
