"""Each narrative script under demos/ runs to completion without complaint."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "bound_landscape",
    "cloner_in_action",
    "family_constraints",
    "pauli_toolkit_tour",
    "remote_axis_game",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
