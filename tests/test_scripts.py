"""The example scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("run_pipeline.py", ["--n", "5", "--l", "2", "--q", "2", "--eps", "0"]),
    ("structure_report.py", ["--n", "3", "--l", "2", "--t", "1"]),
], ids=["run_pipeline", "structure_report"])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
