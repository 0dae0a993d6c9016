"""The standard rounding traces that scripts/trace_set.py writes match the set
checked in under tests/traces, to 1e-12 on every number, as
scripts/trace_diff.py compares them.  A change that means to move a trace
regenerates the set and names each moved file:

    PYTHONPATH=src python scripts/trace_set.py tests/traces
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_standard_traces_match_the_checked_in_set(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_set.py"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert len(list(tmp_path.glob("*.json"))) == 18
    diff = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_diff.py"),
                           str(ROOT / "tests" / "traces"), str(tmp_path), "--tol", "1e-12"],
                          capture_output=True, text=True, timeout=60)
    assert diff.returncode == 0, diff.stdout
