"""The example scripts run end to end on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expect", [
    # at degree 4 the reduction stops on the copies' degree and says so
    ("run_pipeline.py", ["--n", "5", "--l", "2", "--q", "2", "--eps", "0"], ["rt_stop=degree"]),
    # a noisy instance runs the interior-point method, whose convergence is printed
    ("run_pipeline.py", ["--n", "4", "--l", "2", "--q", "3", "--eps", "0.5", "--seed", "2"],
     ["solver=ipm", "status=optimal", "iterations=", "gap="]),
    ("structure_report.py", ["--n", "3", "--l", "2", "--t", "1"], []),
], ids=["run_pipeline", "run_pipeline_ipm", "structure_report"])
def test_script_runs(script, args, expect):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() and all(e in res.stdout for e in expect)


def _trace_diff(tmp_path, a, b, tol):
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_diff.py"),
                           str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--tol", str(tol)],
                          capture_output=True, text=True, timeout=60)


def test_trace_diff_reports_structure_and_the_largest_deviation_per_path(tmp_path):
    a = {"records": [{"mi": 0.5, "ok": True}, {"mi": 0.25, "ok": True}], "config": {"seed": 1}}
    b = {"records": [{"mi": 0.5 + 1e-10, "ok": True}, {"mi": 0.25 + 3e-10, "ok": True}],
         "config": {"seed": 1}}
    assert _trace_diff(tmp_path, a, a, 0.0).returncode == 0
    res = _trace_diff(tmp_path, a, b, 1e-12)
    assert res.returncode == 1 and "over records.mi: max abs 3e-10" in res.stdout
    assert _trace_diff(tmp_path, a, b, 1e-9).returncode == 0
    for changed in ({"records": a["records"], "config": {}},
                    {"records": a["records"][:1], "config": {"seed": 1}},
                    {"records": [{"mi": 0.5, "ok": False}, a["records"][1]], "config": {"seed": 1}}):
        res = _trace_diff(tmp_path, a, changed, 1.0)
        assert res.returncode == 1 and res.stdout.startswith("structure ")


def test_trace_diff_compares_the_same_named_files_of_two_directories(tmp_path):
    doc = {"records": [{"mi": 0.5, "ok": True}], "config": {"seed": 1}}
    moved = {"records": [{"mi": 0.5 + 1e-10, "ok": True}], "config": {"seed": 1}}
    a, b = tmp_path / "a", tmp_path / "b"
    for d, docs in ((a, {"same.json": doc, "moved.json": doc, "only_a.json": doc}),
                    (b, {"same.json": doc, "moved.json": moved})):
        d.mkdir()
        for name, content in docs.items():
            (d / name).write_text(json.dumps(content))

    def run(tol):
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_diff.py"),
                               str(a), str(b), "--tol", str(tol)],
                              capture_output=True, text=True, timeout=60)

    res = run(1e-12)
    lines = res.stdout.splitlines()
    assert res.returncode == 1 and lines
    assert all(line.startswith(("same.json: ", "moved.json: ", "only_a.json: ")) for line in lines)
    assert "moved.json: over records.mi: max abs 1e-10" in lines[0]
    assert "only_a.json: only in A" in lines
    assert "same.json: 0 structural difference(s), 0 path(s) above tol 1e-12" in lines
    (a / "only_a.json").unlink()
    assert run(1e-9).returncode == 0 and run(1e-12).returncode == 1
