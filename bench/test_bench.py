"""Tests of the harness: span self time, aggregation, naming, and output checks.

Run with `python -m pytest bench`.  They run no workload; one test patches the
library and relaxes a 6-vertex instance, one stubs the library under the solve check.
"""

import json
import re
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, layer_self_times, self_times, totals  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > solve [1, 9] > ipm [2, 7]; relax [9, 10] under op
    spans = [Span("bench.op", 0, 10, None, 1), Span("sos.solve", 1, 9, 0, 1),
             Span("sdp.solve_ipm", 2, 7, 1, 1), Span("sos.relax", 9, 10, 0, 1)]
    assert self_times(spans) == [1, 3, 5, 1]
    assert sum(self_times(spans)) == 10   # self times tile the root span


def test_tracer_nesting_and_totals():
    tr = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    tr.op = 1
    with tr.span("bench.op"):
        with tr.span("sos.relax"):
            pass
        with tr.span("sos.relax"):
            pass
    assert [sp.parent for sp in tr.spans] == [None, 0, 0]
    t = totals(tr.spans)
    assert t["sos.relax"] == {"calls": 2, "s": 4.0, "self_s": 4.0}
    assert t["bench.op"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert layer_self_times(tr.spans) == {"bench": 6.0, "sos": 4.0}


def test_setup_spans_are_left_out_of_operation_totals():
    tr = Tracer(clock=fake_clock([0.0, 2.0, 2.0, 5.0]))
    with tr.span("ug_core.plant"):
        pass
    tr.op = 1
    with tr.span("bench.op"):
        pass
    assert "ug_core.plant" not in totals(tr.spans, ops_only=True)
    assert totals(tr.spans)["ug_core.plant"]["s"] == 2.0
    assert layer_self_times(tr.spans) == {"bench": 3.0}


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=fake_clock([0.0, 1.5]))
    with pytest.raises(RuntimeError):
        with tr.span("sos.solve"):
            raise RuntimeError
    assert tr.stack == [] and tr.spans[0].end == 1.5


def test_spanned_wrapper_runs_observers_on_the_result():
    tr = Tracer(clock=fake_clock([0.0, 1.0]))
    seen = []
    tr.observe("x.f", lambda span, res: seen.append((span.end - span.start, res)))
    assert tr._spanned("x.f", lambda a: a + 1)(1) == 2
    assert seen == [(1.0, 2)]


def test_counted_wrapper_counts_calls():
    tr = Tracer()
    f = tr._counted("n", lambda: 7)
    assert [f(), f()] == [7, 7] and tr.counts["n"] == 2


def test_quartiles_match_statistics_quantiles():
    vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = stats.quartiles(vals)
    assert (q1, q2, q3) == tuple(statistics.quantiles(vals, n=4))
    assert stats.spread(vals) == pytest.approx((q3 - q1) / q2)
    assert stats.median(vals) == statistics.median(vals)


def test_spread_of_a_single_value_and_of_zeros():
    assert stats.spread([2.0]) == 0.0
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def test_frac_of_nothing_attempted_is_zero():
    assert stats.frac(0, 0) == 0.0 and stats.frac(1, 4) == 0.25


def test_metric_refuses_values_json_cannot_carry():
    assert stats.metric(1, "s") == {"value": 1.0, "unit": "s"}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            stats.metric(bad, "s")
    with pytest.raises(ValueError):
        stats.metric(1.0, "seconds per op")


def test_metric_names_are_valid_and_unique():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + list(run.RUN_FIGURES)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert all(name_re.match(n) for n in names)
    assert len(set(run.END_TO_END) | set(run.PER_LAYER)) == len(run.END_TO_END) + len(run.PER_LAYER)
    assert set(run.RUN_FIGURES).isdisjoint(run.END_TO_END)
    assert {f"run.{n}" for n in run.RUN_FIGURES} <= set(run.PER_LAYER)


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        unit = run.END_TO_END.get(m["name"]) or run.PER_LAYER[m["name"]]
        assert m["unit"] == unit
    # round_warm runs by hand only: its one 30-40 s operation fills a whole run
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in run.WORKLOAD_NAMES if n != "round_warm"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_runner_refuses_a_directory_without_the_library(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "solve_d2", "--seed", "1", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "no library sources" in out.err


def test_installed_patches_every_binding_and_undoes_them():
    sys.path.insert(0, str(ROOT / "src"))
    from ugjohnson import johnson, rounding, sdp, sos, ug_core

    orig_ipm, orig_relax = sdp.solve_ipm, sos.relax
    orig_moment = vars(sos.SolvedPE)["moment"]
    tr = Tracer()
    with tr.installed():
        assert vars(sos.SolvedPE)["moment"] is not orig_moment
        # sos imported solve_ipm by name; both bindings point at one wrapper
        assert sos.solve_ipm is sdp.solve_ipm is not orig_ipm
        assert rounding.sos.relax is sos.relax is not orig_relax
        inst, _ = ug_core.plant(johnson.build(4, 2, 0.5), 2, ug_core.PlantedSpec(0.5, 1))
        tr.op = 1
        with tr.span("bench.op"):
            sos.relax(inst, 2)
    assert sdp.solve_ipm is sos.solve_ipm is orig_ipm and sos.relax is orig_relax
    assert vars(sos.SolvedPE)["moment"] is orig_moment
    assert [(sp.name, sp.parent, sp.op) for sp in tr.spans] == [
        ("johnson.build", None, 0), ("ug_core.plant", None, 0),
        ("bench.op", None, 1), ("sos.relax", 2, 1)]
    assert set(tr.counts) >= {"sos.moment.calls.SolvedPE", "potentials.joint.calls"}


def test_solve_check_takes_validate_ok_and_refuses_a_missing_moment_matrix(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    info = {"certified": True, "gap": 0.0, "objective": 0.9, "warm_value": 0.9,
            "method": "ipm", "status": "optimal"}
    # a negative pair-marginal entry is the one residual validate folds only into "ok"
    rep = {"ok": False, "min_eig": 0.0, "scaling_residual": 0.0, "marginal_min_entry": -1e-3}
    monkeypatch.setattr(workloads.sos, "relax", lambda inst, D: None)
    monkeypatch.setattr(workloads.sos, "solve", lambda rel: SimpleNamespace(solve_info=info))
    monkeypatch.setattr(workloads.sos, "validate", lambda pe: rep)
    op = workloads.WORKLOADS["solve_d4"].run
    case = workloads.Case("c", None, None, workloads.SOLVE_EPS, 1)
    assert "marginal_min_entry" in " ".join(op(case).problems)
    rep["ok"] = True
    assert op(case).problems == []
    rep["min_eig"] = None
    assert op(case).problems == ["validate built no moment matrix"]


def run_stub_workload(monkeypatch, tmp_path, capsys, op):
    """Runs run.main on three stub cases whose operation is `op`; returns the result line."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cases = [workloads.Case(f"c{k}", None, None, 0.0, k) for k in range(3)]
    stub = workloads.Workload("solve_d2", lambda seed: cases, op)
    monkeypatch.setitem(workloads.WORKLOADS, "solve_d2", stub)
    monkeypatch.setattr(run, "time_setup", lambda workload, seed: 0.5)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "solve_d2", "--seed", "1", "--seconds", "0.05"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_attempted_and_failed_count_one_pass_whatever_the_number_of_passes(
        monkeypatch, tmp_path, capsys):
    import time
    import workloads

    def op(case):
        time.sleep(0.005)
        if case.seed == 1:
            raise RuntimeError("stub failure")
        return workloads.Outcome(digest=case.label.encode())

    res = run_stub_workload(monkeypatch, tmp_path, capsys, op)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 3, 1)
    record = json.loads((tmp_path / "solve_d2-seed1-trace0.json").read_text())
    assert record["passes"] >= 2 and set(record["pass_failed"]) == {1}


def test_a_failure_that_comes_and_goes_between_passes_makes_the_run_incorrect(
        monkeypatch, tmp_path, capsys):
    import time
    import workloads

    calls = []

    def op(case):
        time.sleep(0.005)
        calls.append(case.seed)
        if case.seed == 1 and len(calls) > 3:   # raises from the second pass on
            raise RuntimeError("stub failure")
        return workloads.Outcome(digest=case.label.encode())

    res = run_stub_workload(monkeypatch, tmp_path, capsys, op)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 3, 0)
