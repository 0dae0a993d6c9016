import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ugjohnson
from ugjohnson import cli, sos, ug_core
from ugjohnson.cli import main
from ugjohnson.monomials import monomial_name


def test_generate_solve_round(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["generate", "--n", "5", "--l", "2", "--alpha", "0.5",
                 "--q", "2", "--eps", "0.0", "--seed", "3",
                 "--out", str(inst)]) == 0
    rep = tmp_path / "solve.json"
    pe = tmp_path / "pe.json"
    assert main(["solve", "--instance", str(inst), "--degree", "4",
                 "--out", str(pe), "--report", str(rep)]) == 0
    solve_rep = json.loads(rep.read_text())
    assert solve_rep["ok"]
    assert solve_rep["objective"] == pytest.approx(1.0, abs=1e-6)
    trace = tmp_path / "trace.json"
    rrep = tmp_path / "round.json"
    assert main(["round", "--instance", str(inst), "--eps", "0.0",
                 "--degree", "4", "--out", str(trace), "--report", str(rrep)]) == 0
    round_rep = json.loads(rrep.read_text())
    assert round_rep["achieved_value"] >= 0.9
    assert round_rep["brute_force_opt"] == pytest.approx(1.0)
    assert "input_hash" in round_rep["config"]
    assert 0 <= round_rep["checks_could_fail"] <= 3 * round_rep["iterations"]
    assert "SubRound checks could have failed" in capsys.readouterr().out


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["generate", "--n", "6", "--l", "2", "--alpha", "0.5", "--q", "3",
              "--eps", "0.2", "--seed", "11", "--out", str(out)])
    assert a.read_text() == b.read_text()


def test_generate_realized_value_recorded(tmp_path):
    out = tmp_path / "i.json"
    main(["generate", "--n", "6", "--l", "2", "--alpha", "0.5", "--q", "2",
          "--eps", "0.2", "--seed", "4", "--out", str(out)])
    d = json.loads(out.read_text())
    assert 0.0 <= d["metadata"]["planted"]["realized_value"] <= 1.0


def test_spectra_command():
    assert main(["spectra", "--n", "3", "--l", "2", "--alpha", "0.5"]) == 0


def test_verify_suites_exit_codes():
    assert main(["verify", "--suite", "steppoly"]) == 0
    assert main(["verify", "--suite", "nonsense"]) == 2


def test_verify_pe_without_a_file_exits_2(capsys):
    assert main(["verify", "--suite", "pe"]) == 2
    assert "--pe-file" in capsys.readouterr().err


def test_verify_pe_fault_injection(tmp_path):
    inst = tmp_path / "inst.json"
    main(["generate", "--n", "5", "--l", "2", "--alpha", "0.5", "--q", "2",
          "--eps", "0.3", "--seed", "5", "--out", str(inst)])
    pe = tmp_path / "pe.json"
    main(["solve", "--instance", str(inst), "--degree", "4", "--out", str(pe)])
    assert main(["verify", "--suite", "pe", "--pe-file", str(pe)]) == 0
    d = json.loads(pe.read_text())
    key = next(k for k in d["table"] if k != "1" and "|" not in k)
    d["table"][key] += 1.0
    bad = tmp_path / "pe_bad.json"
    bad.write_text(json.dumps(d))
    rep = tmp_path / "bad_rep.json"
    assert main(["verify", "--suite", "pe", "--pe-file", str(bad),
                 "--report", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["failed_invariants"]
    h = d["header"]
    classes = sos.monomial_classes(h["n"], h["q"], h["degree"], True)
    y = [d["table"][monomial_name(m)] for m in classes]
    assert report["failed_invariants"] == sos.validate(
        sos.SolvedPE(h["n"], h["q"], h["degree"], y))["failed"]


@pytest.fixture(scope="module")
def solved_file(tmp_path_factory):
    """A planted J(5,2,1) instance file and its `solve --out` table file."""
    tmp = tmp_path_factory.mktemp("pe")
    inst, pe = tmp / "inst.json", tmp / "pe.json"
    main(["generate", "--n", "5", "--l", "2", "--alpha", "0.5", "--q", "2",
          "--eps", "0.3", "--seed", "5", "--out", str(inst)])
    main(["solve", "--instance", str(inst), "--degree", "4", "--out", str(pe)])
    return inst, pe


def test_pe_file_round_trip_is_bitwise(solved_file):
    inst, path = solved_file
    pe = sos.solve(sos.relax(ug_core.load(str(inst)), 4))
    loaded = cli._load_pe_file(str(path))
    assert loaded.y.dtype == pe.y.dtype and loaded.y.tobytes() == pe.y.tobytes()
    assert sos.validate(loaded) == sos.validate(pe)


@pytest.mark.parametrize("change, named", [
    (lambda d: d["table"].pop("X:0:1|X:1:1"), "missing key X:0:1|X:1:1"),
    (lambda d: d["table"].update({"X:3:0": 0.7}), "unexpected key X:3:0"),
    (lambda d: d.pop("header"), "missing key header"),
    (lambda d: d.pop("table"), "missing key table"),
    *[(lambda d, k=k: d["header"].pop(k), f"missing key header.{k}")
      for k in ("n", "q", "degree")],
    (None, "No such file or directory"),  # no file is written
], ids=["missing", "unexpected", "no-header", "no-table", "no-n", "no-q", "no-degree",
        "no-file"])
def test_verify_pe_names_a_missing_or_unexpected_key(solved_file, tmp_path, capsys,
                                                      change, named):
    # bad input exits 2 with one line; 1 means the table failed validation
    d = json.loads(solved_file[1].read_text())
    bad = tmp_path / "pe_bad.json"
    if change is not None:
        change(d)
        bad.write_text(json.dumps(d))
    assert main(["verify", "--suite", "pe", "--pe-file", str(bad)]) == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1


def test_config_file_overrides(tmp_path):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[DEFAULT]\nq = 3\neps = 0.1\n")
    out = tmp_path / "i.json"
    assert main(["generate", "--n", "5", "--l", "2", "--alpha", "0.5",
                 "--seed", "0", "--out", str(out), "--config", str(cfgfile)]) == 0
    d = json.loads(out.read_text())
    assert d["q"] == 3
    assert d["metadata"]["planted"]["epsilon"] == 0.1


def _generate_with_config(tmp_path, text, *flags):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "i.json"
    assert main(["generate", "--n", "5", "--l", "2", "--alpha", "0.5", "--seed", "0",
                 "--out", str(out), *flags, "--config", str(cfgfile)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("text", ["q = 3\neps = 0.1\n", "[generate]\nq = 3\neps = 0.1\n",
                                  "q = 2\n[generate]\nq = 3\neps = 0.1\n[solve]\nseed = 9\n"],
                         ids=["flat", "named-section", "section-over-defaults"])
def test_config_file_layouts(tmp_path, text):
    d = _generate_with_config(tmp_path, text)
    assert d["q"] == 3
    assert d["metadata"]["planted"]["epsilon"] == 0.1


@pytest.mark.parametrize("flags", [("--q", "2"), ("--q=2",)], ids=["space", "equals"])
def test_explicit_flag_beats_config_file(tmp_path, flags):
    d = _generate_with_config(tmp_path, "[DEFAULT]\nq = 3\neps = 0.1\n", *flags)
    assert d["q"] == 2
    assert d["metadata"]["planted"]["epsilon"] == 0.1


def _generate_from_file(tmp_path, text, *flags):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(text)
    out = tmp_path / "i.json"
    code = main(["generate", "--out", str(out), *flags, "--config", str(cfgfile)])
    return code, json.loads(out.read_text())


def test_config_file_supplies_required_flags(tmp_path):
    code, d = _generate_from_file(tmp_path, "n = 5\nl = 2\nalpha = 0.5\n")
    assert code == 0 and d["n_vertices"] == 10  # J(5,2,1)


def test_explicit_flag_beats_a_required_flag_from_the_file(tmp_path):
    code, d = _generate_from_file(tmp_path, "n = 5\nl = 2\nalpha = 0.5\n", "--n", "6")
    assert code == 0 and d["n_vertices"] == 15  # J(6,2,1)


def test_required_flag_missing_from_file_and_flags_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        _generate_from_file(tmp_path, "n = 5\nl = 2\n")
    assert err.value.code == 2
    msg = capsys.readouterr().err
    assert "required: --alpha" in msg and "--n" not in msg.split("required:")[1]


def test_config_value_takes_the_flag_type(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_round", lambda args: seen.append(args) or 0)
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text("[DEFAULT]\nbrute_budget = 60\neps = 0.25\n")
    assert main(["round", "--instance", "unused.json", "--config", str(cfgfile)]) == 0
    assert seen[0].brute_budget == 60 and seen[0].eps == 0.25


def _threads_after(code: str, **env_extra: str) -> int:
    """Thread count of a fresh interpreter after it runs `code`, BLAS variables unset."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("UGHC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(ugjohnson.__file__).parents[1])
    env.update(env_extra)
    code += "\nprint(open('/proc/self/status').read())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return int(re.search(r"^Threads:\s+(\d+)", out, re.M).group(1))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_ughc_threads_caps_blas_threads():
    run_cli = "from ugjohnson.cli import main\nmain(['spectra', '--n', '4', '--l', '2', '--alpha', '0.5'])"
    assert _threads_after(run_cli, UGHC_THREADS="1") == 1
    # unset, the cap leaves BLAS at its own default
    assert _threads_after(run_cli) == _threads_after("import numpy")
