"""Command-line harness: instance generation, solving, rounding, verification.

Commands: generate, solve, round, verify, spectra.  All reports are JSON with
a config echo and a content hash of the inputs; a human summary goes to
stdout.  Exit code 0 iff every assertion in the invoked suite passed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _args_dict(args) -> dict:
    return {k: v for k, v in vars(args).items()
            if k != "func" and isinstance(v, (str, int, float, bool, type(None)))}


def _emit(report: dict, out: str | None):
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=float)
    ok = report.get("ok", True)
    print(f"[{'ok' if ok else 'FAIL'}] {report.get('summary', '')}")
    return 0 if ok else 1


def _parse_args(ap: argparse.ArgumentParser, sub, argv) -> argparse.Namespace:
    """Parse argv once; a --config INI file (flat keys or [DEFAULT], overridden by a
    section named after the command) supplies defaults, for required flags too,
    that explicit flags beat."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = sub.choices.get(argv[0] if argv else None)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    if parser and (path := pre.parse_known_args(argv[1:])[0].config):
        cp = configparser.ConfigParser(strict=False)
        with open(path) as fh:
            cp.read_string("[DEFAULT]\n" + fh.read())
        values = cp[argv[0]] if cp.has_section(argv[0]) else cp.defaults()
        for action in parser._actions:
            if action.dest in values and action.dest not in ("help", "config"):
                # argparse converts a string default by the flag's type
                action.required, action.default = False, values[action.dest]
    return ap.parse_args(argv)


def _thread_cap():
    """Pass UGHC_THREADS on to the BLAS thread variables; a no-op when it is unset.

    BLAS reads them once, when numpy is first imported, so this module imports
    numpy only inside the commands, after `main` has called this.
    """
    cap = os.environ.get("UGHC_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)
    return cap


def cmd_generate(args) -> int:
    from . import johnson, ug_core
    g = johnson.build(args.n, args.l, args.alpha)
    inst, A = ug_core.plant(g, args.q, ug_core.PlantedSpec(args.eps, args.seed))
    ug_core.save(inst, args.out)
    realized = inst.metadata["planted"]["realized_value"]
    print(f"[ok] wrote {args.out}: J({args.n},{args.l},{g.t}) q={args.q} "
          f"|V|={g.num_vertices} |E|={inst.num_edges} realized_value={realized:.6f}")
    return 0


def cmd_solve(args) -> int:
    from . import sos, ug_core
    from .monomials import monomial_name
    inst = ug_core.load(args.instance)
    t0 = time.time()
    pe = sos.solve(sos.relax(inst, args.degree), seed=args.seed)
    validation = sos.validate(pe)
    report = {
        "config": _args_dict(args) | {"input_hash": _hash_file(args.instance)},
        "solve_info": pe.solve_info,
        "validation": validation,
        "objective": pe.solve_info["objective"],
        "runtime_s": time.time() - t0,
        "ok": bool(validation["ok"]),
        "summary": f"pE[val] = {pe.solve_info['objective']:.6f} "
                   f"({pe.solve_info['method']}, source {pe.solve_info['source']}), validation "
                   f"{'ok' if validation['ok'] else 'FAILED'}",
    }
    if args.out:
        table = {monomial_name(m): v for m, v in pe.table.items()}
        with open(args.out, "w") as fh:
            json.dump({"header": {"degree": pe.degree, "n": pe.n_vertices,
                                  "q": pe.q, "mode": pe.mode},
                       "table": table}, fh)
        report["pe_file"] = args.out
    return _emit(report, args.report)


def cmd_round(args) -> int:
    from . import rounding, sos, ug_core
    inst = ug_core.load(args.instance)
    cfg = rounding.RoundingConfig.for_instance(inst, eps=args.eps, degree=args.degree,
                                               seed=args.seed)
    t0 = time.time()
    x, trace = rounding.main_algorithm(inst, cfg)
    runtime = time.time() - t0
    could, recorded = trace.could_fail()
    opt = None
    try:
        _, opt = ug_core.brute_force_opt(inst, budget=args.brute_budget)
    except ug_core.EnumerationBudgetError:
        pass
    report = {
        "config": _args_dict(args) | {"input_hash": _hash_file(args.instance)},
        "achieved_value": trace.final_value,
        "brute_force_opt": opt,
        "iterations": len(trace.records),
        "runtime_s": runtime,
        "checks_could_fail": could,
        "ok": True,
        "summary": f"value {trace.final_value:.6f}"
                   + (f" (OPT {opt:.6f})" if opt is not None else "")
                   + f"; {could} of {recorded} SubRound checks could have failed",
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(trace.to_json_lines())
        report["trace_file"] = args.out
    return _emit(report, args.report)


def cmd_spectra(args) -> int:
    import numpy as np

    from .cayley import CayleyDomain
    dom = CayleyDomain(args.n, args.l, round(args.alpha * args.l))
    spec = dom.numeric_spectrum()
    deg = dom.degree_index()
    worst = 0.0
    for T in np.ndindex(dom.shape):
        worst = max(worst, abs(float(spec[T]) - dom.eigenvalue(int(deg[T]))))
    mono = all(dom.eigenvalue(d) <= (1 - dom.alpha) ** d + 1e-12
               for d in range(dom.ell + 1))
    levels = [{"i": d, "lambda": dom.eigenvalue(d)} for d in range(dom.ell + 1)]
    report = {"config": _args_dict(args), "levels": levels, "max_residual": worst,
              "monotone_ok": mono, "ok": worst <= 1e-9 and mono,
              "summary": f"eigenvalue residual {worst:.2e} over {dom.size} characters"}
    return _emit(report, args.report)


def cmd_verify(args) -> int:
    from . import verify as V
    if args.suite == "pe":
        return _verify_pe_file(args)
    suite = {
        "spectra": V.suite_spectra,
        "parseval": V.suite_parseval,
        "steppoly": V.suite_steppoly,
        "potentials": V.suite_potentials,
        "edgecover": V.suite_edgecover,
        "pipeline": V.suite_pipeline,
    }.get(args.suite)
    if suite is None:
        print(f"unknown suite {args.suite}", file=sys.stderr)
        return 2
    t0 = time.time()
    report = suite(seed=args.seed)
    report["runtime_s"] = time.time() - t0
    report["config"] = _args_dict(args)
    report["summary"] = f"suite {args.suite}: " + report.get("summary", "")
    return _emit(report, args.report)


def _load_pe_file(path: str):
    """The SolvedPE of a `solve --out` file; a ValueError names an unreadable
    file or a missing or unexpected key."""
    from . import sos
    from .monomials import monomial_name
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as err:
        raise ValueError(f"{path}: {err.strerror}") from err
    missing = [k for k in ("header", "table") if k not in d] or \
        [f"header.{k}" for k in ("n", "q", "degree") if k not in d["header"]]
    if missing:
        raise ValueError(f"{path}: missing key {missing[0]}")
    (n, q, D), table = (d["header"][k] for k in ("n", "q", "degree")), d["table"]
    names = [monomial_name(m) for m in sos.monomial_classes(n, q, D, True)]
    bad = [f"missing key {k}" for k in names if k not in table] + \
        [f"unexpected key {k}" for k in sorted(table.keys() - set(names))]
    if bad:
        raise ValueError(f"{path}: {bad[0]} ({len(bad)} bad keys)")
    return sos.SolvedPE(n, q, D, [float(table[k]) for k in names])  # in class order


def _verify_pe_file(args) -> int:
    from . import sos
    try:
        if args.pe_file is None:
            raise ValueError("--suite pe needs --pe-file")
        pe = _load_pe_file(args.pe_file)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    rep = sos.validate(pe)
    failed = rep["failed"]
    report = {"config": _args_dict(args), "validation": rep,
              "failed_invariants": failed, "ok": not failed,
              "summary": ("pseudoexpectation valid" if not failed
                          else f"failed invariants: {', '.join(failed)}")}
    return _emit(report, args.report)


def main(argv=None) -> int:
    _thread_cap()
    ap = argparse.ArgumentParser(prog="ugjohnson")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a planted instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--l", type=int, required=True)
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--q", type=int, default=2)
    g.add_argument("--eps", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, required=True)
    g.add_argument("--config", type=str, default=None)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve the SoS relaxation of an instance")
    s.add_argument("--instance", type=str, required=True)
    s.add_argument("--degree", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", type=str, default=None, help="moment table JSON")
    s.add_argument("--report", type=str, default=None)
    s.add_argument("--config", type=str, default=None)
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("round", help="run the full rounding pipeline")
    r.add_argument("--instance", type=str, required=True)
    r.add_argument("--eps", type=float, default=0.0)
    r.add_argument("--degree", type=int, default=4)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--brute-budget", dest="brute_budget", type=int, default=2_000_000)
    r.add_argument("--out", type=str, default=None, help="trace JSON-lines file")
    r.add_argument("--report", type=str, default=None)
    r.add_argument("--config", type=str, default=None)
    r.set_defaults(func=cmd_round)

    c = sub.add_parser("spectra", help="eigenvalue formula vs numeric spectrum")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--report", type=str, default=None)
    c.set_defaults(func=cmd_spectra)

    v = sub.add_parser("verify", help="run a named invariant suite")
    v.add_argument("--suite", type=str, required=True,
                   help="spectra|parseval|steppoly|potentials|edgecover|pipeline|pe")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--pe-file", dest="pe_file", type=str, default=None,
                   help="moment-table JSON for --suite pe")
    v.add_argument("--report", type=str, default=None)
    v.add_argument("--config", type=str, default=None)
    v.set_defaults(func=cmd_verify)

    args = _parse_args(ap, sub, argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
