"""Benchmark runner: one workload, one process, one client, one instance at a time.

    python3 bench/run.py --workload solve_d4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The runner sets the BLAS thread count before
numpy is imported, builds the workload's instances from --seed, then runs
whole passes over them in a closed loop until --seconds have passed (at least
one pass).  Every operation's output is checked.  `attempted` and `failed`
count the operations of one pass over the seed's instances: every later pass
must give the same outputs, failures included, or the run is incorrect, so the
counts depend on the seed and not on how many passes fit in the time.  The last line of standard
output is one JSON object: the end-to-end metrics with --trace 0, and the
per-layer metrics of a traced run with --trace 1.  A fuller record (machine,
versions, commit, per-operation times, output hash, and the spans of a traced
run) goes to .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import stats
from tracing import Tracer, layer_self_times, totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_results"
WORKLOAD_NAMES = ("round_warm", "round_admm", "solve_d4", "solve_d2")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core x86 machine with OpenBLAS 0.3.31, a second thread made
# the eigh of a 407-side matrix 10% faster when idle, and 3x slower while another
# process kept one core busy.
BLAS_THREADS = 1
SETUP_REPEATS = 7
# layers that run inside an operation; ug_core and johnson run only in the set-up
BLOCKING_LAYERS = ("sos", "sdp", "potentials", "rounding")

END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}
# Figures without a bound: they move with the instances a seed draws (how many
# solves fail or stop uncertified) or rest on one sample (the slowest operation).
# Printed on every run, and reported as "run.<name>" by the traced run.
RUN_FIGURES = {
    "op_s.max": "s",
    "failed_frac": "fraction",
    "uncertified_frac": "fraction",
    "gap_max": "fraction",
    "value_mean": "fraction",
}
PER_LAYER = {
    "sos.relax.s": "s",
    "sos.relax.classes": "count",
    "sos.solve.self_s": "s",
    "sos.validate.s": "s",
    "sos.moment.calls.SolvedPE": "count",
    "sos.moment.calls.ShiftSymmetrizedPE": "count",
    "sos.moment.calls.ProductPE": "count",
    "sos.moment.calls.ConditionedPE": "count",
    "sdp.solves": "count",
    "sdp.kept_frac": "fraction",
    "sdp.solve_ipm.s": "s",
    "sdp.solve_ipm.iterations": "count",
    "sdp.solve_ipm.s_per_iter": "s",
    "sdp.solve_admm.s": "s",
    "sdp.solve_admm.iterations": "count",
    "sdp.repair_psd.s": "s",
    "potentials.phi_potential.s": "s",
    "potentials.phi_potential.calls": "count",
    "potentials.psi_potential.s": "s",
    "potentials.joint.calls": "count",
    "rounding.find_event_subcube.s": "s",
    "rounding.rt_reduce.s": "s",
    "rounding.rt_reduce.tuples": "count",
    "rounding.tv_conditioning_check.s": "s",
    "rounding.condition_and_round.s": "s",
    "rounding.subround.self_s": "s",
    "rounding.main_algorithm.self_s": "s",
    "rounding.iterations": "count",
    "ug_core.plant.s": "s",
    "johnson.build.s": "s",
    **{f"layer.{name}.self_s": "s" for name in ("bench",) + BLOCKING_LAYERS},
    "trace.batch_s": "s",
    "trace.library_frac": "fraction",
    **{f"run.{name}": unit for name, unit in RUN_FIGURES.items()},
}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    with open("/proc/self/status") as fh:
        proc_threads = next((int(line.split()[1]) for line in fh
                             if line.startswith("Threads:")), None)
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "process_threads": proc_threads, "python": sys.version.split()[0],
            "numpy": np.__version__, "commit": commit}


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import the library and
    build and plant the workload's instances."""
    # The child ends itself after 120 s.  No timeout here: with one, Popen.wait
    # polls in sleeps of up to 50 ms, and the times come out in 50 ms steps.
    code = (f"import signal, sys; signal.alarm(120); "
            f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
            f"import workloads; workloads.WORKLOADS[{workload!r}].setup({seed})")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return stats.median(times)


class LayerCounters:
    """Counts read off the results of traced calls."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        self.np = np
        self.c = {"relax_classes": 0, "sdp_solves": 0, "sdp_kept": 0, "ipm_iters": 0,
                  "ipm_returned_s": 0.0, "admm_iters": 0, "rt_tuples": 0, "iterations": 0}
        self.pending = []   # SDP results of the sos.solve call in progress
        tracer.observe("sos.relax", self.on_relax)
        tracer.observe("sdp.solve_ipm", self.on_sdp("ipm"))
        tracer.observe("sdp.solve_admm", self.on_sdp("admm"))
        tracer.observe("sos.solve", self.on_solve)
        tracer.observe("rounding.rt_reduce", self.on_rt)
        tracer.observe("rounding.main_algorithm", self.on_main)

    def on_relax(self, span, rel):
        self.c["relax_classes"] += len(rel.classes)

    def on_sdp(self, method):
        def obs(span, res):
            self.c[f"{method}_iters"] += res.iterations
            if method == "ipm":
                self.c["ipm_returned_s"] += span.end - span.start
            self.pending.append(res.y)
        return obs

    def on_solve(self, span, pe):
        """An SDP result is kept when the returned table is exactly its y."""
        table = self.np.fromiter(pe.table.values(), float, len(pe.table))
        for y in self.pending:
            self.c["sdp_solves"] += 1
            self.c["sdp_kept"] += bool(self.np.array_equal(table, y))
        self.pending.clear()

    def on_rt(self, span, result):
        self.c["rt_tuples"] += len(result[2]["tuples"])

    def on_main(self, span, result):
        self.c["iterations"] += len(result[1].records)


def per_layer(tracer: Tracer, counters: LayerCounters, passes: int, op_total: float,
              traced_batch: float) -> dict:
    t = totals(tracer.spans)
    t_ops = totals(tracer.spans, ops_only=True)
    layers = layer_self_times(tracer.spans)
    c = counters.c

    def per_pass(name, key="s"):
        return t_ops.get(name, {}).get(key, 0.0) / passes

    vals = {
        "sos.relax.s": per_pass("sos.relax"),
        "sos.relax.classes": c["relax_classes"] / passes,
        "sos.solve.self_s": per_pass("sos.solve", "self_s"),
        "sos.validate.s": per_pass("sos.validate"),
        "sdp.solves": c["sdp_solves"] / passes,
        "sdp.kept_frac": stats.frac(c["sdp_kept"], c["sdp_solves"]),
        "sdp.solve_ipm.s": per_pass("sdp.solve_ipm"),
        "sdp.solve_ipm.iterations": c["ipm_iters"] / passes,
        # solves that raised have no iteration count, so only returned ones enter
        "sdp.solve_ipm.s_per_iter": stats.frac(c["ipm_returned_s"], c["ipm_iters"]),
        "sdp.solve_admm.s": per_pass("sdp.solve_admm"),
        "sdp.solve_admm.iterations": c["admm_iters"] / passes,
        "sdp.repair_psd.s": per_pass("sdp.repair_psd"),
        "potentials.phi_potential.s": per_pass("potentials.phi_potential"),
        "potentials.phi_potential.calls": per_pass("potentials.phi_potential", "calls"),
        "potentials.psi_potential.s": per_pass("potentials.psi_potential"),
        "rounding.find_event_subcube.s": per_pass("rounding.find_event_subcube"),
        "rounding.rt_reduce.s": per_pass("rounding.rt_reduce"),
        "rounding.rt_reduce.tuples": c["rt_tuples"] / passes,
        "rounding.tv_conditioning_check.s": per_pass("rounding.tv_conditioning_check"),
        "rounding.condition_and_round.s": per_pass("rounding.condition_and_round"),
        "rounding.subround.self_s": per_pass("rounding.subround", "self_s"),
        "rounding.main_algorithm.self_s": per_pass("rounding.main_algorithm", "self_s"),
        "rounding.iterations": c["iterations"] / passes,
        # set-up runs once per process, before the passes
        "ug_core.plant.s": t.get("ug_core.plant", {}).get("s", 0.0),
        "johnson.build.s": t.get("johnson.build", {}).get("s", 0.0),
        "trace.batch_s": traced_batch,
        "trace.library_frac": stats.frac(sum(layers.get(k, 0.0) for k in BLOCKING_LAYERS),
                                         op_total),
    }
    for name in ("bench",) + BLOCKING_LAYERS:
        vals[f"layer.{name}.self_s"] = layers.get(name, 0.0) / passes
    for name, count in tracer.counts.items():
        vals[name] = count / passes
    return vals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ugjohnson" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import workloads

    env = environment()
    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]
    clock = time.perf_counter
    tracer = Tracer(clock)
    counters = LayerCounters(tracer) if args.trace else None

    op_times, pass_times, pass_max = [], [], []
    ops, digests, pass_failed = [], [], []
    wrong = 0
    solves = uncertified = 0
    gaps, values = [], []
    with tracer.installed() if args.trace else nullcontext():
        with tracer.span("bench.setup") if args.trace else nullcontext():
            cases = wl.setup(args.seed)
        t_run = clock()
        while True:
            t_pass = clock()
            times, pass_digests = [], []
            failed = 0
            for case in cases:
                tracer.op += 1
                t0 = clock()
                try:
                    with tracer.span("bench.op") if args.trace else nullcontext():
                        out = wl.run(case)
                except Exception:  # a raising operation is counted, and the run goes on
                    out = None
                    traceback.print_exc(file=sys.stderr)
                dt = clock() - t0
                times.append(dt)
                rec = {"case": case.label, "seconds": dt, "raised": out is None}
                if out is None:
                    failed += 1
                    pass_digests.append(b"raised")
                else:
                    rec.update(problems=out.problems, value=out.value,
                               uncertified=out.uncertified, gaps=out.gaps)
                    failed += bool(out.problems)
                    wrong += bool(out.problems)
                    solves += out.solves
                    uncertified += out.uncertified
                    gaps += out.gaps
                    values.append(out.value)
                    pass_digests.append(out.digest)
                ops.append(rec)
            pass_times.append(clock() - t_pass)
            pass_max.append(max(times))
            pass_failed.append(failed)
            op_times += times
            digests.append(workloads.digest(pass_digests))
            if clock() - t_run >= args.seconds:
                break
    if len(set(digests)) > 1 or len(set(pass_failed)) > 1:
        wrong += 1
        print("error: outputs differ between passes over the same instances", file=sys.stderr)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    figures = {
        "op_s.max": stats.median(pass_max),
        "failed_frac": stats.frac(pass_failed[0], len(cases)),
        "uncertified_frac": stats.frac(uncertified, solves),
        "gap_max": max(gaps, default=0.0),
        "value_mean": stats.frac(sum(values), len(values)),
    }
    e2e = {
        "setup_s": setup_s,
        "batch_s": stats.median(pass_times),
        "op_s.p50": stats.median(op_times),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        layer_vals = per_layer(tracer, counters, len(pass_times), sum(op_times),
                               stats.median(pass_times))
        layer_vals.update({f"run.{k}": v for k, v in figures.items()})
        metrics = {name: stats.metric(layer_vals[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: stats.metric(e2e[name], unit) for name, unit in END_TO_END.items()}

    summary = {"correct": wrong == 0, "attempted": len(cases), "failed": pass_failed[0]}
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **summary, "passes": len(pass_times), "pass_failed": pass_failed, "env": env,
              "output_sha256": digests[0], "figures": figures, "ops": ops, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(tracer.to_records()))

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} operations a pass, "
          f"{len(pass_times)} pass(es), failed per pass {pass_failed}; env {json.dumps(env)}")
    print(f"output sha256 {digests[0]}")
    for name, val in figures.items():
        print(f"{name} = {val:.6g} {RUN_FIGURES[name]}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
