#!/usr/bin/env python3
"""Write the standard set of rounding traces that a performance change is
diffed on: one RoundingTrace.to_json file per run, named after the run.
It runs BLAS on one thread.  tests/traces holds the set at the current
commit, and tests/test_traces.py checks the script against it.

- e2e_q{q}_eps{eps}.json: the six main_algorithm runs of the acceptance
  end-to-end fixture on J(8,2,1), q in {2, 3}, eps in {0, 0.05, 1}, with the
  fixture's plant seeds (100 + q; 200 + q at eps = 1) and config seeds
  (10 q + 100 eps; 30 + q at eps = 1);
- round_admm_seed{s}.json: the benchmark's round_admm instance of seeds 1-10,
  J(8,2,1) q=2 eps=0.05, plant and config seed 1000 s;
- d6_J521_q2.json and d6_J421_q3.json: degree-6 runs on J(5,2,1) q=2 and
  J(4,2,1) q=3 at eps=0.3, plant and config seed 16, where rt_reduce
  conditions.

Example:
    python scripts/trace_set.py parent_traces
    python scripts/trace_set.py change_traces
    python scripts/trace_diff.py parent_traces change_traces --tol 1e-12
"""

import argparse
import os
import time
from pathlib import Path


def runs() -> list[tuple]:
    """(file name, n, q, eps, degree, plant seed, config seed) of every run."""
    out = [(f"e2e_q{q}_eps{eps:g}.json", 8, q, eps, 4, 100 + q, 10 * q + int(eps * 100))
           for q in (2, 3) for eps in (0.0, 0.05)]
    out += [(f"e2e_q{q}_eps1.json", 8, q, 1.0, 4, 200 + q, 30 + q) for q in (2, 3)]
    out += [(f"round_admm_seed{s}.json", 8, 2, 0.05, 4, 1000 * s, 1000 * s) for s in range(1, 11)]
    out += [(f"d6_J{n}21_q{q}.json", n, q, 0.3, 6, 16, 16) for n, q in ((5, 2), (4, 3))]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="directory to write the traces to (made if missing)")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # one BLAS thread, set before numpy loads, as the benchmark runner does: the
    # IPM-backed traces move by about 1e-7 (relative) with the thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from ugjohnson import johnson, rounding, ug_core

    for name, n, q, eps, D, plant_seed, seed in runs():
        t0 = time.perf_counter()
        inst, A = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, plant_seed))
        cfg = rounding.RoundingConfig.for_instance(inst, eps=eps, degree=D, seed=seed)
        _, trace = rounding.main_algorithm(inst, cfg, witness=A)
        (out / name).write_text(trace.to_json())
        print(f"{name}: value {trace.final_value:.4f}, {len(trace.records)} record(s), "
              f"{time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
