#!/usr/bin/env python3
"""End-to-end experiment: plant an instance, solve the relaxation, run the
rounding pipeline, and print the per-stage measurements.

Example:
    python scripts/run_pipeline.py --n 8 --l 2 --alpha 0.5 --q 2 --eps 0.05
"""

import argparse
import time

from ugjohnson import johnson, rounding, ug_core


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--l", type=int, default=2)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--q", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.0)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace-out", type=str, default=None)
    args = ap.parse_args()

    g = johnson.build(args.n, args.l, args.alpha)
    inst, A = ug_core.plant(g, args.q, ug_core.PlantedSpec(args.eps, args.seed))
    print(f"instance: J({args.n},{args.l},{g.t}) q={args.q} |V|={g.num_vertices} "
          f"|E|={inst.num_edges} realized={inst.metadata['planted']['realized_value']:.4f}")

    cfg = rounding.RoundingConfig.for_instance(inst, eps=args.eps,
                                               degree=args.degree, seed=args.seed)
    t0 = time.time()
    x, trace = rounding.main_algorithm(inst, cfg, witness=A)
    print(f"\nachieved value {trace.final_value:.4f} in {time.time()-t0:.1f}s "
          f"({len(trace.records)} iteration(s))")
    for rec in trace.records:
        if rec.get("stalled"):
            print(f"  iter {rec['iteration']}: stalled (no dense subcube)")
            continue
        mi_x = rec["rt_reduce"]["mi_x"]
        mi = "n/a" if mi_x is None else \
            f"({mi_x:.4f},{rec['rt_reduce']['mi_xp']:.4f})"
        print(f"  iter {rec['iteration']}: subcube |a|={len(rec['chosen']['a'])} "
              f"s={rec['chosen']['s']} event={rec['chosen']['event']} "
              f"value={rec['value']:.4f} "
              f"phi={rec['phi_conditioned']['phi']:.4f} mi={mi} "
              f"zeta={rec['tv_check']['fraction_exceeding']:.3f} "
              f"solver={rec['solver']['method']} source={rec['solver']['source']}")
        print(f"    rounding guarantee {rec['rounding_guarantee']['guarantee']:.4f} "
              f"(achieved {rec['rounding_guarantee']['achieved']:.4f}); potential-relation slack "
              f"{rec['potential_relation']['slack']:.4f}")
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(trace.to_json())
        print(f"trace written to {args.trace_out}")


if __name__ == "__main__":
    main()
