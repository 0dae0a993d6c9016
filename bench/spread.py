"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload solve_d4 --seeds 1-10

Runs bench/run.py once per seed (one after another) and prints, for every
end-to-end metric, the median, the quartiles and the interquartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json.  A
metric is steady when its spread is at most a third of its bound; the exit
code is 1 when any metric is not, or when a run reports wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed = attempted = 0
    incorrect = []
    for seed in parse_seeds(args.seeds):
        subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                        "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                        "--trace", "0"], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        res = json.loads((ROOT / ".bench_results" /
                          f"{args.workload}-seed{seed}-trace0.json").read_text())
        failed += res["failed"]
        attempted += res["attempted"]
        if not res["correct"]:
            incorrect.append(seed)
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    print(f"{args.workload}: seeds {args.seeds}, {failed} of {attempted} operations failed, "
          f"outputs wrong on seeds {incorrect or 'none'}")
    ok = not incorrect
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, q2, q3 = stats.quartiles(vals)
        sp = stats.spread(vals)
        steady = sp <= m["bound"] / 3
        ok &= steady
        print(f"  {m['name']:<12} median {q2:10.4f} {m['unit']:<3} Q1 {q1:10.4f} Q3 {q3:10.4f} "
              f"spread {sp:6.3f}  bound {m['bound']:.3f}  {'ok' if steady else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
