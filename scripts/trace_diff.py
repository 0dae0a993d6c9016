#!/usr/bin/env python3
"""Compare two trace JSON files (RoundingTrace.to_json) field by field.

A structural difference is a key present on one side only, lists of different
lengths, values of different kinds, or unequal strings, booleans or nulls.
Numbers are compared by their absolute deviation; the report gives the largest
deviation per path, where a path names the dict keys and drops list indices
(so `records.tv_check.bound` covers the bound of every record).

Example:
    python scripts/trace_diff.py parent.json change.json --tol 1e-12

Exits 1 on any structural difference or on a deviation above --tol.
"""

import argparse
import json
import math
import sys


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare(a, b, path: str, structural: list, deviation: dict) -> None:
    """Walk a and b together: append (path, reason) to structural and keep the
    largest absolute and relative deviation of each numeric path in deviation."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in b or key not in a:
                structural.append((sub, "only in " + ("A" if key in a else "B")))
            else:
                compare(a[key], b[key], sub, structural, deviation)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            structural.append((path, f"length {len(a)} != {len(b)}"))
        for x, y in zip(a, b):
            compare(x, y, path, structural, deviation)
    elif _is_number(a) and _is_number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            dev = rel = 0.0
        else:
            dev = abs(a - b)
            rel = dev / max(abs(a), abs(b))
        old = deviation.get(path, (0.0, 0.0))
        deviation[path] = (max(old[0], dev), max(old[1], rel))
    elif type(a) is not type(b) or a != b:
        structural.append((path, f"{a!r} != {b!r}"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest absolute deviation allowed on any numeric path")
    args = ap.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        a, b = json.load(fa), json.load(fb)
    structural: list = []
    deviation: dict = {}
    compare(a, b, "", structural, deviation)
    for path, reason in structural:
        print(f"structure {path}: {reason}")
    over = 0
    for path, (dev, rel) in sorted(deviation.items(), key=lambda kv: -kv[1][0]):
        if dev > 0:
            flag = "over" if dev > args.tol else "ok"
            over += flag == "over"
            print(f"{flag:4} {path}: max abs {dev:.3g}, max rel {rel:.3g}")
    print(f"{len(structural)} structural difference(s), {over} path(s) above tol {args.tol:g}")
    return 1 if structural or over else 0


if __name__ == "__main__":
    sys.exit(main())
