#!/usr/bin/env python3
"""Compare two trace JSON files (RoundingTrace.to_json) field by field.

A structural difference is a key present on one side only, lists of different
lengths, values of different kinds, or unequal strings, booleans or nulls.
Numbers are compared by their absolute deviation; the report gives the largest
deviation per path, where a path names the dict keys and drops list indices
(so `records.tv_check.bound` covers the bound of every record).

Given two directories, it compares each same-named `*.json` file of the two
(a file on one side only is a difference) and begins every line it prints
with the file's name.

Example:
    python scripts/trace_diff.py parent.json change.json --tol 1e-12
    python scripts/trace_diff.py parent_traces change_traces --tol 1e-12

Exits 1 on any structural difference or on a deviation above --tol.
"""

import argparse
import json
import math
import sys
from pathlib import Path


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


def diff_files(a_path: Path, b_path: Path, tol: float, prefix: str = "") -> int:
    """Print the differences of two trace files, each line after prefix, and
    return how many there are: structural ones plus paths above tol."""
    a, b = (json.loads(p.read_text()) for p in (a_path, b_path))
    structural: list = []
    deviation: dict = {}
    compare(a, b, "", structural, deviation)
    for path, reason in structural:
        print(f"{prefix}structure {path}: {reason}")
    over = 0
    for path, (dev, rel) in sorted(deviation.items(), key=lambda kv: -kv[1][0]):
        if dev > 0:
            flag = "over" if dev > tol else "ok"
            over += flag == "over"
            print(f"{prefix}{flag:4} {path}: max abs {dev:.3g}, max rel {rel:.3g}")
    print(f"{prefix}{len(structural)} structural difference(s), {over} path(s) above tol {tol:g}")
    return len(structural) + over


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="a trace file, or a directory of them")
    ap.add_argument("b", type=Path, help="the same kind as a")
    ap.add_argument("--tol", type=float, default=0.0,
                    help="largest absolute deviation allowed on any numeric path")
    args = ap.parse_args(argv)
    if args.a.is_dir() != args.b.is_dir():
        ap.error("a and b must both be files or both be directories")
    if not args.a.is_dir():
        return 1 if diff_files(args.a, args.b, args.tol) else 0
    names = [{p.name for p in d.glob("*.json")} for d in (args.a, args.b)]
    bad = 0
    for name in sorted(names[0] | names[1]):
        if name not in names[0] or name not in names[1]:
            print(f"{name}: only in " + ("A" if name in names[0] else "B"))
            bad += 1
        else:
            bad += diff_files(args.a / name, args.b / name, args.tol, f"{name}: ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
