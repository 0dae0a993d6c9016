"""Aggregation and metric formatting shared by the runner and the spread check."""

from __future__ import annotations

import math
import re
import statistics
from typing import Sequence

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def metric(value: float, unit: str) -> dict:
    """One metric entry of the result line; refuses values JSON cannot carry."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value {value} is not finite")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r}")
    return {"value": value, "unit": unit}


def frac(num: float, den: float) -> float:
    """num / den, taken as 0 when nothing was attempted."""
    return num / den if den else 0.0
