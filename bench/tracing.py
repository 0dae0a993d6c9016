"""Spans and counters recorded from outside the library.

The traced run replaces public functions of the `ugjohnson` modules with thin
wrappers that open a span around each call, and wraps the `moment` method of
the pseudoexpectation classes with a bare counter (millions of calls per run,
too many for spans).  Nothing here edits the library: every patch is undone
when the `Tracer.installed` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "ugjohnson"
# (module, function) pairs timed with a span; the span is named "<module>.<function>"
SPANNED = (
    ("johnson", "build"),
    ("ug_core", "plant"),
    ("sos", "relax"),
    ("sos", "solve"),
    ("sos", "validate"),
    ("sdp", "solve_ipm"),
    ("sdp", "solve_admm"),
    ("sdp", "repair_psd"),
    ("potentials", "phi_potential"),
    ("potentials", "psi_potential"),
    ("rounding", "find_event_subcube"),
    ("rounding", "rt_reduce"),
    ("rounding", "tv_conditioning_check"),
    ("rounding", "condition_and_round"),
    ("rounding", "subround"),
    ("rounding", "main_algorithm"),
)

# pseudoexpectation classes whose moment() calls are counted
MOMENT_CLASSES = ("SolvedPE", "ShiftSymmetrizedPE", "ProductPE", "ConditionedPE")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, None at the top
    op: int                 # operation id shared by every span of one operation


def layer_of(name: str) -> str:
    """The layer a span belongs to: the module part of its name."""
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread, so children of a span never overlap each other.
    """
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def totals(spans: list[Span], ops_only: bool = False) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    With ops_only, spans outside any operation (op id 0, the set-up) are left out.
    """
    out: dict[str, dict[str, float]] = {}
    for sp, own in zip(spans, self_times(spans)):
        if ops_only and sp.op == 0:
            continue
        row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += sp.end - sp.start
        row["self_s"] += own
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer, over the spans of operations only."""
    out: dict[str, float] = {}
    for sp, own in zip(spans, self_times(spans)):
        if sp.op == 0:
            continue
        key = layer_of(sp.name)
        out[key] = out.get(key, 0.0) + own
    return out


class Tracer:
    """In-memory span recorder; one per run, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, int] = {}
        # name -> callbacks run on (span, result) after a call returns
        self.observers: dict[str, list[Callable]] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def observe(self, name: str, fn: Callable) -> None:
        self.observers.setdefault(name, []).append(fn)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            for obs in self.observers.get(name, ()):
                obs(self.spans[idx], result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the package's functions for the duration of the block.

        A function imported by name into another module (`from .sdp import
        solve_ipm`) is bound there too, so every module attribute that is the
        original function object is replaced.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        undo: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for mod_name, fn_name in SPANNED:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                orig = getattr(home, fn_name)
                wrapped = self._spanned(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patch(mod, attr, wrapped)
            sos = sys.modules[f"{PACKAGE}.sos"]
            for cls_name in MOMENT_CLASSES:
                cls = getattr(sos, cls_name)
                patch(cls, "moment",
                      self._counted(f"sos.moment.calls.{cls_name}", cls.__dict__["moment"]))
            pot = sys.modules[f"{PACKAGE}.potentials"]
            cls = pot.LocalDistributionCollection
            patch(cls, "joint", self._counted("potentials.joint.calls", cls.__dict__["joint"]))
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    def to_records(self) -> list[dict]:
        return [{"name": sp.name, "start": sp.start, "end": sp.end,
                 "parent": sp.parent, "op": sp.op} for sp in self.spans]
