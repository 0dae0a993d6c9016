"""Affine Unique Games instances over Z_q, exact values, oracles, and generators.

An instance is a weighted graph plus one shift b_e per edge; the constraint on
(u, v) is x(u) - x(v) = b_e (mod q).  Weights are exact rationals (uniform
1/|E| for regular graphs); values are computed as exact edge counts where
possible and only aggregated in floating point.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Container, Optional, Sequence

import numpy as np

from .johnson import JohnsonGraph, build as build_johnson

Assignment = np.ndarray  # int array of length vertex_count with entries in {0..q-1}

BRUTE_FORCE_BUDGET = 2_000_000


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class PlantedSpec:
    epsilon: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class UGInstance:
    vertex_count: int
    q: int
    edges: tuple[tuple[int, int, int], ...]          # (u, v, shift) with u < v
    weights: tuple[Fraction, ...]
    graph_tag: Optional[JohnsonGraph] = field(default=None, compare=False)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("alphabet size must be >= 2")
        for (u, v, b) in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not u < v:
                raise ValueError("edges must be canonically oriented u < v")
            if not 0 <= b < self.q:
                raise ValueError("shift out of range")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("edge weights must sum to 1")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def uniform_weights(self) -> bool:
        return len(set(self.weights)) == 1

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """Derived data, computed once and read-only: the (m, 3) edge array, the
        float weights, and the incidence (start, ids, other): the edges of u, in
        edge order, are ids[start[u]:start[u + 1]], their other ends `other`."""
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        ends = e[:, :2].ravel()                          # u0, v0, u1, v1, ...
        order = np.argsort(ends, kind="stable")
        start = np.zeros(self.vertex_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=self.vertex_count), out=start[1:])
        arrays = (e, np.asarray([float(w) for w in self.weights]), start,
                  order // 2, e[:, 1::-1].ravel()[order])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def edge_array(self) -> np.ndarray:
        return self._arrays[0]

    def weight_array(self) -> np.ndarray:
        return self._arrays[1]

    def scoped_edges(self, u: int, within: Optional[Container] = None
                     ) -> list[tuple[int, float]]:
        """The edges of u, only those with both endpoints in `within` if given, in
        edge order, each with its weight over their total (summed left to right)."""
        _, w, start, ids, other = self._arrays
        lo, hi = start[u], start[u + 1]
        ks = ids[lo:hi].tolist()
        if within is not None:
            if u not in within:
                return []
            ks = [k for k, o in zip(ks, other[lo:hi].tolist()) if o in within]
        wk = w[ks].tolist()
        wtot = sum(wk)
        return [(k, x / wtot) for k, x in zip(ks, wk)]


def from_graph(graph: JohnsonGraph, q: int, shifts: Sequence[int],
               metadata: Optional[dict] = None) -> UGInstance:
    edges = graph.edges()
    if len(shifts) != len(edges):
        raise ValueError("one shift per edge required")
    m = len(edges)
    w = tuple([Fraction(1, m)] * m)
    e = tuple((u, v, int(s) % q) for (u, v), s in zip(edges, shifts))
    return UGInstance(graph.num_vertices, q, e, w, graph_tag=graph,
                      metadata=dict(metadata or {}))


def satisfied_mask(inst: UGInstance, x: Assignment) -> np.ndarray:
    e = inst.edge_array()
    return (x[e[:, 0]] - x[e[:, 1]] - e[:, 2]) % inst.q == 0


def value(inst: UGInstance, x: Assignment) -> float:
    """Weighted fraction of edges with x(u) - x(v) = b_e (mod q)."""
    sat = satisfied_mask(inst, x)
    if inst.uniform_weights:
        return int(np.count_nonzero(sat)) / inst.num_edges
    return float(np.dot(sat.astype(float), inst.weight_array()))


def edges_inside(inst: UGInstance, within: Container) -> np.ndarray:
    """Mask over the edges with both endpoints in `within`."""
    inside = np.zeros(inst.vertex_count, dtype=bool)
    inside[list(within)] = True
    e = inst.edge_array()
    return inside[e[:, 0]] & inside[e[:, 1]]


def vertex_values(inst: UGInstance, sat: np.ndarray,
                  within: Optional[Container] = None) -> np.ndarray:
    """val_u for every u: the weight of u's edges satisfied in `sat` over that of
    all its edges, only edges inside `within` if given, 0 if none; each vertex
    sums its edges in edge order (bincount adds in input order)."""
    w = inst.weight_array()
    if within is not None:
        w = w * edges_inside(inst, within)
    ends = inst.edge_array()[:, :2].ravel()
    n = inst.vertex_count
    num = np.bincount(ends, weights=np.repeat(w * sat, 2), minlength=n)
    den = np.bincount(ends, weights=np.repeat(w, 2), minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0)


def brute_force_opt(inst: UGInstance, budget: int = BRUTE_FORCE_BUDGET
                    ) -> tuple[Assignment, float]:
    """Exact maximizer by enumeration, fixing vertex 0's label to 0 (shift symmetry)."""
    n, q = inst.vertex_count, inst.q
    total = q ** (n - 1)
    if total > budget:
        raise EnumerationBudgetError(
            f"{q}^{n-1} = {total} assignments exceed the budget {budget}")
    e = inst.edge_array()
    w = inst.weight_array()
    best_val, best_x = -1.0, None
    batch = []
    batch_size = max(1, min(total, 200_000 // max(n, 1)))

    def flush(batch_list, best_val, best_x):
        X = np.asarray(batch_list, dtype=np.int64)
        sat = (X[:, e[:, 0]] - X[:, e[:, 1]] - e[None, :, 2]) % q == 0
        vals = sat @ w
        k = int(np.argmax(vals))
        if vals[k] > best_val + 1e-15:
            return float(vals[k]), X[k].copy()
        return best_val, best_x

    for rest in itertools.product(range(q), repeat=n - 1):
        batch.append((0,) + rest)
        if len(batch) >= batch_size:
            best_val, best_x = flush(batch, best_val, best_x)
            batch = []
    if batch:
        best_val, best_x = flush(batch, best_val, best_x)
    # exact rational value at the winner when weights are uniform
    if inst.uniform_weights:
        best_val = value(inst, best_x)
    return best_x, best_val


def plant(graph: JohnsonGraph, q: int, spec: PlantedSpec) -> tuple[UGInstance, Assignment]:
    """Planted instance: b_e = A(u) - A(v) with an independently chosen eps-fraction
    of edges re-randomized to fresh uniform shifts.  A corrupted edge can still be
    satisfied with probability 1/q; the realized completeness is recorded."""
    rng = np.random.default_rng(spec.seed)
    edges = graph.edges()
    A = rng.integers(0, q, size=graph.num_vertices)
    shifts = [(int(A[u]) - int(A[v])) % q for (u, v) in edges]
    corrupted = rng.random(len(edges)) < spec.epsilon
    fresh = rng.integers(0, q, size=len(edges))
    n_bad = 0
    for k in range(len(edges)):
        if corrupted[k]:
            if int(fresh[k]) != shifts[k]:
                n_bad += 1
            shifts[k] = int(fresh[k])
    realized = 1.0 - n_bad / len(edges)
    meta = {
        "graph": {"kind": "johnson", "n": graph.n, "l": graph.ell, "t": graph.t},
        "planted": {"epsilon": spec.epsilon, "seed": spec.seed, "realized_value": realized},
    }
    inst = from_graph(graph, q, shifts, metadata=meta)
    assert abs(value(inst, A) - realized) < 1e-12
    return inst, A


def randomize_edges(inst: UGInstance, S: Sequence[int], seed: int) -> UGInstance:
    """Fresh uniform shift on every edge with at least one endpoint in S."""
    S = set(S)
    rng = np.random.default_rng(seed)
    new_edges = []
    touched = []
    for k, (u, v, b) in enumerate(inst.edges):
        if u in S or v in S:
            new_edges.append((u, v, int(rng.integers(0, inst.q))))
            touched.append(k)
        else:
            new_edges.append((u, v, b))
    meta = dict(inst.metadata)
    meta["randomized_edges"] = meta.get("randomized_edges", 0) + len(touched)
    return UGInstance(inst.vertex_count, inst.q, tuple(new_edges), inst.weights,
                      graph_tag=inst.graph_tag, metadata=meta)


# ---------------------------------------------------------------------------
# instance file format


def to_json_dict(inst: UGInstance) -> dict:
    return {
        "n_vertices": inst.vertex_count,
        "q": inst.q,
        "edges": [[u, v, b, float(w)] for (u, v, b), w in zip(inst.edges, inst.weights)],
        "metadata": inst.metadata,
    }


def save(inst: UGInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(inst), fh, indent=1, sort_keys=True)


def load(path: str) -> UGInstance:
    with open(path) as fh:
        d = json.load(fh)
    edges = tuple((int(u), int(v), int(b)) for u, v, b, _ in d["edges"])
    wfloats = [w for _, _, _, w in d["edges"]]
    if len(set(wfloats)) == 1:
        weights = tuple([Fraction(1, len(edges))] * len(edges))
    else:
        weights = tuple(Fraction(w).limit_denominator(10 ** 9) for w in wfloats)
        total = sum(weights)
        weights = tuple(w / total for w in weights)
    tag = None
    g = d.get("metadata", {}).get("graph")
    if g and g.get("kind") == "johnson":
        tag = build_johnson(g["n"], g["l"], g["t"] / g["l"])
    return UGInstance(int(d["n_vertices"]), int(d["q"]), edges, weights,
                      graph_tag=tag, metadata=d.get("metadata", {}))
