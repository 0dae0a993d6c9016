"""Johnson graphs J(n, l, t) with t = alpha*l, their subcube restrictions, and expansion.

Vertices are the l-subsets of {0..n-1}; two subsets are adjacent iff they
intersect in exactly l - t elements.  Vertices are indexed by colexicographic
rank of the sorted subset, which gives O(l) rank/unrank and a deterministic
ordering used for tie-breaking everywhere downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, sqrt
from typing import Sequence

import numpy as np

# Enumeration guards: explicit vertex/edge materialization only at desk scale.
MAX_VERTICES = 10_000
MAX_EDGES = 2_000_000


class DeskBudgetError(RuntimeError):
    """Raised when an operation would exceed the desk-scale enumeration guard."""


def colex_rank(subset: Sequence[int]) -> int:
    """Colexicographic rank of a sorted subset of nonnegative integers."""
    return sum(comb(x, i + 1) for i, x in enumerate(subset))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`colex_rank` for k-subsets."""
    out = []
    r = rank
    for i in range(k, 0, -1):
        # largest x with comb(x, i) <= r
        x = i - 1
        while comb(x + 1, i) <= r:
            x += 1
        out.append(x)
        r -= comb(x, i)
    return tuple(sorted(out))


@dataclass(frozen=True)
class JohnsonGraph:
    """The graph J(n, l, t): l-subsets of [n], adjacent iff |U & V| = l - t."""

    n: int
    ell: int
    t: int
    _edges: tuple[tuple[int, int], ...] = field(repr=False, compare=False, default=())

    @property
    def alpha(self) -> float:
        return self.t / self.ell

    @property
    def num_vertices(self) -> int:
        return comb(self.n, self.ell)

    @property
    def degree(self) -> int:
        return comb(self.ell, self.t) * comb(self.n - self.ell, self.t)

    @property
    def num_edges(self) -> int:
        return self.num_vertices * self.degree // 2

    def vertex_subset(self, v: int) -> tuple[int, ...]:
        return colex_unrank(v, self.ell)

    def vertex_index(self, subset: Sequence[int]) -> int:
        return colex_rank(sorted(subset))

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def neighbors(self, v: int) -> list[int]:
        """Neighbors of v generated combinatorially (drop t, add t)."""
        U = self.vertex_subset(v)
        inside = list(U)
        outside = [x for x in range(self.n) if x not in set(U)]
        out = []
        for drop in itertools.combinations(inside, self.t):
            kept = [x for x in inside if x not in set(drop)]
            for add in itertools.combinations(outside, self.t):
                out.append(colex_rank(sorted(kept + list(add))))
        return out


def build(n: int, ell: int, alpha: float) -> JohnsonGraph:
    """Construct J(n, l, alpha*l) with explicit edge enumeration.

    Rejects parameters where alpha*l is not an integer or the graph is
    degenerate (t = 0 would make the adjacency the identity relation).
    """
    t_real = alpha * ell
    t = round(t_real)
    if abs(t_real - t) > 1e-9:
        raise ValueError(f"alpha*l = {t_real} is not an integer")
    if t <= 0:
        raise ValueError("t = alpha*l must be >= 1 (t = 0 is the identity relation)")
    if not (t <= ell < n):
        raise ValueError(f"need t <= l < n, got n={n}, l={ell}, t={t}")
    N = comb(n, ell)
    if N > MAX_VERTICES:
        raise DeskBudgetError(f"J({n},{ell},{t}) has {N} vertices > guard {MAX_VERTICES}")
    d = comb(ell, t) * comb(n - ell, t)
    if N * d // 2 > MAX_EDGES:
        raise DeskBudgetError(f"J({n},{ell},{t}) has {N*d//2} edges > guard {MAX_EDGES}")
    g = JohnsonGraph(n, ell, t)
    edges = []
    for v in range(N):
        for w in g.neighbors(v):
            if v < w:
                edges.append((v, w))
    g = JohnsonGraph(n, ell, t, tuple(edges))
    assert len(g.edges()) == N * d // 2, "degree formula disagrees with enumeration"
    return g


@dataclass(frozen=True)
class Subcube:
    """The restriction J|_a: all vertices containing the fixed set a."""

    graph: JohnsonGraph
    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(self.a))
        object.__setattr__(self, "a", a)
        if len(a) > self.graph.ell - 1:
            raise ValueError("restriction size must be <= l - 1")
        if len(set(a)) != len(a) or any(not 0 <= x < self.graph.n for x in a):
            raise ValueError("restriction must be a subset of the ground set")

    @property
    def size(self) -> int:
        return len(self.a)

    def vertex_ids(self) -> list[int]:
        g = self.graph
        rest = [x for x in range(g.n) if x not in set(self.a)]
        ids = []
        for extra in itertools.combinations(rest, g.ell - len(self.a)):
            ids.append(colex_rank(sorted(self.a + extra)))
        return sorted(ids)


def subcube(g: JohnsonGraph, a: Sequence[int]) -> Subcube:
    return Subcube(g, tuple(a))


def density(g: JohnsonGraph, F: np.ndarray, a: Sequence[int] = ()) -> float:
    """delta(F|_a): mean of F over the subcube {A : A >= a}; delta(F|_()) = E[F]."""
    if len(a) == 0:
        return float(np.mean(F))
    ids = Subcube(g, tuple(a)).vertex_ids()
    if not ids:
        raise ValueError("empty subcube")
    return float(np.mean(F[ids]))


def expansion(g: JohnsonGraph, S: Sequence[int]) -> float:
    """Edge expansion Phi(S): probability a random edge from a uniform S-endpoint leaves S."""
    S = set(S)
    if not S:
        raise ValueError("expansion of the empty set is undefined")
    out = 0
    for v in S:
        for w in g.neighbors(v):
            if w not in S:
                out += 1
    return out / (len(S) * g.degree)


def laplacian_form(g: JohnsonGraph, F: np.ndarray) -> float:
    """<F, L F> for the normalized Laplacian: (1/2) E_{(u,v)~E} (F(u)-F(v))^2."""
    e = np.asarray(g.edges())
    if e.size == 0:
        return 0.0
    diff = F[e[:, 0]] - F[e[:, 1]]
    return float(np.mean(diff * diff) / 2.0)


def vertex_boundary_fraction(g: JohnsonGraph, sub: Subcube, v: int) -> float:
    """Fraction of v's neighbors outside J|_a, for v inside the subcube."""
    a = set(sub.a)
    nbrs = g.neighbors(v)
    out = sum(1 for w in nbrs if not a <= set(g.vertex_subset(w)))
    return out / len(nbrs)


def subcube_expansion_bound(g: JohnsonGraph, r: int) -> dict:
    """Analytic bound 1 - (1 - 4*alpha/3)^r on the expansion of r-restricted subcubes.

    Valid for r < l/4.  Returns the bound together with the exact enumerated
    expansion of a canonical r-restriction (they are all isomorphic) and
    asserts enumerated <= bound.
    """
    if r >= g.ell / 4 and r > 0:
        raise ValueError("bound requires r < l/4")
    alpha = g.alpha
    bound = 1.0 - (1.0 - 4.0 * alpha / 3.0) ** r
    if r == 0:
        exact = 0.0
    else:
        # exact: a vertex of J|_a keeps C(l-r, t)/C(l, t) of its edges inside
        exact = 1.0 - comb(g.ell - r, g.t) / comb(g.ell, g.t)
    assert exact <= bound + 1e-12
    return {"r": r, "bound": bound, "exact": exact}


def small_restriction_expansion_check(g: JohnsonGraph, eps: float) -> dict:
    """Expansion of s-restricted subcubes (s < r = floor(32*sqrt(eps)/alpha)) vs 200*sqrt(eps).

    Enumerates the exact expansion for every restriction size below r and
    checks it against the stated ceiling; requires r < l/4.
    """
    alpha = g.alpha
    r = int(32 * sqrt(eps) / alpha)
    if not (0 < r < g.ell / 4):
        raise ValueError(f"r={r} out of the admissible range (0, l/4)")
    ceiling = 200 * sqrt(eps)
    rows = []
    ok = True
    for s in range(1, r + 1):
        sub = Subcube(g, tuple(range(s)))
        exact = expansion(g, sub.vertex_ids())
        rows.append({"s": s, "exact": exact, "ceiling": ceiling})
        ok = ok and exact <= ceiling + 1e-12
    return {"r": r, "ok": ok, "rows": rows}
