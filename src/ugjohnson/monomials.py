"""Canonical monomial algebra for the UG program variables X_{u,a} (and X'_{u,a}).

A variable is (copy, vertex, label) with copy 0 for X and 1 for X'.  Monomials
are reduced by Booleanity X^2 = X and annihilation X_{u,a} X_{u,b} = 0 for
a != b (per copy); the canonical form is a sorted tuple of variables with
distinct (copy, vertex) keys.  The zero monomial is the singleton ZERO.

Sparse polynomials are dicts {monomial: coefficient}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

Var = tuple[int, int, int]        # (copy, vertex, label)
Monomial = tuple[Var, ...]        # canonical: sorted, distinct (copy, vertex)

ONE: Monomial = ()


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _Zero()


def canon(vars_iter: Iterable[Var]):
    """Canonical form of a product of variables, or ZERO if it annihilates."""
    seen: dict[tuple[int, int], int] = {}
    for (c, u, a) in vars_iter:
        key = (c, u)
        if key in seen:
            if seen[key] != a:
                return ZERO
        else:
            seen[key] = a
    return tuple(sorted((c, u, a) for (c, u), a in seen.items()))


def mul(m1, m2):
    if m1 is ZERO or m2 is ZERO:
        return ZERO
    return canon(list(m1) + list(m2))


def degree(m) -> int:
    return 0 if m is ZERO else len(m)


def side_degree(m, copy: int) -> int:
    return 0 if m is ZERO else sum(1 for (c, _, _) in m if c == copy)


def var(u: int, a: int, copy: int = 0) -> Monomial:
    return ((copy, u, a),)


def monomial_name(m) -> str:
    if m is ZERO:
        return "0"
    if not m:
        return "1"
    return "|".join(("X" if c == 0 else "Xp") + f":{u}:{a}" for (c, u, a) in m)


# ---------------------------------------------------------------------------
# sparse polynomials

Poly = dict  # Monomial -> float


def poly_add(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0.0) + c
    return {m: c for m, c in out.items() if c != 0.0}


def poly_sum(terms: Iterable[tuple[float, Poly]]) -> Poly:
    """sum_k w_k p_k over (w_k, p_k) terms, keys in order of first appearance;
    unlike poly_add, zero coefficients are kept."""
    out: Poly = {}
    for w, p in terms:
        for m, c in p.items():
            out[m] = out.get(m, 0.0) + w * c
    return out


def poly_scale(p: Poly, s: float) -> Poly:
    return {m: c * s for m, c in p.items()}


def poly_mul(p1: Poly, p2: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = mul(m1, m2)
            if m is ZERO:
                continue
            out[m] = out.get(m, 0.0) + c1 * c2
    return out


def poly_degree(p: Poly) -> int:
    return max((degree(m) for m in p), default=0)


def poly_side_degree(p: Poly, copy: int) -> int:
    return max((side_degree(m, copy) for m in p), default=0)


@dataclass
class EventPoly:
    """A polynomial event with recorded nonnegativity provenance.

    provenance "zero_one_product": a product of factors each provably in [0,1]
    under the program axioms (safe to condition on); "surrogate": a truncated
    stand-in whose values are only clamped into [0,1] where probability
    semantics are required (conditioning rejects it on every table).
    """
    poly: Poly
    provenance: str = "zero_one_product"
    description: str = ""

    @property
    def degree(self) -> int:
        return poly_degree(self.poly)

    def side_degree(self, copy: int) -> int:
        return poly_side_degree(self.poly, copy)
