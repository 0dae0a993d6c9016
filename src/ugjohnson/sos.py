"""Pseudoexpectations for the UG program: relaxation, solving, and manipulation.

A degree-D pseudoexpectation is exposed as a moment oracle over canonical
monomials in the variables X_{u,a} (and a primed copy in product mode).  The
solver works in the reduced basis with labels 1..q-1 (label 0 eliminated via
the partition constraint), which makes Booleanity, annihilation, and the
partition axioms hold identically; general moments are evaluated by expansion.

Product pseudoexpectations support per-side degree up to D (the Kronecker
product of two PSD moment matrices is PSD, so squares of polynomials with
per-side degree <= D/2 stay nonnegative); conditioning multiplies in event
polynomials and is the reweighting operation of the framework.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import monomials as mon
from .monomials import (EventPoly, Monomial, ONE, ZERO, Poly, canon, mul,
                        poly_add, poly_mul, poly_scale, var)
from .sdp import MomentSDP, solve_ipm
from .ug_core import UGInstance, value as ug_value

TOL_PSD = 1e-7
TOL_OBJ = 1e-6
FLOOR_COND = 1e-6
CLAMP_NEG = 1e-8
DIST_DEGREE = 64  # nominal degree of distribution-backed pseudoexpectations


class DegreeExhausted(RuntimeError):
    pass


class NearZeroEvent(RuntimeError):
    pass


class ValidityError(RuntimeError):
    pass


def split_copies(m: Monomial) -> tuple[Monomial, Monomial]:
    m0 = tuple(v for v in m if v[0] == 0)
    m1 = tuple((0, u, a) for (c, u, a) in m if c == 1)
    return m0, m1


class PseudoExpectation:
    """Moment oracle base class.  mode is 'single' or 'product'."""

    n_vertices: int
    q: int
    mode: str = "single"

    @property
    def degree(self) -> int:
        raise NotImplementedError

    def side_degree(self, copy: int) -> int:
        return self.degree if copy == 0 else 0

    def _check_degree(self, m: Monomial):
        if self.mode == "single":
            if mon.degree(m) > self.degree:
                raise DegreeExhausted(f"monomial degree {mon.degree(m)} > {self.degree}")
            if mon.side_degree(m, 1):
                raise ValueError("single-copy pseudoexpectation got a primed variable")
        else:
            for c in (0, 1):
                if mon.side_degree(m, c) > self.side_degree(c):
                    raise DegreeExhausted(
                        f"side-{c} degree {mon.side_degree(m, c)} > {self.side_degree(c)}")

    def moment(self, m: Monomial) -> float:
        raise NotImplementedError

    def pE(self, p: Poly) -> float:
        return sum(c * self.moment(m) for m, c in p.items() if m is not ZERO and c != 0.0)

    def exact_support(self) -> Optional[list[tuple]]:
        """The weighted support of a distribution-backed pseudoexpectation:
        (weight, x) pairs, or (weight, x, x') triples in product mode; None
        when only moments are known.  Step-polynomial and clipped quantities
        are exact only on this support."""
        return None

    # convenience views -----------------------------------------------------

    def pair_marginal(self, u: int, v: int, cu: int = 0, cv: int = 0) -> np.ndarray:
        out = np.empty((self.q, self.q))
        for a in range(self.q):
            for b in range(self.q):
                out[a, b] = self.moment(mul(var(u, a, cu), var(v, b, cv)))
        return out

    def value(self, inst: UGInstance, copy: int = 0) -> float:
        return self.pE(val_poly(inst, copy))


def val_poly(inst: UGInstance, copy: int = 0) -> Poly:
    out: Poly = {}
    for (u, v, b), w in zip(inst.edges, inst.weight_array().tolist()):
        for a in range(inst.q):
            m = mul(var(u, (a + b) % inst.q, copy), var(v, a, copy))
            out[m] = out.get(m, 0.0) + w
    return out


def vertex_val_poly(inst: UGInstance, u: int, copy: int = 0,
                    within: Optional[set] = None) -> Poly:
    """val_u(X) over the edges of u inside `within`, degree 2."""
    out: Poly = {}
    for k, c in inst.scoped_edges(u, within):
        (a_, b_, s) = inst.edges[k]
        for a in range(inst.q):
            m = mul(var(a_, (a + s) % inst.q, copy), var(b_, a, copy))
            out[m] = out.get(m, 0.0) + c
    return out


def vertex_val_and_poly(inst: UGInstance, u: int, within: Optional[set] = None) -> Poly:
    """val_u(X and X') over the edges of u inside `within`, degree (2,2)."""
    out: Poly = {}
    for k, c in inst.scoped_edges(u, within):
        term = poly_mul(edge_sat_poly(inst, k, copy=0), edge_sat_poly(inst, k, copy=1))
        out = poly_add(out, poly_scale(term, c))
    return out


# ---------------------------------------------------------------------------
# concrete pseudoexpectations


class DistributionPE(PseudoExpectation):
    """Exact moments of a finitely supported distribution over assignments."""

    def __init__(self, support: Sequence[tuple[float, np.ndarray]], q: int,
                 degree: int = DIST_DEGREE):
        w = np.asarray([p for p, _ in support], dtype=float)
        if np.any(w < -1e-15) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        self.support = [(float(p), np.asarray(x, dtype=np.int64)) for p, x in support]
        self.q = q
        self.n_vertices = len(self.support[0][1])
        self._degree = degree
        self.mode = "single"

    @property
    def degree(self) -> int:
        return self._degree

    def exact_support(self) -> list[tuple[float, np.ndarray]]:
        return self.support

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        self._check_degree(m)
        tot = 0.0
        for p, x in self.support:
            if all(x[u] == a for (_, u, a) in m):
                tot += p
        return tot


def from_assignment(x: np.ndarray, q: int, degree: int = DIST_DEGREE) -> DistributionPE:
    return DistributionPE([(1.0, np.asarray(x))], q, degree)


def mixture(parts: Sequence[tuple[DistributionPE, float]]) -> DistributionPE:
    """The weighted mixture of distributions, as one distribution."""
    if not all(isinstance(pe, DistributionPE) for pe, _ in parts):
        raise TypeError("mixture parts must be DistributionPE")
    ws = [w for _, w in parts]
    if any(w < -1e-15 for w in ws) or abs(sum(ws) - 1.0) > 1e-12:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    support = []
    for pe, w in parts:
        support.extend((w * p, x) for p, x in pe.support)
    return DistributionPE(support, parts[0][0].q, min(pe.degree for pe, _ in parts))


def reduced_terms(m: Monomial, q: int) -> list[tuple[Monomial, float]]:
    """The (reduced monomial, sign) terms of a canonical single-copy monomial
    with X_{u,0} = 1 - sum_{b>=1} X_{u,b}: a term picks one factor per
    variable, so it keeps m's vertex order and is canonical and nonzero."""
    choices = [(((c, u, a), 1.0),) if a else
               ((None, 1.0),) + tuple(((c, u, b), -1.0) for b in range(1, q))
               for (c, u, a) in m]
    return [(tuple(v for v, _ in pick if v is not None),
             math.prod((s for _, s in pick), start=1.0))
            for pick in itertools.product(*choices)]


class SolvedPE(PseudoExpectation):
    """Pseudoexpectation backed by a reduced moment table from the SDP solver."""

    def __init__(self, n_vertices: int, q: int, degree: int,
                 table: dict[Monomial, float], solve_info: Optional[dict] = None):
        self.n_vertices, self.q, self._degree = n_vertices, q, degree
        self.table = table
        self.solve_info = solve_info or {}
        self.mode = "single"
        self._cache: dict[Monomial, float] = {}

    @property
    def degree(self) -> int:
        return self._degree

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        hit = self._cache.get(m)  # a cached monomial has passed the degree check
        if hit is not None:
            return hit
        self._check_degree(m)
        if all(a != 0 for (_, _, a) in m):
            out = self.table.get(m)
            if out is None:
                raise DegreeExhausted(f"monomial {mon.monomial_name(m)} missing from table")
        else:
            out = 0.0
            for mm, cc in reduced_terms(m, self.q):
                val = self.table.get(mm)
                if val is None:
                    raise DegreeExhausted(f"monomial {mon.monomial_name(mm)} missing")
                out += cc * val
        self._cache[m] = out
        return out


class ConditionedPE(PseudoExpectation):
    """Single-copy reweighting pE'[m] = pE[m s] / pE[s]."""

    def __init__(self, base: PseudoExpectation, event: EventPoly,
                 floor: float = FLOOR_COND):
        if base.mode != "single":
            raise ValueError("ConditionedPE is single-copy; condition products directly")
        d = mon.poly_degree(event.poly)
        if d > base.degree - 2:
            raise DegreeExhausted(f"event degree {d} > D - 2 = {base.degree - 2}")
        z = base.pE(event.poly)
        if z < floor:
            raise NearZeroEvent(f"pE[event] = {z} below floor {floor}")
        self.base, self.event, self.z = base, event, z
        self.q, self.n_vertices = base.q, base.n_vertices
        self.mode = "single"
        self._degree = base.degree - d
        self._cache: dict[Monomial, float] = {}

    @property
    def degree(self) -> int:
        return self._degree

    def exact_support(self) -> Optional[list[tuple[float, np.ndarray]]]:
        return self._support

    @cached_property
    def _support(self) -> Optional[list[tuple[float, np.ndarray]]]:
        """The base support reweighted by the event."""
        inner = self.base.exact_support()
        if inner is None:
            return None
        return _renormalised([(p * mon.evaluate(self.event.poly, x), x) for p, x in inner])

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        hit = self._cache.get(m)  # a cached monomial has passed the degree check
        if hit is not None:
            return hit
        self._check_degree(m)
        num = 0.0
        for me, ce in self.event.poly.items():
            mm = mul(m, me)
            if mm is ZERO:
                continue
            num += ce * self.base.moment(mm)
        out = num / self.z
        self._cache[m] = out
        return out


def _renormalised(support: list[tuple]) -> Optional[list[tuple]]:
    """A reweighted support without its zero weights, renormalised (None when
    nothing is left); a ValueError if a conditioning event is negative on it."""
    if any(item[0] < -1e-9 for item in support):
        raise ValueError("conditioning event is negative on the support")
    kept = [item for item in support if item[0] > 0.0]
    tot = sum(item[0] for item in kept)
    return [(item[0] / tot, *item[1:]) for item in kept] if tot > 0 else None


def _check_provenance(pe: PseudoExpectation, event: EventPoly) -> None:
    """The one rule for both conditioning entry points: a general table may be
    reweighted only by a [0,1]-provenance event; a surrogate event also by a
    distribution-backed pseudoexpectation, whose exact support is reweighted."""
    if event.provenance != "zero_one_product" and pe.exact_support() is None:
        raise ValidityError("conditioning requires a [0,1]-provenance event")


def condition(pe: PseudoExpectation, event: EventPoly,
              floor: float = FLOOR_COND) -> PseudoExpectation:
    """Reweighting by a [0,1]-provenance event; the SoS analogue of conditioning."""
    if pe.mode == "product":
        return pe.condition(event, floor=floor)  # type: ignore[attr-defined]
    _check_provenance(pe, event)
    return ConditionedPE(pe, event, floor=floor)


class ShiftSymmetrizedPE(PseudoExpectation):
    """Average of the base moments over global label shifts."""

    def __init__(self, base: PseudoExpectation):
        self.base = base
        self.q, self.n_vertices, self.mode = base.q, base.n_vertices, base.mode
        self._cache: dict[Monomial, float] = {}

    @property
    def degree(self) -> int:
        return self.base.degree

    def side_degree(self, copy: int) -> int:
        return self.base.side_degree(copy)

    def exact_support(self) -> Optional[list[tuple]]:
        return self._orbit

    @cached_property
    def _orbit(self) -> Optional[list[tuple]]:
        """The base support shifted by every label s, each copy at weight 1/q."""
        inner = self.base.exact_support()
        if inner is None:
            return None
        q = self.q
        return [(p / q, (x + s) % q) for p, x in inner for s in range(q)]

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        hit = self._cache.get(m)
        if hit is not None:
            return hit
        q = self.q
        tot = 0.0
        for s in range(q):
            tot += self.base.moment(tuple((c, u, (a + s) % q) for (c, u, a) in m))
        out = tot / q
        self._cache[m] = out
        return out


def shift_symmetrize(pe: PseudoExpectation) -> ShiftSymmetrizedPE:
    """Idempotent: an already symmetrised pe is returned as it is, cache included."""
    return pe if isinstance(pe, ShiftSymmetrizedPE) else ShiftSymmetrizedPE(pe)


class ProductPE(PseudoExpectation):
    """Two independent copies pE[X^a X'^b] = pE1[X^a] pE2[X^b], optionally
    reweighted by mixed events (the conditioned object after SubRound's step)."""

    def __init__(self, pe1: PseudoExpectation, pe2: Optional[PseudoExpectation] = None,
                 events: Sequence[EventPoly] = (), floor: float = FLOOR_COND):
        self.pe1 = pe1
        self.pe2 = pe2 if pe2 is not None else pe1
        if self.pe1.mode != "single" or self.pe2.mode != "single":
            raise ValueError("product factors must be single-copy")
        self.q, self.n_vertices = pe1.q, pe1.n_vertices
        self.mode = "product"
        self.events = list(events)
        self._w: Optional[Poly] = None
        self._z = 1.0
        self._cache: dict[Monomial, float] = {}
        # the events are fixed, so each side's remaining degree is too
        self._side_degree = [pe.degree - sum(e.side_degree(c) for e in self.events)
                             for c, pe in enumerate((self.pe1, self.pe2))]
        if self.events:
            w: Poly = {ONE: 1.0}
            for e in self.events:
                w = poly_mul(w, e.poly)
            self._w = w
            self._z = self._raw_pE_poly(w)
            if self._z < floor:
                raise NearZeroEvent(f"pE[conditioning events] = {self._z} below {floor}")

    @property
    def degree(self) -> int:
        return min(self.side_degree(0), self.side_degree(1))

    def side_degree(self, copy: int) -> int:
        return self._side_degree[copy]

    def exact_support(self) -> Optional[list[tuple[float, np.ndarray, np.ndarray]]]:
        return self._pairs

    @cached_property
    def _pairs(self) -> Optional[list[tuple[float, np.ndarray, np.ndarray]]]:
        """(weight, x, x') over both factors' supports, reweighted by the events."""
        s1, s2 = self.pe1.exact_support(), self.pe2.exact_support()
        if s1 is None or s2 is None:
            return None
        out = []
        for p1, x1 in s1:
            for p2, x2 in s2:
                w = p1 * p2
                for e in self.events:
                    w *= mon.evaluate(e.poly, x1, x2)
                out.append((w, x1, x2))
        return _renormalised(out)

    def _raw_moment(self, m: Monomial) -> float:
        m0, m1 = split_copies(m)
        return self.pe1.moment(m0) * self.pe2.moment(m1)

    def _raw_pE_poly(self, p: Poly) -> float:
        return sum(c * self._raw_moment(m) for m, c in p.items() if m is not ZERO)

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        hit = self._cache.get(m)  # a cached monomial has passed the degree check
        if hit is not None:
            return hit
        self._check_degree(m)
        if self._w is None:
            out = self._raw_moment(m)
        else:
            num = 0.0
            for me, ce in self._w.items():
                mm = mul(m, me)
                if mm is ZERO:
                    continue
                num += ce * self._raw_moment(mm)
            out = num / self._z
        self._cache[m] = out
        return out

    def condition(self, event: EventPoly, floor: float = FLOOR_COND) -> "ProductPE":
        _check_provenance(self, event)
        return ProductPE(self.pe1, self.pe2, events=self.events + [event], floor=floor)

    def marginal_pe(self, copy: int) -> PseudoExpectation:
        return ProductMarginalPE(self, copy)


class ProductMarginalPE(PseudoExpectation):
    """Single-copy view of one side of a (possibly conditioned) product."""

    def __init__(self, prod: ProductPE, copy: int):
        self.prod, self.copy = prod, copy
        self.q, self.n_vertices = prod.q, prod.n_vertices
        self.mode = "single"

    @property
    def degree(self) -> int:
        return self.prod.side_degree(self.copy)

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        return self.prod.moment(tuple((self.copy, u, a) for (_, u, a) in m))


def product(pe: PseudoExpectation) -> ProductPE:
    return ProductPE(pe)


# ---------------------------------------------------------------------------
# Z variables (shift indicators between the two copies)


def z_poly(u: int, s: int, q: int) -> Poly:
    """Z_{u,s} = sum_a X_{u,a} X'_{u,a-s}: on integral pairs the indicator of
    x(u) - x'(u) = s, i.e. membership of u in the shift-partition part G_s."""
    out: Poly = {}
    for a in range(q):
        m = mul(var(u, a, 0), var(u, (a - s) % q, 1))
        out[m] = out.get(m, 0.0) + 1.0
    return out


def z_identities_report(prod: ProductPE, inst: UGInstance,
                        edge_samples: int = 12, seed: int = 0) -> dict:
    """Residuals of the three shift-variable identities (Booleanity, partition,
    crossing-edge annihilation) on the given product pseudoexpectation."""
    rng = np.random.default_rng(seed)
    q = prod.q
    verts = rng.choice(prod.n_vertices, size=min(6, prod.n_vertices), replace=False)
    bool_res = 0.0
    part_res = 0.0
    for u in verts:
        for s in range(q):
            zp = z_poly(int(u), s, q)
            bool_res = max(bool_res, abs(prod.pE(poly_mul(zp, zp)) - prod.pE(zp)))
        part_res = max(part_res, abs(sum(prod.pE(z_poly(int(u), s, q))
                                         for s in range(q)) - 1.0))
    cross_res = 0.0
    m_edges = min(edge_samples, inst.num_edges)
    eidx = rng.choice(inst.num_edges, size=m_edges, replace=False)
    for k in eidx:
        (u, v, b) = inst.edges[int(k)]
        y = edge_sat_poly(inst, int(k), copy=0)
        yp = edge_sat_poly(inst, int(k), copy=1)
        for s in range(q):
            sp = (s + 1) % q
            p = poly_mul(poly_mul(z_poly(u, s, q), z_poly(v, sp, q)), poly_mul(y, yp))
            cross_res = max(cross_res, abs(prod.pE(p)))
    return {"booleanity": bool_res, "partition": part_res, "crossing": cross_res}


def edge_sat_poly(inst: UGInstance, edge_idx: int, copy: int = 0) -> Poly:
    (u, v, b) = inst.edges[edge_idx]
    out: Poly = {}
    for a in range(inst.q):
        m = mul(var(u, (a + b) % inst.q, copy), var(v, a, copy))
        out[m] = out.get(m, 0.0) + 1.0
    return out


# ---------------------------------------------------------------------------
# relaxation assembly and solving


@dataclass
class Relaxation:
    inst: UGInstance
    D: int
    classes: tuple[Monomial, ...]
    problem: MomentSDP


@lru_cache(maxsize=16)
def monomial_classes(n: int, q: int, max_deg: int, reduced: bool) -> tuple[Monomial, ...]:
    """Canonical single-copy monomials of degree <= max_deg, ordered by degree,
    then vertex set, then labels; labels run over 1..q-1 when reduced (label 0
    eliminated), else over 0..q-1.  The first classes of degree <= d form the
    degree-d basis."""
    labels = range(1 if reduced else 0, q)
    xs = [[(0, u, a) for a in labels] for u in range(n)]  # one tuple per variable
    out: list[Monomial] = [ONE]
    for k in range(1, max_deg + 1):
        for verts in itertools.combinations(range(n), k):
            out.extend(itertools.product(*(xs[u] for u in verts)))
    return tuple(out)


@lru_cache(maxsize=8)
def product_table(n: int, q: int, half_deg: int, reduced: bool) -> np.ndarray:
    """Read-only (B, B) table of the index in monomial_classes(n, q, 2 half_deg,
    reduced) of the product of basis monomials i and j; -1 where it is ZERO.
    Callers pass every argument by position, so equal calls share one entry."""
    classes = monomial_classes(n, q, 2 * half_deg, reduced)
    index = {m: k for k, m in enumerate(classes)}
    B = len(monomial_classes(n, q, half_deg, reduced))
    T = np.empty((B, B), dtype=np.int64)
    for i in range(B):
        for j in range(i, B):
            pm = mul(classes[i], classes[j])
            T[i, j] = T[j, i] = -1 if pm is ZERO else index[pm]
    T.flags.writeable = False
    return T


def basis_matrix(n: int, q: int, half_deg: int, reduced: bool,
                 value: Callable[[Monomial], float]) -> np.ndarray:
    """M[i, j] = value(b_i b_j) over the degree-half_deg basis, 0 where the
    product annihilates; value is called once per class, in class order."""
    vals = [value(m) for m in monomial_classes(n, q, 2 * half_deg, reduced)]
    return np.asarray(vals + [0.0])[product_table(n, q, half_deg, reduced)]


def _poly_to_class_vec(p: Poly, q: int, class_index: dict, n_classes: int) -> np.ndarray:
    vec = np.zeros(n_classes)
    for m, c in p.items():
        if m is ZERO:
            continue
        for mm, cc in reduced_terms(m, q):
            vec[class_index[mm]] += c * cc
    return vec


def uniform_reduced_table(classes: Sequence[Monomial], q: int) -> np.ndarray:
    return np.asarray([q ** (-mon.degree(m)) for m in classes])


def assignment_reduced_table(classes: Sequence[Monomial], x: np.ndarray, q: int) -> np.ndarray:
    """Reduced moments of the shift orbit of the integral assignment x."""
    y = np.empty(len(classes))
    for k, m in enumerate(classes):
        cnt = 0
        for s in range(q):
            if all((x[u] + s) % q == a for (_, u, a) in m):
                cnt += 1
        y[k] = cnt / q
    return y


def relax(inst: UGInstance, D: int) -> Relaxation:
    """Assemble the degree-D moment SDP in the reduced basis.

    For D = 2 the relaxation adds entrywise nonnegativity of all 2-vertex
    marginals (implied by the moment matrix only from degree 4 on), so that
    extracted local distributions are genuine at every supported degree.
    """
    if D % 2 != 0 or D < 2:
        raise ValueError("degree must be a positive even integer")
    n, q = inst.vertex_count, inst.q
    if (n * q) ** (D // 2) > 40_000_000:
        raise ValueError("relaxation exceeds the desk budget")
    classes = monomial_classes(n, q, D, True)
    class_index = {m: k for k, m in enumerate(classes)}
    T = product_table(n, q, D // 2, True)
    B = len(T)
    # basis pairs i <= j in row order, each off-diagonal one as (i, j) then (j, i)
    iu, ju = np.triu_indices(B)
    k = T[iu, ju]
    iu, ju, k = iu[k >= 0], ju[k >= 0], k[k >= 0]
    keep = np.column_stack([np.ones(len(k), dtype=bool), iu != ju]).ravel()
    ei = np.column_stack([iu, ju]).ravel()[keep].astype(np.int64)
    ej = np.column_stack([ju, iu]).ravel()[keep].astype(np.int64)
    ek = np.repeat(k, 2)[keep]
    const = ek == 0
    cvec = _poly_to_class_vec(val_poly(inst), q, class_index, len(classes))

    G = g0 = None
    if D == 2:  # one row per full-label pair X_{u,a} X_{v,b}, u < v
        rows = np.asarray([_poly_to_class_vec({m: 1.0}, q, class_index, len(classes))
                           for m in monomial_classes(n, q, 2, False)[1 + n * q:]])
        G, g0 = np.ascontiguousarray(rows[:, 1:]), rows[:, 0].copy()

    prob = MomentSDP(side=B, n_classes=len(classes),
                     entry_i=ei[~const], entry_j=ej[~const], entry_k=ek[~const],
                     const_entries=(ei[const], ej[const]),
                     c=cvec, uniform_y=uniform_reduced_table(classes, q), G=G, g0=g0)
    return Relaxation(inst, D, classes, prob)


def _local_search(inst: UGInstance, seed: int, restarts: int = 4,
                  sweeps: int = 40) -> tuple[np.ndarray, float]:
    """Deterministic warm-start search: spanning-tree propagation plus
    iterated per-vertex improvement from seeded random starts."""
    rng = np.random.default_rng(seed)
    n, q = inst.vertex_count, inst.q
    adj: dict[int, list[tuple[int, int, int]]] = {u: [] for u in range(n)}
    for (u, v, b) in inst.edges:
        adj[u].append((v, b, +1))
        adj[v].append((u, b, -1))
    candidates = []
    # spanning-tree propagation (solves satisfiable instances exactly)
    x = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for (v, b, sgn) in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    x[v] = (x[u] - sgn * b) % q
                    stack.append(v)
    candidates.append(x.copy())
    for _ in range(restarts):
        candidates.append(rng.integers(0, q, size=n))
    best_x, best_v = None, -1.0
    for x0 in candidates:
        x = x0.copy()
        for _ in range(sweeps):
            changed = False
            for u in range(n):
                scores = np.zeros(q)
                for (v, b, sgn) in adj[u]:
                    want = (x[v] + sgn * b) % q
                    scores[want] += 1
                a = int(np.argmax(scores))
                if a != x[u]:
                    x[u] = a
                    changed = True
            if not changed:
                break
        v = ug_value(inst, x)
        if v > best_v + 1e-15:
            best_v, best_x = v, x.copy()
    return best_x, best_v


def solve(relaxation: Relaxation, seed: int = 0) -> SolvedPE:
    """Solve the relaxation and return a valid pseudoexpectation.

    A warm start of objective 1 is certified optimal and returned as it is.
    Otherwise the interior-point method runs (certified gap <= 1e-7) when the
    class count permits a dense Schur complement, and the warm start replaces
    its table when it scores higher; over that budget the warm start is
    returned uncertified.  solve_info["source"] names the table returned:
    "sdp", "warm_start" or "warm_certificate".
    """
    prob = relaxation.problem
    inst, q = relaxation.inst, relaxation.inst.q
    x_ws, v_ws = _local_search(inst, seed)
    y = y_ws = assignment_reduced_table(relaxation.classes, x_ws, q)
    info = {"warm_value": v_ws, "objective": float(prob.c @ y_ws), "iterations": 0}
    if v_ws >= 1.0 - 1e-12:
        info.update(method="warm_certificate", source="warm_certificate", gap=0.0,
                    certified=True)
    elif prob.m <= 2400 and prob.side <= 260:
        res = solve_ipm(prob)
        # never return worse than the best integral witness
        y, source = (y_ws, "warm_start") if res.objective < info["objective"] else (res.y, "sdp")
        info.update(method="ipm", source=source, objective=float(prob.c @ y), gap=res.gap,
                    certified=res.status == "optimal", iterations=res.iterations,
                    min_eig=res.min_eig, status=res.status)
    else:
        info.update(method="warm_start", source="warm_start", gap=math.nan, certified=False,
                    status="over_budget")
    table = {m: float(y[k]) for k, m in enumerate(relaxation.classes)}
    return SolvedPE(inst.vertex_count, q, relaxation.D, table, solve_info=info)


# ---------------------------------------------------------------------------
# validation


def moment_matrix(pe: PseudoExpectation, half_degree: Optional[int] = None,
                  side_cap: int = 1800) -> tuple[np.ndarray, list[Monomial]]:
    """Full moment matrix over canonical monomials (all labels) of degree <= D/2."""
    d = half_degree if half_degree is not None else min(pe.degree // 2, 2)
    basis = monomial_classes(pe.n_vertices, pe.q, d, False)
    if len(basis) > side_cap:
        raise ValueError(f"moment matrix side {len(basis)} exceeds cap {side_cap}")
    return basis_matrix(pe.n_vertices, pe.q, d, False, pe.moment), list(basis)


def validate(pe: PseudoExpectation, side_cap: int = 1800, seed: int = 0,
             marginal_pairs: int = 40) -> dict:
    """Scaling, PSD, partition/Booleanity residuals, and marginal sanity.

    rep["failed"] names the invariants that do not hold; rep["ok"] is true
    when it is empty."""
    rng = np.random.default_rng(seed)
    rep: dict = {"mode": pe.mode, "degree": pe.degree}
    rep["scaling_residual"] = abs(pe.moment(ONE) - 1.0)
    target = pe if pe.mode == "single" else pe.marginal_pe(0)  # type: ignore
    M = None
    try:
        M = moment_matrix(target, side_cap=side_cap)[0]
    except ValueError:
        # full-label matrix too large; the reduced-basis matrix is a congruent
        # restriction whose PSD-ness implies PSD-ness of the full matrix
        if isinstance(target, SolvedPE):
            M = basis_matrix(target.n_vertices, target.q, target.degree // 2, True,
                             target.table.__getitem__)
            rep["moment_matrix_basis"] = "reduced"
    rep["min_eig"] = None if M is None else float(np.linalg.eigvalsh(M).min())
    rep["moment_matrix_side"] = None if M is None else len(M)
    part = 0.0
    boolres = 0.0
    n, q = pe.n_vertices, pe.q
    probe_monomials: list[Monomial] = [ONE]
    max_extra = max(0, min(target.degree - 1, 2))
    for _ in range(12):
        k = int(rng.integers(0, max_extra + 1))
        verts = rng.choice(n, size=k, replace=False)
        m = canon(((0, int(u), int(rng.integers(0, q))) for u in verts))
        if m is not ZERO:
            probe_monomials.append(m)
    for m in probe_monomials:
        used = {u for (_, u, _) in m}
        free = [u for u in range(n) if u not in used][:4]
        for u in free:
            s = sum(target.moment(mul(m, var(u, a))) for a in range(q))
            part = max(part, abs(s - target.moment(m)))
        for (_, u, a) in m:
            boolres = max(boolres, abs(target.moment(mul(m, var(u, a))) - target.moment(m)))
    rep["partition_residual"] = part
    rep["booleanity_residual"] = boolres
    worst_neg, worst_sum = 0.0, 0.0
    if target.degree >= 2:
        pairs = list(itertools.combinations(range(n), 2))
        take = rng.choice(len(pairs), size=min(marginal_pairs, len(pairs)), replace=False)
        for t in take:
            u, v = pairs[int(t)]
            Mm = target.pair_marginal(u, v)
            worst_neg = min(worst_neg, float(Mm.min()))
            worst_sum = max(worst_sum, abs(float(Mm.sum()) - 1.0))
    rep["marginal_min_entry"] = worst_neg
    rep["marginal_sum_residual"] = worst_sum
    holds = {"scaling_residual": rep["scaling_residual"] <= 1e-6,
             "partition_residual": part <= 1e-6,
             "booleanity_residual": boolres <= 1e-6,
             "marginal_sum_residual": worst_sum <= 1e-6,
             "psd": rep["min_eig"] is None or rep["min_eig"] >= -TOL_PSD,
             "marginal_nonneg": worst_neg >= -1e-6}
    rep["failed"] = [name for name, ok in holds.items() if not ok]
    rep["ok"] = not rep["failed"]
    return rep


def clamp_distribution(vec: np.ndarray, policy: float = CLAMP_NEG) -> np.ndarray:
    """Clamp small negative entries to 0 and renormalize; larger negativity fails."""
    v = np.asarray(vec, dtype=float)
    if v.min() < -policy:
        raise ValidityError(f"negative probability {v.min()} beyond the clamp policy")
    v = np.clip(v, 0.0, None)
    s = v.sum()
    if s <= 0:
        raise ValidityError("distribution has no mass after clamping")
    return v / s
