"""Pseudoexpectations for the UG program: relaxation, solving, and manipulation.

A degree-D pseudoexpectation is exposed as a moment oracle over canonical
monomials in the variables X_{u,a} (and a primed copy in product mode).  A
solved table is its vector in the reduced basis with labels 1..q-1 (label 0
eliminated via the partition constraint), which makes Booleanity,
annihilation, and the partition axioms hold identically; the SDP itself runs
over the shift-invariant Fourier moments and is mapped back to it.  Every
value the library reads, `pE` of a polynomial or a local joint, is gathered
from the single copies' full-label moment arrays; each class's scalar
`moment` is the uncached reference.  `validate` checks only what a single
copy can break: scaling, PSD-ness of the reduced-basis moment matrix and every
pair marginal's nonnegativity.

Product pseudoexpectations support per-side degree up to D (the Kronecker
product of two PSD moment matrices is PSD, so squares of polynomials with
per-side degree <= D/2 stay nonnegative, and a product is valid when its
factors are); conditioning multiplies in event polynomials and is the
reweighting operation of the framework.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from . import monomials as mon
from .monomials import (EventPoly, Monomial, ONE, ZERO, Poly, mul, poly_mul,
                        poly_sum, var)
from .sdp import MomentSDP, real_coefficients, solve_ipm
from .ug_core import UGInstance, value as ug_value

TOL_PSD = 1e-7
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
        """sum_m c_m pE[m], every monomial gathered from the label moments at once
        and summed in p's order, as the scalar definition sums them;
        DegreeExhausted over the degree, ValueError on a primed variable."""
        coef, (rows, primed) = _poly_rows(p, self.n_vertices, self.q)
        if primed.shape[1]:
            raise ValueError("single-copy pseudoexpectation got a primed variable")
        return sum((coef * _rows_moments(self, rows, np.zeros((1, 0), np.int32))[0]).tolist(), 0.0)

    def label_moments(self, d: int) -> list[np.ndarray]:
        """The full-label moments of degree <= d of a single copy, one array per
        degree k, of shape (C(n, k),) + (q,) * k: entry [c, a_1..a_k] is the
        moment of X_{u_1,a_1} ... X_{u_k,a_k} over the c-th k-subset u of the
        vertices in itertools.combinations order.  Read-only views of
        flat_moments(d)."""
        n, q = self.n_vertices, self.q
        flat, out, start = self.flat_moments(d), [], 0
        for k in range(d + 1):
            size = math.comb(n, k) * q ** k
            out.append(flat[start:start + size].reshape((-1,) + (q,) * k))
            start += size
        return out

    def reduced_moments(self, d: int) -> np.ndarray:
        """The moments of degree <= d at labels >= 1, in monomial_classes(n, q,
        d, True) order, then a 0 that index -1 (ZERO) reads."""
        return np.concatenate([F[(slice(None),) + (slice(1, None),) * k].ravel()
                               for k, F in enumerate(self.label_moments(d))] + [np.zeros(1)])

    def flat_moments(self, d: int) -> np.ndarray:
        """The full-label moments of degree <= d in monomial_classes(n, q, d,
        False) order, then those of any higher degree asked before, then a 0
        that index -1 (an annihilated product) reads: one read-only array per
        single copy, filled for the largest d asked, whose prefixes serve every
        lower degree."""
        if d > self.degree:
            raise DegreeExhausted(f"label moments of degree {d} > {self.degree}")
        have = self.__dict__.get("_flat")
        if have is None or have[0] < d:
            flat = np.concatenate([F.ravel() for F in self._fill_label_moments(d)] + [np.zeros(1)])
            flat.flags.writeable = False
            self._flat = have = (d, flat)
        return have[1]

    # convenience views -----------------------------------------------------

    def tuple_moments(self, V: Sequence[tuple[int, ...]]) -> np.ndarray:
        """A[b, a_1, ..., a_k] = pE[X_{V_b1,a_1} ... X_{V_bk,a_k}] over a batch of
        vertex k-tuples V (repeated vertices merge or annihilate); the pair
        marginal of (u, v) is tuple_moments([(u, v)])[0]."""
        return _joint_moments(self, tuple(V), (ONE,))[0]

    def value(self, inst: UGInstance, copy: int = 0) -> float:
        return self.pE(val_poly(inst, copy))


def val_poly(inst: UGInstance, copy: int = 0) -> Poly:
    return poly_sum((w, edge_sat_poly(inst, k, copy))
                    for k, w in enumerate(inst.weight_array().tolist()))


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

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        self._check_degree(m)
        tot = 0.0
        for p, x in self.support:
            if all(x[u] == a for (_, u, a) in m):
                tot += p
        return tot

    def _fill_label_moments(self, d: int) -> list[np.ndarray]:
        """Each support point's weight added at its own labels on every vertex
        subset, point by point in support order, as moment() sums them."""
        n, q = self.n_vertices, self.q
        out = []
        for k in range(d + 1):
            combos = _combinations(n, k)
            F = np.zeros((len(combos), q ** k))
            for p, x in self.support:
                F[np.arange(len(combos)), x[combos] @ q ** np.arange(k - 1, -1, -1)] += p
            out.append(F.reshape((-1,) + (q,) * k))
        return out


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
    """Pseudoexpectation backed by the SDP solver's reduced moment vector y,
    read-only, in monomial_classes(n, q, degree, True) order.

    Every table the library builds as a SolvedPE is invariant under global
    label shifts by construction: solve's IPM table comes from charge-0
    Fourier moments (Relaxation.reduced_table), its warm start and certificate
    are shift orbits (assignment_reduced_table), and verify's table is
    uniform.  So shift_symmetrize returns a SolvedPE as it is; a table read
    from a file (cli) is only validated, never rounded."""

    def __init__(self, n_vertices: int, q: int, degree: int,
                 y: Sequence[float], solve_info: Optional[dict] = None):
        self.n_vertices, self.q, self._degree = n_vertices, q, degree
        self.y = np.array(y, dtype=float)
        if self.y.shape != (want := _reduced_count(n_vertices, q, degree),):
            raise ValueError(f"reduced moment vector of shape {self.y.shape}, want ({want},)")
        self.y.flags.writeable = False
        self.solve_info = solve_info or {}
        self.mode = "single"

    @property
    def degree(self) -> int:
        return self._degree

    @cached_property
    def table(self) -> MappingProxyType:
        """Read-only {class: moment} view of y: the CLI's file format, moment()'s lookup."""
        classes = monomial_classes(self.n_vertices, self.q, self.degree, True)
        return MappingProxyType(dict(zip(classes, self.y.tolist())))

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        self._check_degree(m)
        out = 0.0
        for mm, cc in reduced_terms(m, self.q):
            out += cc * self.table[mm]
        return out

    def reduced_moments(self, d: int) -> np.ndarray:
        """The prefix of y of degree <= d, then a 0 that index -1 (ZERO) reads."""
        return np.append(self.y[:_reduced_count(self.n_vertices, self.q, d)], 0.0)

    def _fill_label_moments(self, d: int) -> list[np.ndarray]:
        """From the reduced table, one label axis t at a time: with the axes
        before t already full, X_{u,0} = 1 - sum_{b>=1} X_{u,b} fills label 0
        on axis t from the degree below and from labels >= 1."""
        n, q = self.n_vertices, self.q
        flat = self.reduced_moments(d)
        out: list[np.ndarray] = []
        for k in range(d + 1):
            combos = _combinations(n, k)
            F = np.empty((len(combos),) + (q,) * k)
            red = F[(slice(None),) + (slice(1, None),) * k]
            red[...], flat = flat[:red.size].reshape(red.shape), flat[red.size:]
            for t in range(k):
                head, tail = (slice(None),) * (1 + t), (slice(1, None),) * (k - 1 - t)
                lower = out[-1][_combination_rank(n, np.delete(combos, t, axis=1))]
                F[head + (0,) + tail] = lower[head + tail] - \
                    F[head + (slice(1, None),) + tail].sum(axis=1 + t)
            out.append(F)
        return out


class ConditionedPE(PseudoExpectation):
    """Single-copy reweighting pE'[m] = pE[m s] / pE[s]."""

    def __init__(self, base: PseudoExpectation, event: EventPoly):
        if base.mode != "single":
            raise ValueError("ConditionedPE is single-copy; condition products directly")
        _check_provenance(event)
        d = mon.poly_degree(event.poly)
        if d > base.degree - 2:
            raise DegreeExhausted(f"event degree {d} > D - 2 = {base.degree - 2}")
        z = base.pE(event.poly)
        if z < FLOOR_COND:
            raise NearZeroEvent(f"pE[event] = {z} below floor {FLOOR_COND}")
        self.base, self.event, self.z = base, event, z
        self.q, self.n_vertices = base.q, base.n_vertices
        self.mode = "single"
        self._degree = base.degree - d

    @property
    def degree(self) -> int:
        return self._degree

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        self._check_degree(m)
        num = 0.0
        for me, ce in self.event.poly.items():
            mm = mul(m, me)
            if mm is not ZERO:
                num += ce * self.base.moment(mm)
        return num / self.z

    def _fill_label_moments(self, d: int) -> list[np.ndarray]:
        """The base's moments gathered at m e for every class m and event term
        e: sum_e c_e pE[m e] / z, one degree at a time."""
        terms = tuple(self.event.poly)
        coef = np.fromiter(self.event.poly.values(), float, len(terms))
        flat = self.base.flat_moments(d + mon.poly_degree(self.event.poly))
        n, q = self.n_vertices, self.q
        return [np.tensordot(coef, flat[_tuple_index(n, q, _combinations(n, k), terms)], 1)
                / self.z for k in range(d + 1)]


def _check_provenance(event: EventPoly) -> None:
    """The one rule for every conditioned table, single copy or product: only a
    [0,1]-provenance event reweights a pseudoexpectation, whatever backs it."""
    if event.provenance != "zero_one_product":
        raise ValidityError("conditioning requires a [0,1]-provenance event")


def condition(pe: PseudoExpectation, event: EventPoly) -> PseudoExpectation:
    """Reweighting by a [0,1]-provenance event; the SoS analogue of conditioning."""
    if pe.mode == "product":
        return pe.condition(event)  # type: ignore[attr-defined]
    return ConditionedPE(pe, event)


class ShiftSymmetrizedPE(PseudoExpectation):
    """Average of a single copy's moments over global label shifts."""

    def __init__(self, base: PseudoExpectation):
        if base.mode != "single":
            raise ValueError("ShiftSymmetrizedPE is single-copy; symmetrise the factors")
        self.base = base
        self.q, self.n_vertices = base.q, base.n_vertices

    @property
    def degree(self) -> int:
        return self.base.degree

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        q = self.q
        tot = 0.0
        for s in range(q):
            tot += self.base.moment(tuple((c, u, (a + s) % q) for (c, u, a) in m))
        return tot / q

    def _fill_label_moments(self, d: int) -> list[np.ndarray]:
        """The base's arrays rolled by every shift s on every label axis, averaged."""
        return [sum(np.roll(F, -s, axis=tuple(range(1, F.ndim))) for s in range(self.q)) / self.q
                for F in self.base.label_moments(d)]


def shift_symmetrize(pe: PseudoExpectation) -> PseudoExpectation:
    """The average of a single copy over global label shifts.  A SolvedPE is
    shift-invariant by construction (see its docstring) and an already
    symmetrised pe is the average of itself, so both are returned as they
    are, arrays included."""
    return pe if isinstance(pe, (SolvedPE, ShiftSymmetrizedPE)) else ShiftSymmetrizedPE(pe)


class ProductPE(PseudoExpectation):
    """Two independent copies pE[X^a X'^b] = pE1[X^a] pE2[X^b], optionally
    reweighted by one mixed event: pE[m E] / z with z = pE[E] (the conditioned
    object after SubRound's step)."""

    def __init__(self, pe1: PseudoExpectation, pe2: Optional[PseudoExpectation] = None,
                 event: Optional[EventPoly] = None):
        self.pe1 = pe1
        self.pe2 = pe2 if pe2 is not None else pe1
        if self.pe1.mode != "single" or self.pe2.mode != "single":
            raise ValueError("product factors must be single-copy")
        self.q, self.n_vertices = pe1.q, pe1.n_vertices
        self.mode = "product"
        self.event, self.z = None, 1.0
        self._joints: dict[tuple, np.ndarray] = {}
        # the event is fixed, so each side's remaining degree is too
        self._side_degree = [pe.degree - (event.side_degree(c) if event else 0)
                             for c, pe in enumerate((self.pe1, self.pe2))]
        if event is not None:
            _check_provenance(event)
            self.event, self.z = event, self.pE(event.poly)  # z under the unconditioned product
            if self.z < FLOOR_COND:
                raise NearZeroEvent(f"pE[conditioning event] = {self.z} below {FLOOR_COND}")

    @property
    def degree(self) -> int:
        return min(self.side_degree(0), self.side_degree(1))

    def side_degree(self, copy: int) -> int:
        return self._side_degree[copy]

    def moment(self, m: Monomial) -> float:
        if m is ZERO:
            return 0.0
        self._check_degree(m)
        num = 0.0
        for me, ce in (self.event.poly if self.event is not None else {ONE: 1.0}).items():
            mm = mul(m, me)
            if mm is not ZERO:
                m0, m1 = split_copies(mm)
                num += ce * (self.pe1.moment(m0) * self.pe2.moment(m1))
        return num / self.z

    def pE(self, p: Poly) -> float:
        """(1/z) sum_m c_m sum_e c_e pE_1[m_0 e_0] pE_2[m_1 e_1] over the terms m
        = m_0 m'_1 of p (in p's order) and e = e_0 e'_1 of the event, gathered as
        joint gathers; DegreeExhausted when m and e do not fit a factor."""
        n, q = self.n_vertices, self.q
        (coef, rows), (ecoef, parts) = (_poly_rows(x, n, q) for x in (
            p, self.event.poly if self.event is not None else {ONE: 1.0}))
        a0, a1 = (_rows_moments(pe, rows[c], parts[c]) for c, pe in enumerate((self.pe1, self.pe2)))
        return sum((ecoef @ (a0 * a1) * coef).tolist(), 0.0) / self.z

    def joint(self, V0: Sequence[Sequence[int]], V1: Sequence[Sequence[int]]) -> np.ndarray:
        """J[b, a_1..a_k, c_1..c_l] = pE[X_{V0[b]_1,a_1} ... X_{V0[b]_k,a_k}
        X'_{V1[b]_1,c_1} ... X'_{V1[b]_l,c_l}] over a batch of one vertex tuple
        per copy.  With A_c^e[b, ...] = pE_c[X_{V_c[b]} e] gathered from factor
        c's label moments, J is the bilinear form (1/z) sum_e c_e A_0^{e_0}
        (x) A_1^{e_1} over the event's terms e = e_0 e'_1 (the one term 1
        without an event).  DegreeExhausted when a tuple and an event term do
        not fit their factor's degree."""
        poly = self.event.poly if self.event is not None else {ONE: 1.0}
        terms = [split_copies(m) for m in poly]
        V = [tuple(map(tuple, np.asarray(Vc, dtype=np.int64).reshape(len(Vc), -1).tolist()))
             for Vc in (V0, V1)]
        shape = (len(poly), len(V0), -1)
        a0, a1 = (_joint_moments(pe, Vc, tuple(t[c] for t in terms)).reshape(shape)
                  for c, (pe, Vc) in enumerate(zip((self.pe1, self.pe2), V)))
        coef = np.fromiter(poly.values(), float, len(poly))[:, None, None]
        J = np.einsum("tpa,tpc->pac", a0 * coef, a1) / self.z
        return J.reshape((len(V0),) + (self.q,) * (len(V[0][0]) + len(V[1][0])))

    def pair_joints(self, S: Sequence[int]) -> np.ndarray:
        """J[i, j, a, b, c, d] = pE[X_{S_i,a} X_{S_j,b} X'_{S_i,c} X'_{S_j,d}],
        one joint over every pair of S, cached per S."""
        key = tuple(int(u) for u in S)
        if key not in self._joints:
            V = tuple(itertools.product(key, repeat=2))
            J = self.joint(V, V).reshape((len(key),) * 2 + (self.q,) * 4)
            J.flags.writeable = False
            self._joints[key] = J
        return self._joints[key]

    def condition(self, event: EventPoly) -> "ProductPE":
        """Reweight by event; on a conditioned product the two events multiply."""
        if self.event is not None:  # [0,1] already, so the product has event's provenance
            event = EventPoly(poly_mul(self.event.poly, event.poly), event.provenance,
                              f"{self.event.description} & {event.description}")
        return ProductPE(self.pe1, self.pe2, event)


def product(pe: PseudoExpectation) -> ProductPE:
    return ProductPE(pe)


# ---------------------------------------------------------------------------
# shift indicators: edge satisfaction, Z variables and densities


def shift_poly(u: int, v: int, s: int, q: int, cu: int = 0, cv: int = 0) -> Poly:
    """sum_a X^{cu}_{u,a+s} X^{cv}_{v,a} (copy cu at u, copy cv at v): on
    integral points the indicator of x(u) - x(v) = s.  Every edge, Z and
    shift-indicator polynomial of the program is built here."""
    out: Poly = {}
    for a in range(q):
        m = mul(var(u, (a + s) % q, cu), var(v, a, cv))
        out[m] = out.get(m, 0.0) + 1.0
    return out


def edge_sat_poly(inst: UGInstance, edge_idx: int, copy: int = 0) -> Poly:
    (u, v, b) = inst.edges[edge_idx]
    return shift_poly(u, v, b, inst.q, copy, copy)


def z_poly(u: int, s: int, q: int) -> Poly:
    """Z_{u,s} = sum_a X_{u,a+s} X'_{u,a}: on integral pairs the indicator of
    x(u) - x'(u) = s, i.e. membership of u in the shift-partition part G_s."""
    return shift_poly(u, u, s, q, 0, 1)


def density_poly(inst: UGInstance, sub_ids: Sequence[int], s: int) -> Poly:
    """delta(G_s|_a) = E_{u in J|_a} Z_{u,s} as a (1,1)-degree polynomial."""
    w = 1.0 / len(sub_ids)
    return poly_sum((w, z_poly(int(u), s, inst.q)) for u in sub_ids)


# ---------------------------------------------------------------------------
# relaxation assembly and solving


@dataclass
class Relaxation:
    """The degree-D moment SDP of an instance.  The problem is built on its
    first read, so a solve that runs no SDP builds nothing."""
    inst: UGInstance
    D: int

    @property
    def classes(self) -> tuple[Monomial, ...]:
        """The reduced classes that index a solved table, built on the first read
        (relax never needs them)."""
        return monomial_classes(self.inst.vertex_count, self.inst.q, self.D, True)

    @cached_property
    def problem(self) -> MomentSDP:
        return _invariant_problem(self.inst, self.D)

    def reduced_table(self, y: np.ndarray) -> np.ndarray:
        """The reduced table, in monomial_classes(n, q, D, True) order, whose
        invariant Fourier moments are the problem's real unknowns y."""
        return _reduced_from_fourier(self.inst.vertex_count, self.inst.q, self.D,
                                     self.problem.coords(y))


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
def product_table(n: int, q: int, half_deg: int) -> np.ndarray:
    """Read-only (B, B) table of the index in monomial_classes(n, q, 2 half_deg,
    True) of the product of reduced basis monomials i and j; -1 where it is
    ZERO.  One _class_index call per block of rows, on and above the diagonal
    only, keeps the working memory small; the table is symmetric, so each block
    is mirrored below.  Callers pass every argument by position, so equal calls
    share one entry."""
    basis = _id_rows(monomial_classes(n, q, half_deg, True), n, q)
    T = np.empty((len(basis),) * 2, dtype=np.int64)
    step = max(1, (1 << 18) // len(basis))
    for lo in range(0, len(basis), step):
        hi = lo + step
        T[lo:hi, lo:] = _product_index(n, q, basis[lo:], basis[lo:hi], True)
        T[hi:, lo:hi] = T[lo:hi, hi:].T
    T.flags.writeable = False
    return T


@lru_cache(maxsize=64)
def _combinations(n: int, k: int) -> np.ndarray:
    """Read-only rows of itertools.combinations(range(n), k), in that order."""
    c = np.asarray(list(itertools.combinations(range(n), k)), dtype=np.int64)
    c = c.reshape(math.comb(n, k), k)
    c.flags.writeable = False
    return c


def _combination_rank(n: int, rows: np.ndarray) -> np.ndarray:
    """The index of each increasing row of k vertices in _combinations(n, k):
    their base-n keys increase in that order."""
    w = n ** np.arange(rows.shape[1] - 1, -1, -1)
    return np.searchsorted(_combinations(n, rows.shape[1]) @ w, rows @ w)


def _class_index(rows: np.ndarray, n: int, q: int, reduced: bool = False) -> np.ndarray:
    """The index in monomial_classes(n, q, d, reduced) of the product of the
    variables in each row, given as ids u q + a padded with n q; -1 where it
    annihilates.  Equal ids merge (X^2 = X); two labels of a vertex annihilate.
    Labels are digits 0..q-1 in base q, or, reduced, 1..q-1 in base q - 1."""
    lo = int(reduced)
    r = np.sort(rows, axis=1)
    r[:, 1:][r[:, 1:] == r[:, :-1]] = n * q
    r.sort(axis=1)
    u, a = np.divmod(r, q)
    deg = (u < n).sum(axis=1)
    zero = ((u[:, 1:] == u[:, :-1]) & (u[:, 1:] < n)).any(axis=1)
    out = np.full(len(r), -1, dtype=np.int64)
    start = 0
    for k in range(r.shape[1] + 1):
        sel = (deg == k) & ~zero
        out[sel] = start + _combination_rank(n, u[sel, :k]) * (q - lo) ** k + \
            (a[sel, :k] - lo) @ (q - lo) ** np.arange(k - 1, -1, -1)
        start += math.comb(n, k) * (q - lo) ** k
    return out


def _id_rows(monos: Sequence[Monomial], n: int, q: int) -> np.ndarray:
    """Each monomial's variable ids u q + a, copy tags dropped, padded with n q."""
    lens = np.fromiter(map(len, monos), np.int64, len(monos))
    rows = np.full((len(monos), lens.max(initial=0)), n * q, dtype=np.int32)
    rows[np.arange(rows.shape[1]) < lens[:, None]] = [u * q + a for m in monos for (_, u, a) in m]
    return rows


def _poly_rows(p: Poly, n: int, q: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The coefficients of p's nonzero terms and, per copy, their parts' _id_rows."""
    terms = [(m, c) for m, c in p.items() if m is not ZERO and c != 0.0]
    sides = [split_copies(m) for m, _ in terms]
    return (np.fromiter((c for _, c in terms), float, len(terms)),
            [_id_rows([t[c] for t in sides], n, q) for c in (0, 1)])


def _product_index(n: int, q: int, rows: np.ndarray, parts: np.ndarray,
                   reduced: bool = False) -> np.ndarray:
    """The class index of row_b parts_t at [t, b], both given as _id_rows."""
    (B, k), (T, w) = rows.shape, parts.shape
    full = np.empty((T, B, k + w), dtype=np.int32)
    full[..., :k], full[..., k:] = rows, parts[:, None]
    return _class_index(full.reshape(T * B, k + w), n, q, reduced).reshape(T, B)


def _rows_moments(pe: PseudoExpectation, rows: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """A[t, b] = pE[row_b parts_t] of a single copy, _id_rows both."""
    flat = pe.flat_moments(rows.shape[1] + parts.shape[1])
    return flat[_product_index(pe.n_vertices, pe.q, rows, parts)]


def _tuple_index(n: int, q: int, V: np.ndarray, parts: tuple) -> np.ndarray:
    """The class index, in monomial_classes(n, q, d, False), of X_{V_b1,a_1}
    ... X_{V_bk,a_k} parts[t] at [t, b, a_1, ..., a_k] for the rows V_b of the
    (B, k) vertex array V; -1 where it annihilates."""
    B, k = V.shape
    labels = np.asarray(list(itertools.product(range(q), repeat=k)), dtype=np.int32)
    rows = (V[:, None, :] * q + labels.reshape(q ** k, k)).reshape(B * q ** k, k)
    return _product_index(n, q, rows, _id_rows(parts, n, q)).reshape((len(parts), B) + (q,) * k)


@lru_cache(maxsize=64)
def _joint_index(n: int, q: int, V: tuple, parts: tuple) -> np.ndarray:
    """Read-only _tuple_index of a tuple of vertex tuples, cached across
    products: the same tuples and event terms recur in every product of a
    SubRound."""
    idx = _tuple_index(n, q, np.asarray(V, dtype=np.int32), parts)
    idx.flags.writeable = False
    return idx


def _joint_moments(pe: PseudoExpectation, V: tuple, parts: tuple) -> np.ndarray:
    """A[t, b, a_1, ..., a_k] = pE[X_{V_b1,a_1} ... X_{V_bk,a_k} parts[t]] of a
    single copy.  The index runs over the sorted distinct parts, so that both
    factors of a density event, whatever its shift, share one."""
    distinct = sorted(set(parts))
    where = {m: i for i, m in enumerate(distinct)}
    flat = pe.flat_moments(len(V[0]) + max(map(len, distinct)))
    return flat[_joint_index(pe.n_vertices, pe.q, V, tuple(distinct))][[where[m] for m in parts]]


def _reduced_count(n: int, q: int, d: int) -> int:
    """The number of classes of monomial_classes(n, q, d, True)."""
    return sum(math.comb(n, k) * (q - 1) ** k for k in range(d + 1))


def uniform_reduced_table(n: int, q: int, D: int) -> np.ndarray:
    """q^-k on every class of degree k of monomial_classes(n, q, D, True)."""
    return np.concatenate([np.full(math.comb(n, k) * (q - 1) ** k, q ** -k) for k in range(D + 1)])


def assignment_reduced_table(x: np.ndarray, q: int, D: int) -> np.ndarray:
    """Reduced moments of the shift orbit of the integral assignment x, in
    monomial_classes(len(x), q, D, True) order, in closed form: the orbit puts
    mass 1/q on each x + s, so the moment of X_{u_1,a_1} ... X_{u_k,a_k} is
    1/q when a_i - x(u_i) mod q is the same for every i and 0 otherwise (1
    on the empty monomial)."""
    x = np.asarray(x, dtype=np.int64)
    out = []
    for k in range(D + 1):
        labels = np.asarray(list(itertools.product(range(1, q), repeat=k)), dtype=np.int64)
        diff = (labels.reshape(1, (q - 1) ** k, k) - x[_combinations(len(x), k)][:, None, :]) % q
        out.append(np.where((diff == diff[..., :1]).all(axis=2), 1.0 / q if k else 1.0, 0.0).ravel())
    return np.concatenate(out)


def relax(inst: UGInstance, D: int) -> Relaxation:
    """The degree-D moment SDP over shift-invariant tables.

    Affine constraints do not change under a global label shift, so averaging
    a feasible table over the shifts keeps it feasible with the same value:
    the SDP loses nothing when it is restricted to invariant tables, whose
    Fourier moments vanish off total charge 0 (see _invariant_problem).

    For D = 2 the relaxation adds entrywise nonnegativity of all 2-vertex
    marginals (implied by the moment matrix only from degree 4 on), so that
    extracted local distributions are genuine at every supported degree.
    """
    if D % 2 != 0 or D < 2:
        raise ValueError("degree must be a positive even integer")
    n, q = inst.vertex_count, inst.q
    if (n * q) ** (D // 2) > 40_000_000:
        raise ValueError("relaxation exceeds the desk budget")
    return Relaxation(inst, D)


def _charge_count(q: int, k: int, r: int) -> int:
    """The number of charge vectors in {1..q-1}^k of total charge r mod q."""
    return ((q - 1) ** k + (q * (r == 0) - 1) * (-1) ** k) // q


def invariant_sizes(n: int, q: int, D: int) -> tuple[int, tuple[int, ...]]:
    """(real unknowns, block sides r = 0..q/2) of the invariant degree-D
    relaxation, counted in closed form; a side-1 block is the constant 1."""
    m = sum(math.comb(n, k) * _charge_count(q, k, 0) for k in range(1, D + 1))
    sides = tuple(sum(math.comb(n, k) * _charge_count(q, k, r) for k in range(D // 2 + 1))
                  for r in range(q // 2 + 1))
    return m, sides


def _charge_grid(n: int, q: int, k: int, lo: int) -> np.ndarray:
    """Dense charge vectors over the vertices, at [c, t]: the t-th tuple of
    charges in lo..q-1 (itertools.product order) on the c-th k-subset.  At
    lo = 1 the rows are the reduced k-classes, X_{u,a} read as chi_{u,a}."""
    combos = _combinations(n, k)
    tuples = np.asarray(list(itertools.product(range(lo, q), repeat=k)), dtype=np.int64)
    F = np.zeros((len(combos), len(tuples), n), dtype=np.int64)
    F[np.arange(len(combos))[:, None, None], np.arange(len(tuples))[None, :, None],
      combos[:, None, :]] = tuples.reshape(len(tuples), k)
    return F


def _charge_rank(c: np.ndarray, n: int, q: int, d: int) -> np.ndarray:
    """The index in monomial_classes(n, q, d, True) of each dense charge vector
    of support <= d."""
    ids = np.sort(np.where(c > 0, np.arange(n) * q + c, n * q), axis=1)[:, :d]
    return _class_index(ids, n, q, True)


@lru_cache(maxsize=8)
def _invariant_layout(n: int, q: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, conj): index[r] is the coordinate of the r-th class of
    monomial_classes(n, q, D, True), read as a charge vector, among those of
    total charge 0 (-1 off charge 0); conj[k] is the coordinate of -c for
    coordinate c.  Negating the labels of a k-class reverses their order
    among the (q-1)^k label tuples of its vertex set."""
    masks, neg, start = [], [], 0
    for k in range(D + 1):
        labels = np.asarray(list(itertools.product(range(1, q), repeat=k)), dtype=np.int64)
        C, L = math.comb(n, k), len(labels)
        masks.append(np.tile(labels.reshape(L, k).sum(axis=1) % q == 0, C))
        neg.append(start + np.arange(C * L).reshape(C, L)[:, ::-1].ravel())
        start += C * L
    keep = np.concatenate(masks)
    index = np.where(keep, np.cumsum(keep) - 1, -1)
    conj = index[np.concatenate(neg)[keep]]
    for a in (index, conj):
        a.flags.writeable = False
    return index, conj


def _invariant_problem(inst: UGInstance, D: int) -> MomentSDP:
    """The relaxation over the invariant Fourier moments yh[c] = pE[chi_c], c of
    total charge 0 and support <= D, in monomial_classes(n, q, D, True) order.

    Basis monomials alpha, beta of degree <= D/2 and charge r give the entry
    pE[conj(chi_alpha) chi_beta] = yh[beta - alpha]: one coordinate, as
    chi_{u,i} chi_{u,j} = chi_{u,i+j}.  An edge x_u - x_v = s is satisfied with
    probability (1/q) sum_j w^{-js} yh[u:j, v:-j], and at D = 2 the pair
    marginal pE[X_{u,d} X_{v,0}] = (1/q^2) sum_j w^{-jd} yh[u:j, v:-j] is
    every pair marginal of an invariant table."""
    n, q = inst.vertex_count, inst.q
    index, conj = _invariant_layout(n, q, D)
    basis = np.concatenate([_charge_grid(n, q, k, 1).reshape(-1, n) for k in range(D // 2 + 1)])
    charge = basis.sum(axis=1) % q
    sides, ei, ej, ek, start = [], [], [], [], 0
    for r in range(q // 2 + 1):
        a = basis[charge == r]
        if len(a) < 2:  # the block [[1]]
            continue
        diff = (a[None, :, :] - a[:, None, :]) % q   # [i, j]: beta_j - alpha_i
        i, j = np.divmod(np.arange(len(a) ** 2), len(a))
        ei.append(i + start)
        ej.append(j + start)
        ek.append(index[_charge_rank(diff.reshape(-1, n), n, q, D)])
        sides.append(len(a))
        start += len(a)
    ei, ej, ek = (np.concatenate(v) for v in (ei, ej, ek))
    const = ek == 0
    omega = np.exp(2j * np.pi * np.arange(q) / q)
    js = np.arange(1, q)

    def pair_coords(U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """The coordinate of [u:j, v:-j] at [e, j - 1]."""
        c = np.zeros((len(U), q - 1, n), dtype=np.int64)
        rows = np.arange(len(U))[:, None]
        c[rows, js - 1, U[:, None]] = js
        c[rows, js - 1, V[:, None]] = q - js
        return index[_charge_rank(c.reshape(-1, n), n, q, 2)].reshape(len(U), q - 1)

    E = np.asarray([e[:2] for e in inst.edges], dtype=np.int64).reshape(-1, 2)
    shift = np.asarray([e[2] for e in inst.edges], dtype=np.int64)
    w = inst.weight_array()
    chat = np.zeros(len(conj), dtype=complex)
    chat[0] = w.sum() / q
    np.add.at(chat, pair_coords(E[:, 0], E[:, 1]),
              w[:, None] / q * omega[(-js[None, :] * shift[:, None]) % q])
    real = None if q == 2 else conj
    G = g0 = None
    if D == 2:
        P = _combinations(n, 2)
        ghat = np.zeros((len(P), q, len(conj)), dtype=complex)
        ghat[:, :, 0] = 1.0 / q ** 2
        d = np.arange(q)
        ghat[np.arange(len(P))[:, None, None], d[None, :, None],
             pair_coords(P[:, 0], P[:, 1])[:, None, :]] = omega[(-np.outer(d, js)) % q] / q ** 2
        rows = real_coefficients(ghat.reshape(len(P) * q, -1), real)
        G, g0 = np.ascontiguousarray(rows[:, 1:]), rows[:, 0].copy()
    uniform = np.zeros(len(conj))
    uniform[0] = 1.0
    return MomentSDP(side=start, n_classes=len(conj), entry_i=ei[~const], entry_j=ej[~const],
                     entry_k=ek[~const], const_entries=(ei[const], ej[const]),
                     c=real_coefficients(chat, real), uniform_y=uniform, G=G, g0=g0,
                     blocks=tuple(sides), conj=real)


def _reduced_from_fourier(n: int, q: int, D: int, yh: np.ndarray) -> np.ndarray:
    """The reduced table of the invariant Fourier moments yh: on each vertex set,
    pE[prod X_{u,a_u}] = q^-k sum_j w^{-j.a} pE[chi_j], one FFT over the
    label axes, where chi_{u,0} = 1 and yh is 0 off charge 0."""
    index, _ = _invariant_layout(n, q, D)
    ext = np.append(yh, 0.0)
    out = []
    for k in range(D + 1):
        c = _charge_grid(n, q, k, 0)
        Fh = ext[index[_charge_rank(c.reshape(-1, n), n, q, k)]]
        F = np.fft.fftn(Fh.reshape((len(c),) + (q,) * k), axes=tuple(range(1, k + 1)))
        out.append(F.real[(slice(None),) + (slice(1, None),) * k].ravel() / q ** k)
    return np.concatenate(out)


def _local_search(inst: UGInstance, seed: int) -> tuple[np.ndarray, float]:
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
    for _ in range(4):
        candidates.append(rng.integers(0, q, size=n))
    best_x, best_v = None, -1.0
    for x0 in candidates:
        x = x0.copy()
        for _ in range(40):
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
    invariant problem permits a dense Schur complement: at most 2400 real
    unknowns and no block side over 260, both counted in closed form before
    anything is built.  The warm start replaces the SDP table only when it
    scores higher by more than the certified gap (by more than 1e-9 against an
    uncertified table); over the budget the warm start is returned
    uncertified.  solve_info["source"] names the table returned: "sdp",
    "warm_start" or "warm_certificate"; on the IPM path solve_info records the
    IPM table's objective ("sdp_objective"), the largest entry of its final
    primal residual ("primal_residual"), the block sides solved ("blocks") and
    the real unknowns ("variables").
    """
    inst, q, D = relaxation.inst, relaxation.inst.q, relaxation.D
    x_ws, v_ws = _local_search(inst, seed)
    y = y_ws = assignment_reduced_table(x_ws, q, D)
    info = {"warm_value": v_ws, "objective": v_ws, "iterations": 0}
    m, sides = invariant_sizes(inst.vertex_count, q, D)
    if v_ws >= 1.0 - 1e-12:
        info.update(method="warm_certificate", source="warm_certificate", gap=0.0,
                    certified=True)
    elif m <= 2400 and max(sides) <= 260:
        prob = relaxation.problem
        res = solve_ipm(prob)
        # the integral witness replaces the SDP table only when it wins by more
        # than the certified gap (an uncertified table has no slack)
        slack = res.gap if res.status == "optimal" else 0.0
        if res.objective < v_ws - slack - 1e-9:
            source = "warm_start"
        else:
            y, source = relaxation.reduced_table(res.y), "sdp"
            info["objective"] = float(prob.c @ res.y)
        info.update(method="ipm", source=source, gap=res.gap,
                    certified=res.status == "optimal", iterations=res.iterations,
                    min_eig=res.min_eig, status=res.status, sdp_objective=res.objective,
                    primal_residual=res.primal_residual, blocks=list(prob.blocks),
                    variables=prob.m)
    else:
        info.update(method="warm_start", source="warm_start", gap=math.nan, certified=False,
                    status="over_budget")
    return SolvedPE(inst.vertex_count, q, D, y, solve_info=info)


# ---------------------------------------------------------------------------
# validation


def validate(pe: PseudoExpectation) -> dict:
    """Scaling pE[1] = 1, PSD of the moment matrix and nonnegativity of every
    pair marginal of one single copy: the checks a table can fail.  A product
    raises ValueError: validate its factors instead, as the Kronecker product
    of two PSD moment matrices is PSD.  Booleanity and partition need
    none, as _class_index merges X^2 = X before any read and a label-0 moment is
    the degree below minus labels >= 1.  That partition also makes the
    full-label moment matrix A M A^T for a 0/+-1 matrix A, where M is the
    reduced-basis matrix (labels >= 1), itself a principal submatrix of the
    full one: one is PSD exactly when the other is, and M's smallest eigenvalue
    is the larger.  So M, over degree <= min(D/2, 3) (D = 6 is the largest
    relaxation solved), is the one matrix read.  rep["failed"] names the
    invariants that do not hold; rep["ok"] is true when it is empty."""
    if pe.mode != "single":
        raise ValueError("validate checks one copy: validate the product's factors")
    rep: dict = {"mode": pe.mode, "degree": pe.degree}
    rep["scaling_residual"] = abs(pe.pE({ONE: 1.0}) - 1.0)
    h = min(pe.degree // 2, 3)
    M = pe.reduced_moments(2 * h)[product_table(pe.n_vertices, pe.q, h)]
    rep["min_eig"] = float(np.linalg.eigvalsh(M).min())
    rep["moment_matrix_side"] = len(M)
    # every pair marginal, at every label pair
    pairs = pe.label_moments(2)[2] if pe.degree >= 2 else ()
    rep["marginal_min_entry"] = float(np.min(pairs, initial=0.0))
    holds = {"scaling_residual": rep["scaling_residual"] <= 1e-6,
             "psd": rep["min_eig"] >= -TOL_PSD,
             "marginal_nonneg": rep["marginal_min_entry"] >= -1e-6}
    rep["failed"] = [name for name, ok in holds.items() if not ok]
    rep["ok"] = not rep["failed"]
    return rep


def clamp_distribution(J: np.ndarray) -> np.ndarray:
    """Each distribution J[b] of a batch with entries below 0 clamped to 0 and
    renormalised; ValidityError, with the batch's minimum, when an entry is
    below -CLAMP_NEG."""
    v = np.asarray(J, dtype=float)
    low = v.min(initial=0.0)
    if low < -CLAMP_NEG:
        raise ValidityError(f"negative probability {low} beyond -CLAMP_NEG")
    v = np.clip(v, 0.0, None)
    s = v.sum(axis=tuple(range(1, v.ndim)), keepdims=True)
    if (s <= 0).any():
        raise ValidityError("distribution has no mass after clamping")
    return v / s
