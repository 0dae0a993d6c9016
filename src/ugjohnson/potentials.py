"""Shift partitions and their potentials, local distributions, information
utilities, dense-subcube indicators, and the edge-covering decomposition.

Exact (integral-pair) variants are used wherever the object of study is a
concrete pair of assignments; pseudoexpectation variants evaluate the same
quantities as moments, falling back to flagged within-budget surrogates when
the degree cannot fit the full step-polynomial compositions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, log, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .johnson import JohnsonGraph, Subcube
from .monomials import ONE, Poly, poly_add, poly_mul, poly_scale, var
from .sos import (CLAMP_NEG, DegreeExhausted, ProductPE, PseudoExpectation,
                  clamp_distribution, shift_poly, vertex_val_poly)
from .steppoly import StepPoly, linear_surrogate
from .ug_core import UGInstance, satisfied_mask, vertex_values

NEAR_ZERO_PSI = 1e-9


# ---------------------------------------------------------------------------
# information-theoretic utilities (dense arrays over finite alphabets)


def entropy_nats(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def mutual_information(joint: np.ndarray, axes_a: Sequence[int],
                       axes_b: Sequence[int], bits: bool = True) -> float:
    """I(A;B) for a joint array; axes_a/axes_b partition the array axes."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=tuple(axes_b))
    pb = joint.sum(axis=tuple(axes_a))
    h = entropy_nats(pa) + entropy_nats(pb) - entropy_nats(joint)
    return h / log(2.0) if bits else h


def tv_distance(d1: np.ndarray, d2: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(d1) - np.asarray(d2)).sum())


def pinsker_check(joint: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]
                  ) -> dict:
    """TV(joint, product of marginals) <= sqrt(I_nats / 2); returns the residual."""
    joint = np.asarray(joint, dtype=float)
    pa = joint.sum(axis=tuple(axes_b))
    pb = joint.sum(axis=tuple(axes_a))
    prod = np.multiply.outer(pa, pb).reshape(joint.shape)
    lhs = tv_distance(joint, prod)
    mi_nats = mutual_information(joint, axes_a, axes_b, bits=False)
    rhs = sqrt(max(mi_nats, 0.0) / 2.0)
    return {"tv": lhs, "mi_nats": mi_nats, "bound": rhs, "residual": rhs - lhs}


def data_processing_check(joint2d: np.ndarray, g: np.ndarray, h: np.ndarray) -> dict:
    """I(g(A); h(B)) <= I(A;B) for deterministic maps given as label arrays."""
    joint2d = np.asarray(joint2d, dtype=float)
    ga, hb = np.asarray(g), np.asarray(h)
    out = np.zeros((ga.max() + 1, hb.max() + 1))
    for a in range(joint2d.shape[0]):
        for b in range(joint2d.shape[1]):
            out[ga[a], hb[b]] += joint2d[a, b]
    lhs = mutual_information(out, (0,), (1,))
    rhs = mutual_information(joint2d, (0,), (1,))
    return {"processed": lhs, "original": rhs, "residual": rhs - lhs}


# ---------------------------------------------------------------------------
# integral-pair shift partition machinery


def g_parts(inst: UGInstance, x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Indicator parts G_s(u) = 1(x(u) - x'(u) = s); shape (q, n)."""
    d = (np.asarray(x) - np.asarray(xp)) % inst.q
    out = np.zeros((inst.q, inst.vertex_count))
    out[d, np.arange(inst.vertex_count)] = 1.0
    return out


def f_parts(inst: UGInstance, x: np.ndarray, xp: np.ndarray, p: Callable,
            val_within: Optional[set] = None) -> np.ndarray:
    """F_s(u) = G_s(u) p(val_u(x)) p(val_u(x')); vals over `val_within` edges."""
    G = g_parts(inst, x, xp)
    vx = vertex_values(inst, satisfied_mask(inst, x), within=val_within)
    vxp = vertex_values(inst, satisfied_mask(inst, xp), within=val_within)
    return G * (p(vx) * p(vxp))[None, :]


def phi_integral(inst: UGInstance, x: np.ndarray, xp: np.ndarray, p: Callable,
                 scope: Optional[Sequence[int]] = None,
                 val_within: Optional[set] = None) -> float:
    """Shift-partition size sum_s (E_{u in scope} F_s(u))^2 for one pair."""
    F = f_parts(inst, x, xp, p, val_within=val_within)
    cols = np.asarray(sorted(scope)) if scope is not None else np.arange(inst.vertex_count)
    means = F[:, cols].mean(axis=1)
    return float(np.sum(means ** 2))


def potential_restriction_check(inst: UGInstance, x: np.ndarray, xp: np.ndarray,
                           sub: Subcube, base: StepPoly, shift: float) -> dict:
    """Phi^C_{beta-shift,nu}(x,x') >= Phi_{beta,nu}(x,x')|_C - 4 nu.

    Left side: vertex values inside the subcube, threshold lowered by `shift`
    (degenerate constant step if the threshold leaves (0,1)); right side: the
    global potential restricted to the subcube.
    """
    ids = set(sub.vertex_ids())
    p_in = base.shifted(shift)
    lhs = phi_integral(inst, x, xp, p_in, scope=ids, val_within=ids)
    rhs = phi_integral(inst, x, xp, base, scope=ids, val_within=None)
    return {"phi_subcube": lhs, "phi_global_restricted": rhs,
            "slack": lhs - (rhs - 4 * base.nu),
            "ok": lhs >= rhs - 4 * base.nu - 1e-9,
            "degenerate_step": getattr(p_in, "degenerate", False)}


# ---------------------------------------------------------------------------
# dense subcubes and edge covering (indicator variants, exact on pairs)


def default_eps_schedule(r: int, c: float = 1.0) -> list[float]:
    """eps_r = min(exp(-r), c^2 exp(-r)), eps_{i-1} = eps_i^5 / 2^{6r}."""
    eps = [0.0] * (r + 1)
    eps[r] = min(np.exp(-r), c * c * np.exp(-r))
    for i in range(r, 0, -1):
        eps[i - 1] = eps[i] ** 5 / 2 ** (6 * r)
    return eps


def dense_subcube_indicators(g: JohnsonGraph, inst: UGInstance, x: np.ndarray,
                             xp: np.ndarray, eps: Sequence[float]) -> dict:
    """Exact indicators T_{s,a} (dense at level |a|, not dense in any proper
    sub-restriction) and the count bound E_a[T_{s,a}] <= 4 delta(G_s)/(eps_i^2 l^i).

    The count bound is the Cayley-domain statement; the realized excess on the
    Johnson graph is reported as the bridge error instead of being assumed away.
    """
    r = len(eps) - 1
    for i in range(1, r + 1):
        if eps[i - 1] > eps[i] / (2 ** (i + 1) * i) + 1e-15:
            raise ValueError("schedule must satisfy eps_{i-1} <= eps_i / (2^{i+1} i)")
    G = g_parts(inst, x, xp)
    q = inst.q
    fired: dict[tuple, list[tuple]] = {}
    rows = []
    dens_cache: dict[tuple, np.ndarray] = {}

    def dens(a: tuple) -> np.ndarray:
        if a not in dens_cache:
            ids = Subcube(g, a).vertex_ids()
            dens_cache[a] = G[:, ids].mean(axis=1)
        return dens_cache[a]

    for i in range(1, r + 1):
        total = np.zeros(q)
        count_a = 0
        for a in itertools.combinations(range(g.n), i):
            count_a += 1
            da = dens(a)
            for s in range(q):
                if da[s] < eps[i]:
                    continue
                maximal = dens(())[s] < eps[0]
                if maximal:
                    for j in range(1, i):
                        for b in itertools.combinations(a, j):
                            if dens(b)[s] >= eps[j]:
                                maximal = False
                                break
                        if not maximal:
                            break
                if maximal:
                    total[s] += 1.0
                    fired.setdefault((s, i), []).append(a)
        for s in range(q):
            lhs = total[s] / count_a
            rhs = 4.0 * float(G[s].mean()) / (eps[i] ** 2 * g.ell ** i)
            rows.append({"s": s, "i": i, "count_mean": lhs, "bound": rhs,
                         "slack": rhs - lhs, "bridge_excess": max(0.0, lhs - rhs)})
    return {"rows": rows, "fired": fired,
            "max_bridge_excess": max((r["bridge_excess"] for r in rows), default=0.0)}


def edge_cover_decompose(g: JohnsonGraph, inst: UGInstance, x: np.ndarray,
                         xp: np.ndarray, r: int,
                         eps: Optional[Sequence[float]] = None) -> dict:
    """Indicator-variant edge covering:  val_I(x ^ x') <= T_0 + ... + T_r + err.

    T_0 = sum_s 1[delta(G_s) >= eps_0] E_u[G_s(u) val_u(x^x')],
    T_i = l^i E_{a in C([n],i)}[ sum_s T_{s,a} E_{u in J|_a}[G_s(u) val^a_u(x^x')] ],
    err = 4 (1-alpha)^{r+1} + 2^{6r} max_i eps_{i-1}/eps_i^4.
    Any negative slack is reported as the Johnson<->Cayley bridging excess.
    """
    if eps is None:
        eps = default_eps_schedule(r)
    for i in range(1, r + 1):
        if eps[i - 1] > eps[i] ** 5 / 2 ** (6 * r) + 1e-18:
            raise ValueError("schedule must satisfy eps_{i-1} <= eps_i^5 / 2^{6r}")
    if eps[r] > np.exp(-r):
        raise ValueError("schedule must satisfy eps_r <= exp(-r)")
    q = inst.q
    G = g_parts(inst, x, xp)
    both = satisfied_mask(inst, x) & satisfied_mask(inst, xp)
    lhs = float(np.dot(both.astype(float), inst.weight_array()))
    vand = vertex_values(inst, both)
    terms = [0.0] * (r + 1)
    for s in range(q):
        if G[s].mean() >= eps[0]:
            terms[0] += float(np.mean(G[s] * vand))
    ind = dense_subcube_indicators(g, inst, x, xp, list(eps))
    for (s, i), alist in ind["fired"].items():
        tot = 0.0
        for a in alist:
            ids = Subcube(g, a).vertex_ids()
            va = vertex_values(inst, both, within=ids)
            tot += float(np.mean(G[s, ids] * va[ids]))
        terms[i] += g.ell ** i * tot / comb(g.n, i)
    err = 4 * (1 - g.alpha) ** (r + 1)
    if r >= 1:
        err += 2 ** (6 * r) * max(eps[i - 1] / eps[i] ** 4 for i in range(1, r + 1))
    rhs = sum(terms) + err
    return {"lhs": lhs, "terms": terms, "err": err, "rhs": rhs,
            "slack": rhs - lhs, "bridge_excess": max(0.0, lhs - rhs),
            "eps": list(eps), "count_report": ind["rows"]}


# ---------------------------------------------------------------------------
# pseudoexpectation-side potentials


@dataclass
class ShiftPartitionSpec:
    """Parameters of the shift partition F_s / G_s used in potentials.

    mode 'plain' uses G_s (no value weighting); 'surrogate' multiplies in the
    degree-1 stand-in for the step polynomial on vertex values; 'steppoly'
    uses the full polynomial (available on the exact support path only).
    """
    inst: UGInstance
    beta: float
    nu: float
    mode: str = "plain"
    step: Optional[StepPoly] = None
    scope: Optional[tuple[int, ...]] = None          # vertices averaged over
    val_within: Optional[frozenset] = None           # edge scope for vertex values

    def scope_vertices(self) -> list[int]:
        return list(self.scope) if self.scope is not None else list(
            range(self.inst.vertex_count))

    def p_callable(self) -> Callable:
        if self.mode == "steppoly":
            if self.step is None:
                raise ValueError("steppoly mode requires a StepPoly")
            return self.step
        if self.mode == "plain":
            return lambda v: np.ones_like(np.asarray(v, dtype=float))
        f = linear_surrogate(self.beta, self.nu)
        return lambda v: np.clip(f(v), 0.0, 1.0)


def _surrogate_val_poly(spec: ShiftPartitionSpec, u: int, copy: int) -> Poly:
    vp = vertex_val_poly(spec.inst, u, copy=copy, within=spec.val_within)
    scale = 1.0 / (2.0 * spec.nu)
    out = poly_scale(vp, scale)
    return poly_add(out, {ONE: (spec.nu - spec.beta) * scale})


def phi_potential(spec: ShiftPartitionSpec, prod: ProductPE) -> dict:
    """Phi = pE[ sum_s (E_u F_s(u))^2 ] over the configured scope.

    Returns the value together with the representation actually used:
    'support' (exact), or 'moments', where plain mode's Phi is
    sum_s pE[delta(G_s)^2] with the density taken over the scope, read off
    the product's pair joints: (1/|S|^2) sum_{s,a,b} J[:, :, a+s, b+s, a, b].
    """
    verts = spec.scope_vertices()
    pairs = prod.exact_support()
    if pairs is not None:
        p = spec.p_callable()
        acc = 0.0
        for w, x, xp in pairs:
            acc += w * phi_integral(spec.inst, x, xp, p, scope=verts,
                                    val_within=spec.val_within)
        return {"phi": acc, "representation": "support", "mode": spec.mode}
    if spec.mode != "plain":
        raise DegreeExhausted(
            "squared step-weighted parts exceed the degree budget; use plain mode")
    J = prod.pair_joints(verts)
    a = np.arange(prod.q)
    acc = sum(J[:, :, (a[:, None] + s) % prod.q, (a + s) % prod.q, a[:, None], a].sum()
              for s in range(prod.q)) / len(verts) ** 2
    return {"phi": float(acc), "representation": "moments", "mode": "plain"}


def psi_potential(pe: PseudoExpectation, inst: UGInstance,
                  scope: Optional[Sequence[int]] = None) -> float:
    """Alternate shift potential
    Psi = E_{u,v}[ sum_s pPr[X_v - X_u = s]^2 pE[val_v | X_v - X_u = s] ],
    with near-zero conditioning events contributing 0.
    """
    if pe.degree < 4:
        raise DegreeExhausted("Psi needs degree >= 4")
    n, q = pe.n_vertices, pe.q
    verts = list(scope) if scope is not None else list(range(n))
    within = set(verts) if scope is not None else None
    acc = 0.0
    val_polys = {v: vertex_val_poly(inst, v, copy=0, within=within) for v in verts}
    for v in verts:
        vp = val_polys[v]
        for u in verts:
            if u == v:
                acc += pe.pE(vp)
                continue
            for s in range(q):
                ind = shift_poly(v, u, s, q)
                pr = pe.pE(ind)
                if pr < NEAR_ZERO_PSI:
                    continue
                cond_val = pe.pE(poly_mul(vp, ind)) / pr
                acc += pr * pr * cond_val
    return acc / (len(verts) ** 2)


# ---------------------------------------------------------------------------
# local distributions


Slot = tuple[str, int]  # ("X"|"Xp"|"p"|"pp", vertex)


@dataclass
class LocalDistributionCollection:
    """Joint distributions over requested (X, p) tuples from a product
    pseudoexpectation and a step polynomial (or its surrogate)."""
    prod: ProductPE
    spec: ShiftPartitionSpec
    flags: dict = field(default_factory=dict)

    def joint(self, slots: tuple[Slot, ...]) -> np.ndarray:
        arr, flag = _build_joint(self.prod, self.spec, slots)
        self.flags[tuple(slots)] = flag
        return arr


def _slot_factor_poly(spec: ShiftPartitionSpec, slot: Slot, value: int) -> Poly:
    kind, u = slot
    copy = 0 if kind in ("X", "p") else 1
    if kind in ("X", "Xp"):
        return {var(u, value, copy): 1.0}
    base = _surrogate_val_poly(spec, u, copy=copy)
    if value == 1:
        return base
    return poly_add({ONE: 1.0}, poly_scale(base, -1.0))


def _bernoulli_block(bern: Sequence[float]) -> np.ndarray:
    """Product of independent Bernoulli(pv) axes, one per p-slot in order."""
    sub = np.ones(tuple([2] * len(bern)))
    for kpos, pv in enumerate(bern):
        shape = [1] * len(bern)
        shape[kpos] = 2
        sub = sub * np.asarray([1.0 - pv, pv]).reshape(shape)
    return sub


def _support_cells(spec: ShiftPartitionSpec, slots: tuple[Slot, ...], pairs: list):
    """(X-cell, mass, p-values) of each support pair: the pair's labels on the
    X-slots and the clipped step values of its vertex values on the p-slots."""
    p = spec.p_callable()
    for w, x, xp in pairs:
        vx = vertex_values(spec.inst, satisfied_mask(spec.inst, x), within=spec.val_within)
        vxp = vertex_values(spec.inst, satisfied_mask(spec.inst, xp), within=spec.val_within)
        cell = [int(x[u] if kind == "X" else xp[u]) for kind, u in slots
                if kind in ("X", "Xp")]
        bern = [min(max(float(p(vx[u] if kind == "p" else vxp[u])), 0.0), 1.0)
                for kind, u in slots if kind in ("p", "pp")]
        yield cell, w, bern


def _moment_cells(prod: ProductPE, spec: ShiftPartitionSpec, slots: tuple[Slot, ...]):
    """(X-cell, mass, p-values) of every X-cell from moments: the cell's pE
    mass, and for each p-slot the clipped conditional mean of the surrogate
    given the cell (the clip belongs to the surrogate's pointwise semantics, so
    it cannot be pushed through the expectation; flagged as a truncation)."""
    x_slots = tuple(s for s in slots if s[0] in ("X", "Xp"))
    p_slots = tuple(s for s in slots if s[0] in ("p", "pp"))
    for x_cell in itertools.product(*[range(prod.q) for _ in x_slots]):
        m: Poly = {ONE: 1.0}
        for slot, value in zip(x_slots, x_cell):
            m = poly_mul(m, _slot_factor_poly(spec, slot, value))
        base = prod.pE(m)
        bern = []
        for slot in p_slots:
            if base <= 1e-12:
                bern.append(0.0)
                continue
            pv = prod.pE(poly_mul(m, _slot_factor_poly(spec, slot, 1))) / base
            bern.append(min(max(pv, 0.0), 1.0))
        yield x_cell, base, bern


def _accumulate(slots: tuple[Slot, ...], sizes: tuple[int, ...], cells) -> np.ndarray:
    """Sum each cell's mass times its Bernoulli block into the joint array;
    the block's axes are the p-slots', already in slot order."""
    x_axes = [i for i, s in enumerate(slots) if s[0] in ("X", "Xp")]
    arr = np.zeros(sizes)
    for x_cell, mass, bern in cells:
        idx: list = [slice(None)] * len(slots)
        for ax, v in zip(x_axes, x_cell):
            idx[ax] = v
        arr[tuple(idx)] += mass * _bernoulli_block(bern)
    return arr


def _build_joint(prod: ProductPE, spec: ShiftPartitionSpec, slots: tuple[Slot, ...]
                 ) -> tuple[np.ndarray, str]:
    sizes = tuple(prod.q if k in ("X", "Xp") else 2 for k, _ in slots)
    # the moment path needs the X-slots, and two degrees per side for the
    # surrogate of any p-slot on that side, within the side budgets
    need0 = sum(1 for k, _ in slots if k == "X") + \
        (2 if any(k == "p" for k, _ in slots) else 0)
    need1 = sum(1 for k, _ in slots if k == "Xp") + \
        (2 if any(k == "pp" for k, _ in slots) else 0)
    pairs = prod.exact_support()
    if pairs is not None:
        arr = _accumulate(slots, sizes, _support_cells(spec, slots, pairs))
        flag = "support"
    elif need0 <= prod.side_degree(0) and need1 <= prod.side_degree(1):
        arr = _accumulate(slots, sizes, _moment_cells(prod, spec, slots))
        flag = "moments" if all(k in ("X", "Xp") for k, _ in slots) else "moments_surrogate"
    else:
        # factorized fallback: split by copy when possible, else halve the
        # group; flagged so callers can report the truncation
        slots0 = tuple(s for s in slots if s[0] in ("X", "p"))
        slots1 = tuple(s for s in slots if s[0] in ("Xp", "pp"))
        if not slots0 or not slots1:
            k = len(slots) // 2
            if k == 0:
                raise DegreeExhausted("a single slot exceeds the degree budget")
            slots0, slots1 = slots[:k], slots[k:]
        a0, _ = _build_joint(prod, spec, slots0)
        a1, _ = _build_joint(prod, spec, slots1)
        arr = np.multiply.outer(a0, a1)
        order = list(slots0) + list(slots1)
        perm = [order.index(s) for s in slots]
        arr = np.transpose(arr, perm)
        flag = "factorized"
    flat = clamp_distribution(arr.ravel(), policy=CLAMP_NEG if flag == "moments" else 1e-6)
    return flat.reshape(sizes), flag


def y_slots(u: int, v: int, primed: bool, with_p: bool) -> tuple[Slot, ...]:
    """Slots of Y_{u,v} = (X_u, X_v, p_u, p_v) (or the primed copy)."""
    xs = "Xp" if primed else "X"
    ps = "pp" if primed else "p"
    s: list[Slot] = [(xs, u), (xs, v)]
    if with_p:
        s += [(ps, u), (ps, v)]
    return tuple(s)


def y_pair_joints(prod: ProductPE, spec: ShiftPartitionSpec, S: Sequence[int],
                  pairs: Sequence[tuple[int, int]], with_p: bool) -> list[np.ndarray]:
    """The (Y_{u,v}, Y'_{u,v}) joint of each pair (u, v) of vertices of S.  On
    moments without p-slots it is the slice J[u, v] of prod.pair_joints(S),
    clamped as a moment joint is; otherwise it is built slot by slot."""
    if with_p or prod.exact_support() is not None:
        return [_build_joint(prod, spec, y_slots(u, v, False, with_p) +
                             y_slots(u, v, True, with_p))[0] for u, v in pairs]
    J = prod.pair_joints(S)
    pos = {u: k for k, u in enumerate(S)}
    return [clamp_distribution(J[pos[u], pos[v]].ravel()).reshape(J.shape[2:])
            for u, v in pairs]


@lru_cache(maxsize=16)
def _disjoint_pair_indices(k: int) -> np.ndarray:
    """Read-only rows (p1, p2), p1 < p2 in itertools.combinations order, of the
    index pairs into itertools.combinations(range(k), 2) whose two vertex pairs
    share no vertex; it depends only on k, so it is built once per size
    (61,425 rows at k = 28)."""
    pairs = np.asarray(list(itertools.combinations(range(k), 2)), dtype=np.int64).reshape(-1, 2)
    i, j = np.triu_indices(len(pairs), 1)
    a, b = pairs[i], pairs[j]
    disjoint = (a[:, :1] != b).all(axis=1) & (a[:, 1:] != b).all(axis=1)
    out = np.column_stack([i[disjoint], j[disjoint]])
    out.flags.writeable = False
    return out


@dataclass
class MIStats:
    pairs: list
    values: list
    average: float
    maximum: float


def pairwise_mi(coll: LocalDistributionCollection, S: Sequence[int],
                primed: bool = False, with_p: bool = False,
                max_pairs: int = 40, seed: int = 0) -> MIStats:
    """Average and max of I(Y_{u1,v1}; Y_{u2,v2}) over sampled disjoint pairs.

    Pairs sharing a vertex are excluded: their mutual information is H of the
    shared coordinate no matter how uncorrelated the distribution is, and the
    correlation machinery accounts for them separately through its 1/|S| term.
    """
    rng = np.random.default_rng(seed)
    S = list(S)
    pairs = list(itertools.combinations(S, 2))
    combos = _disjoint_pair_indices(len(S))
    if len(combos) > max_pairs:
        take = rng.choice(len(combos), size=max_pairs, replace=False)
        combos = [combos[int(t)] for t in take]
    vals, used = [], []
    for (k1, k2) in combos:
        (u1, v1), (u2, v2) = pairs[k1], pairs[k2]
        slots = y_slots(u1, v1, primed, with_p) + y_slots(u2, v2, primed, with_p)
        arr = coll.joint(slots)
        half = len(slots) // 2
        val = mutual_information(arr, tuple(range(half)),
                                 tuple(range(half, len(slots))))
        vals.append(max(val, 0.0))
        used.append(((u1, v1), (u2, v2)))
    avg = float(np.mean(vals)) if vals else 0.0
    mx = float(np.max(vals)) if vals else 0.0
    return MIStats(used, vals, avg, mx)
