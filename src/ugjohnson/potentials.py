"""Shift partitions and their potentials, local distributions, information
utilities, dense-subcube indicators, and the edge-covering decomposition.

Exact (integral-pair) variants, step-weighted ones included, are used
wherever the object of study is a concrete pair of assignments.  The
pseudoexpectation variants (plain Phi, Psi and the local joints) read every
pseudoexpectation, a distribution's included, through the same label-moment
gathers, and raise DegreeExhausted where the degree cannot fit them.  Local
joints are read in batches, one vertex tuple per copy and row, as
ProductPE.joint takes them, and each row is clamped to a distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, log, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .johnson import JohnsonGraph, Subcube
from .sos import DegreeExhausted, ProductPE, PseudoExpectation, clamp_distribution
from .steppoly import StepPoly
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


def shift_diagonal(J: np.ndarray, k: int) -> np.ndarray:
    """D[..., s, l] = J[..., L_l + s, L_l] of joints J[..., a_1..a_k, c_1..c_k]
    over k vertices V per copy, L_l the l-th label vector (C order, labels mod
    q): D summed over l is pE[Z_{V_1,s} ... Z_{V_k,s}]."""
    q = J.shape[-1]
    L = np.indices((q,) * k).reshape(k, 1, -1)
    rows = np.ravel_multi_index((L + np.arange(q)[:, None]) % q, (q,) * k)
    return J.reshape(J.shape[:-2 * k] + (q ** k,) * 2)[..., rows, np.arange(q ** k)]


def z_pair_moments(prod: ProductPE, S: Sequence[int]) -> np.ndarray:
    """Z2[i, j, s] = pE[Z_{S_i,s} Z_{S_j,s}] from the product's pair joints; the
    diagonal Z2[i, i, s] is pE[Z_{S_i,s}]."""
    return shift_diagonal(prod.pair_joints(S), 2).sum(-1)


def phi_potential(prod: ProductPE, scope: Sequence[int]) -> float:
    """Phi = sum_s pE[delta(G_s)^2] with the density taken over the scope (the
    unweighted parts G_s): sum_{i,j,s} Z2[i, j, s] / |S|^2."""
    return float(z_pair_moments(prod, scope).sum() / len(scope) ** 2)


def psi_potential(pe: PseudoExpectation, inst: UGInstance,
                  scope: Optional[Sequence[int]] = None) -> float:
    """Alternate shift potential
    Psi = E_{u,v}[ sum_s pPr[X_v - X_u = s]^2 pE[val_v | X_v - X_u = s] ],
    with near-zero conditioning events contributing 0.  With val_v = sum_w
    sum_{a,b} W[v, w, a, b] X_{v,a} X_{w,b} over v's edges inside the scope,
    pPr^2 pE[val_v | .] = pPr pE[val_v 1(X_v - X_u = s)] is W contracted with
    the triple moments of (v, w, u), gathered only for the (v, w) of an edge.
    """
    if pe.degree < 4:
        raise DegreeExhausted("Psi needs degree >= 4")
    q, a = pe.q, np.arange(pe.q)
    verts = list(scope) if scope is not None else list(range(pe.n_vertices))
    within, k = set(verts) if scope is not None else None, len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    W: dict[tuple[int, int], np.ndarray] = {}  # (i, j) -> W[v_i, v_j, x_{v_i}, x_{v_j}]
    for v in verts:
        for e, c in inst.scoped_edges(v, within):
            x, y, b = inst.edges[e]  # satisfied when x_x - x_y = b
            Wvw = W.setdefault((pos[v], pos[x + y - v]), np.zeros((q, q)))
            Wvw[a, (a - b if x == v else a + b) % q] += c
    if not W:
        return 0.0
    (iv, iw), W = np.asarray(list(W)).T, np.stack(list(W.values()))
    P = pe.tuple_moments(list(itertools.product(verts, repeat=2))).reshape((k, k, q, q))
    T = pe.tuple_moments([(verts[i], verts[j], u) for i, j in zip(iv, iw) for u in verts])
    shift = ((a[:, None, None] - a[:, None] - a) % q == 0).astype(float)  # [a, c, s]: a - c = s
    pr = np.einsum("ijac,acs->ijs", P, shift)  # pPr[X_{v_i} - X_{v_j} = s]
    pr[(pr < NEAR_ZERO_PSI) | np.eye(k, dtype=bool)[:, :, None]] = 0.0
    M = np.einsum("pjs,acs->pjac", pr[iv], shift)
    acc = np.einsum("pab,pab->", W, P[iv, iw]) + \
        np.einsum("pab,pjabc,pjac->", W, T.reshape((len(W), k) + (q,) * 3), M)
    return float(acc) / k ** 2


# ---------------------------------------------------------------------------
# local distributions


@dataclass
class LocalDistributionCollection:
    """The local distributions of a product pseudoexpectation: joint(V0, V1)
    is prod.joint(V0, V1), a batch of one vertex tuple per copy, with each
    joint clamped.  It is a class only so that the benchmark tracer can count
    the batches read by patching joint."""
    prod: ProductPE

    def joint(self, V0: Sequence[Sequence[int]], V1: Sequence[Sequence[int]]) -> np.ndarray:
        return clamp_distribution(self.prod.joint(V0, V1))


def y_pair_joints(prod: ProductPE, S: Sequence[int],
                  pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (Y_{u,v}, Y'_{u,v}) joint of each pair (u, v) of vertices of S: the
    slice J[u, v] of prod.pair_joints(S), clamped as every local joint is."""
    pos = {u: k for k, u in enumerate(S)}
    ij = np.asarray([(pos[u], pos[v]) for u, v in pairs], dtype=np.int64).reshape(-1, 2)
    return clamp_distribution(prod.pair_joints(S)[ij[:, 0], ij[:, 1]])


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
                primed: bool = False, max_pairs: int = 40, seed: int = 0) -> MIStats:
    """Average and max of I(Y_{u1,v1}; Y_{u2,v2}) over sampled disjoint pairs,
    read as one batch of four-vertex joints of one copy (the primed one when
    primed); with no disjoint pairs (|S| < 4) nothing is read and both are 0.

    Pairs sharing a vertex are excluded: their mutual information is H of the
    shared coordinate no matter how uncorrelated the distribution is, and the
    correlation machinery accounts for them separately through its 1/|S| term.
    """
    rng = np.random.default_rng(seed)
    S = list(S)
    pairs = list(itertools.combinations(S, 2))
    combos = _disjoint_pair_indices(len(S))
    if len(combos) > max_pairs:
        combos = combos[rng.choice(len(combos), size=max_pairs, replace=False)]
    used = [(pairs[k1], pairs[k2]) for k1, k2 in combos.tolist()]
    if not used:
        return MIStats([], [], 0.0, 0.0)
    V, blank = [p1 + p2 for p1, p2 in used], [()] * len(used)
    J = coll.joint(blank, V) if primed else coll.joint(V, blank)
    vals = [max(mutual_information(j, (0, 1), (2, 3)), 0.0) for j in J]
    return MIStats(used, vals, float(np.mean(vals)), float(np.max(vals)))
