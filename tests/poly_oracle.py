"""The program polynomials as they were built before `sos.shift_poly`, one
hand-written loop each, kept as reference oracles, with the q n^2 loop of
Z-monomial products that evaluated Phi on the moment path, the list of
disjoint pair-of-pairs that `pairwise_mi` drew from, and a polynomial's value
at an integral assignment (pair)."""

import itertools

from ugjohnson.monomials import mul, poly_add, poly_mul, poly_scale, var


def z_poly(u, s, q):
    out = {}
    for a in range(q):
        m = mul(var(u, a, 0), var(u, (a - s) % q, 1))
        out[m] = out.get(m, 0.0) + 1.0
    return out


def edge_sat_poly(inst, edge_idx, copy=0):
    (u, v, b) = inst.edges[edge_idx]
    out = {}
    for a in range(inst.q):
        m = mul(var(u, (a + b) % inst.q, copy), var(v, a, copy))
        out[m] = out.get(m, 0.0) + 1.0
    return out


def shift_indicator_poly(v, u, s, q, copy=0):
    out = {}
    for a in range(q):
        m = mul(var(v, a, copy), var(u, (a - s) % q, copy))
        out[m] = out.get(m, 0.0) + 1.0
    return out


def density_poly(inst, sub_ids, s):
    out = {}
    w = 1.0 / len(sub_ids)
    for u in sub_ids:
        for m, c in z_poly(int(u), s, inst.q).items():
            out[m] = out.get(m, 0.0) + w * c
    return out


def val_poly(inst, copy=0):
    out = {}
    for (u, v, b), w in zip(inst.edges, inst.weight_array().tolist()):
        for a in range(inst.q):
            m = mul(var(u, (a + b) % inst.q, copy), var(v, a, copy))
            out[m] = out.get(m, 0.0) + w
    return out


def vertex_val_poly(inst, u, copy=0, within=None):
    out = {}
    for k, c in inst.scoped_edges(u, within):
        (a_, b_, s) = inst.edges[k]
        for a in range(inst.q):
            m = mul(var(a_, (a + s) % inst.q, copy), var(b_, a, copy))
            out[m] = out.get(m, 0.0) + c
    return out


def vertex_val_and_poly(inst, u, within=None):
    out = {}
    for k, c in inst.scoped_edges(u, within):
        term = poly_mul(edge_sat_poly(inst, k, copy=0), edge_sat_poly(inst, k, copy=1))
        out = poly_add(out, poly_scale(term, c))
    return out


def phi_moments(prod, verts):
    """Plain-mode Phi = sum_s E_{u,v} pE[Z_{u,s} Z_{v,s}] over the scope."""
    q = prod.q
    acc = 0.0
    nv = len(verts)
    for s in range(q):
        for u in verts:
            for v in verts:
                acc += prod.pE(poly_mul(z_poly(u, s, q), z_poly(v, s, q))) / (nv * nv)
    return acc


def disjoint_pair_indices(S):
    pairs = [(u, v) for u, v in itertools.combinations(S, 2)]
    return [(p1, p2) for p1, p2 in itertools.combinations(range(len(pairs)), 2)
            if not set(pairs[p1]) & set(pairs[p2])]


def evaluate(p, x, xp=None):
    """p at the integral assignment x (pair (x, x')); x maps vertex -> label."""
    tot = 0.0
    for m, c in p.items():
        if all((x[u] if cp == 0 else xp[u]) == a for (cp, u, a) in m):
            tot += c
    return tot
