"""The program polynomials as they were built before `sos.shift_poly`, one
hand-written loop each, kept as reference oracles (the both-copies vertex
value and the both-satisfied density among them, which the event search
now reads from triple joints), with the q n^2 loop of
Z-monomial products that evaluated Phi on the moment path, the list of
disjoint pair-of-pairs that `pairwise_mi` drew from, a polynomial's value
at an integral assignment (pair), and the shift-variable identities as exact
polynomial equalities."""

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


def both_sat_density_poly(inst, sub_ids, s):
    """E_{u in J|_a}[G_s(u) val^a_u(X and X')], degree (3,3)."""
    within = set(int(u) for u in sub_ids)
    w = 1.0 / len(sub_ids)
    out = {}
    for u in sub_ids:
        term = poly_mul(z_poly(int(u), s, inst.q), vertex_val_and_poly(inst, int(u), within))
        out = poly_add(out, poly_scale(term, w))
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


def z_identity_failures(inst):
    """The shift-variable identities that `poly_mul`'s canonicalisation makes
    exact polynomial equalities, named where one does not hold: Booleanity
    Z_{u,s}^2 = Z_{u,s}; partition sum_s Z_{u,s} = (sum_a X_{u,a})(sum_b X'_{u,b});
    crossing Z_{u,s} Z_{v,t} Y_e Y'_e = 0 for every edge e = (u, v) and t != s."""
    q, failures = inst.q, []
    for u in range(inst.vertex_count):
        zs = [z_poly(u, s, q) for s in range(q)]
        failures += [f"booleanity u={u} s={s}" for s, z in enumerate(zs) if poly_mul(z, z) != z]
        labels = [{var(u, a, c): 1.0 for a in range(q)} for c in (0, 1)]
        if poly_add(*zs) != poly_mul(*labels):
            failures.append(f"partition u={u}")
    for k, (u, v, _) in enumerate(inst.edges):
        both = poly_mul(edge_sat_poly(inst, k, 0), edge_sat_poly(inst, k, 1))
        failures += [f"crossing edge={k} s={s} t={t}"
                     for s, t in itertools.permutations(range(q), 2)
                     if poly_mul(poly_mul(z_poly(u, s, q), z_poly(v, t, q)), both)]
    return failures
