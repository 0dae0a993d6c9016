"""Psi, Condition&Round and the solver's two reduced tables as they were
computed before they read the label arrays: one scalar moment per monomial,
one loop per pair, anchor or class, kept as reference oracles."""

import numpy as np

from ugjohnson import monomials as mon
from ugjohnson.monomials import mul, poly_mul, var
from ugjohnson.potentials import NEAR_ZERO_PSI
from ugjohnson.rounding import ANCHOR_FLOOR, _scoped_value

from pair_joint_oracle import memoised, pE
from poly_oracle import shift_indicator_poly, vertex_val_poly


def psi_potential(pe, inst, scope=None):
    """Psi = E_{u,v}[ sum_s pPr[X_v - X_u = s]^2 pE[val_v | X_v - X_u = s] ]."""
    q = pe.q
    verts = list(scope) if scope is not None else list(range(pe.n_vertices))
    within = set(verts) if scope is not None else None
    acc = 0.0
    for v in verts:
        vp = vertex_val_poly(inst, v, copy=0, within=within)
        for u in verts:
            if u == v:
                acc += pE(pe, vp)
                continue
            for s in range(q):
                ind = shift_indicator_poly(v, u, s, q)
                pr = pE(pe, ind)
                if pr < NEAR_ZERO_PSI:
                    continue
                acc += pr * pr * (pE(pe, poly_mul(vp, ind)) / pr)
    return acc / (len(verts) ** 2)


def condition_and_round(pe, inst, scope=None, anchor_budget=32):
    """For each anchor u, the argmax label of every vertex's marginal
    conditioned on X_u = 0; the best assignment and the per-anchor records.
    pe is shift-symmetrised already."""
    moment = memoised(pe).moment
    verts = list(scope) if scope is not None else list(range(pe.n_vertices))
    within = set(verts) if scope is not None else None
    best_x, best_v, rows = None, -1.0, []
    for u in verts[:anchor_budget]:
        z = moment(var(u, 0))
        if z < ANCHOR_FLOOR:
            continue
        x = np.zeros(inst.vertex_count, dtype=np.int64)
        for v in verts:
            if v != u:
                marg = np.array([moment(mul(var(v, b), var(u, 0))) for b in range(pe.q)])
                x[v] = int(np.argmax(np.round(marg / z, 12)))
        val = _scoped_value(inst, x, within)
        rows.append({"anchor": int(u), "value": val})
        if val > best_v + 1e-15:
            best_v, best_x = val, x
    return best_x, rows


def uniform_reduced_table(classes, q):
    return np.asarray([q ** (-mon.degree(m)) for m in classes])


def assignment_reduced_table(classes, x, q):
    """Reduced moments of the shift orbit of x, one class and shift at a time."""
    y = np.empty(len(classes))
    for k, m in enumerate(classes):
        cnt = 0
        for s in range(q):
            if all((x[u] + s) % q == a for (_, u, a) in m):
                cnt += 1
        y[k] = cnt / q
    return y
