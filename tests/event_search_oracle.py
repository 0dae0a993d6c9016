"""The event/subcube search as it was written before it read Z-moments off the
product's joints, kept as the reference oracle: every candidate's score
polynomial is expanded with `poly_mul` and evaluated with `pE`, and the
maximality filter reads each sub-restriction's density polynomial."""

import itertools
from math import sqrt

import numpy as np

from ugjohnson import potentials as pot, rounding
from ugjohnson.johnson import Subcube
from ugjohnson.monomials import ONE, EventPoly, poly_add, poly_mul
from ugjohnson.rounding import THETA, NoDenseSubcube
from ugjohnson.sos import density_poly

from poly_oracle import both_sat_density_poly


def find_event_subcube(inst, prod, cfg):
    g = inst.graph_tag
    q = inst.q
    rows = []
    best = None
    side_budget = min(prod.side_degree(0), prod.side_degree(1))
    eps_sched = pot.default_eps_schedule(max(cfg.r, 1),
                                         cfg.c if cfg.regime == "low_completeness" else 1.0)
    for j in range(cfg.r + 1):
        for a in itertools.combinations(range(g.n), j):
            sub_ids = Subcube(g, a).vertex_ids() if j > 0 else list(range(g.num_vertices))
            for s in range(q):
                dens = density_poly(inst, sub_ids, s)
                if cfg.regime == "close_to_1":
                    thr = rounding.THR_SCALE * np.exp(-cfg.r)
                    if side_budget >= 4 and len(dens) ** 2 <= 2500:
                        event_poly = poly_mul(dens, dens)
                        event_kind = "density_squared"
                    else:
                        event_poly, event_kind = dens, "density"
                    score_poly = poly_mul(event_poly if side_budget >= 4 else dens,
                                          poly_add(dens, {ONE: -thr}))
                    floor = THETA * sqrt(max(cfg.eps, 0.0)) / (
                        q * g.ell ** j * np.exp(cfg.r))
                else:
                    thr = THETA * cfg.c ** 2 * eps_sched[j] ** 2 / (20 * max(cfg.r, 1))
                    event_poly, event_kind = dens, "density"
                    inner = both_sat_density_poly(inst, sub_ids, s)
                    score_poly = poly_mul(dens, poly_add(inner, {ONE: -thr}))
                    floor = THETA * cfg.c ** 2 / (8 * max(cfg.r, 1) * g.ell ** j * q)
                maximal = True
                if j > 0:
                    for jj in range(j):
                        for b in itertools.combinations(a, jj):
                            bids = (Subcube(g, b).vertex_ids() if jj > 0
                                    else list(range(g.num_vertices)))
                            if prod.pE(density_poly(inst, bids, s)) >= eps_sched[jj]:
                                maximal = False
                                break
                        if not maximal:
                            break
                score = prod.pE(score_poly) if maximal else -np.inf
                p_event = prod.pE(event_poly)
                rows.append({"a": list(a), "s": s, "score": score, "p_event": p_event,
                             "floor": floor, "maximal": maximal, "event": event_kind})
                key = (-np.round(score, 12), j, a, s)
                if maximal and (best is None or key < best[0]):
                    best = (key, a, s, event_poly, event_kind, score, p_event, floor)
    if best is None or best[5] <= 0.0:
        raise NoDenseSubcube("no candidate scored above zero")
    _, a, s, event_poly, event_kind, score, p_event, floor = best
    diag = {"rows": rows, "chosen": {"a": list(a), "s": s, "score": score,
                                     "p_event": p_event, "floor": floor,
                                     "floor_ok": p_event >= floor - 1e-12,
                                     "event": event_kind}}
    ev = EventPoly(event_poly, provenance="zero_one_product",
                   description=f"{event_kind}(G_{s}|{list(a)})")
    return a, s, ev, diag
