"""The event/subcube search against its polynomial-scoring oracle.

`rounding.find_event_subcube` reads every candidate's p_event, score and
maximality from Z-moments of the product's joints; `event_search_oracle`
expands and evaluates one score polynomial per candidate.  Both must list the
same rows (a, s, maximal, event), with numbers within 1e-12, and choose the
same subcube, shift and event polynomial.
"""

import numpy as np
import pytest

from ugjohnson import johnson, rounding, sos, ug_core
from ugjohnson.monomials import EventPoly, poly_mul
from ugjohnson.potentials import z_pair_moments
from ugjohnson.rounding import RoundingConfig, find_event_subcube

import event_search_oracle as oracle


def _planted(n, q, eps, seed, D):
    inst, _ = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))
    return inst, sos.product(sos.shift_symmetrize(sos.solve(sos.relax(inst, D))))


def _close(inst, eps, D, r=None):
    cfg = RoundingConfig.for_instance(inst, eps=eps, degree=D)
    if r is not None:
        cfg.r = r
    return cfg


CASES = ("J821 q=2 r=0", "J821 q=2 r=1", "J821 q=3 r=0", "J821 q=3 r=1", "J521 D=6",
         "J521 D=6 r=1", "J521 D=6 conditioned r=1", "J521 low", "J521 low conditioned",
         "J521 D=2 r=1")


@pytest.fixture(scope="module")
def cases():
    """name -> (inst, prod, cfg): the J(8,2,1) e2e instances at r = 0 and 1, the
    degree-6 pool instance (plain, over 1-restrictions where most rows are not
    maximal, and on a conditioned product), the low-completeness regime (plain
    and conditioned, where 1-restrictions are maximal) and a degree-2 table, whose sides are too low for the squared event."""
    out = {}
    for q, eps in ((2, 0.05), (3, 0.0)):
        inst, prod = _planted(8, q, eps, 100 + q, 4)
        for r in (0, 1):
            out[f"J821 q={q} r={r}"] = inst, prod, _close(inst, eps, 4, r)
    inst, prod = _planted(5, 2, 0.3, 16, 6)
    ids = johnson.subcube(inst.graph_tag, (0,)).vertex_ids()
    cond = prod.condition(EventPoly(sos.density_poly(inst, ids, 1)))
    out["J521 D=6"] = inst, prod, _close(inst, 0.3, 6)
    out["J521 D=6 r=1"] = inst, prod, _close(inst, 0.3, 6, 1)
    out["J521 D=6 conditioned r=1"] = inst, cond, _close(inst, 0.3, 6, 1)
    inst, prod = _planted(5, 2, 0.5, 21, 4)
    out["J521 low"] = inst, prod, RoundingConfig.low_completeness(inst, c=0.7, degree=4)
    cond = prod.condition(EventPoly(sos.density_poly(inst, ids, 1)))
    out["J521 low conditioned"] = inst, cond, out["J521 low"][2]
    inst, prod = _planted(5, 2, 0.3, 16, 2)
    out["J521 D=2 r=1"] = inst, prod, _close(inst, 0.3, 2, 1)
    return out


@pytest.mark.parametrize("name", CASES)
def test_search_matches_the_polynomial_oracle(cases, name):
    inst, prod, cfg = cases[name]
    a, s, P, diag = find_event_subcube(inst, prod, cfg)
    a0, s0, P0, diag0 = oracle.find_event_subcube(inst, prod, cfg)
    assert len(diag["rows"]) == len(diag0["rows"])
    for row, ref in zip(diag["rows"], diag0["rows"]):
        assert [row[k] for k in ("a", "s", "maximal", "event", "floor")] == \
            [ref[k] for k in ("a", "s", "maximal", "event", "floor")]
        assert abs(row["p_event"] - ref["p_event"]) <= 1e-12
        assert row["score"] == ref["score"] or abs(row["score"] - ref["score"]) <= 1e-12
    assert (a, s, P.description) == (a0, s0, P0.description)
    assert list(P.poly.items()) == list(P0.poly.items())
    assert diag["chosen"]["floor_ok"] == diag0["chosen"]["floor_ok"]


def test_search_expands_no_polynomial_but_the_chosen_event(cases, monkeypatch):
    # J(8,2,1) q=3 over 1-restrictions: 27 candidates, 24 of them with the
    # squared event; only the chosen one may be multiplied out
    inst, prod, cfg = cases["J821 q=3 r=1"]
    calls = []
    real = rounding.poly_mul

    def counted(p1, p2):
        calls.append((p1, p2))
        return real(p1, p2)

    monkeypatch.setattr(rounding, "poly_mul", counted)
    a, s, P, diag = find_event_subcube(inst, prod, cfg)
    ids = johnson.subcube(inst.graph_tag, a).vertex_ids() if a else range(inst.vertex_count)
    dens = sos.density_poly(inst, list(ids), s)
    assert len(calls) <= 1
    assert all(p1 == p2 == dens for p1, p2 in calls)
    assert sum(r["event"] == "density_squared" for r in diag["rows"]) == 24


def test_z_pair_moments_diagonal_is_the_density_mean():
    inst, prod = _planted(4, 3, 0.3, 13, 4)
    Z2 = z_pair_moments(prod, range(inst.vertex_count))
    ids = johnson.subcube(inst.graph_tag, (1,)).vertex_ids()
    for s in range(inst.q):
        dens = sos.density_poly(inst, ids, s)
        assert np.trace(Z2[np.ix_(ids, ids, [s])][..., 0]) / len(ids) == \
            pytest.approx(prod.pE(dens), abs=1e-14)
        assert Z2[np.ix_(ids, ids, [s])].sum() / len(ids) ** 2 == \
            pytest.approx(prod.pE(poly_mul(dens, dens)), abs=1e-14)
