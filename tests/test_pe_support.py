"""pE of products of distributions against the former support-walking
evaluators.

The two reference oracles below are the evaluators `potentials.support_pairs`
and `rounding._pe_of_poly` as they stood before the label-moment gathers
replaced them, with one rule added to the first: a single copy conditioned on
an event has its base's support reweighted by the event.  They read the
pseudoexpectations' internals directly.  Drawn mixtures, shift-symmetrised and
conditioned, must give the same polynomial expectations.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import ONE, EventPoly, poly_add, poly_mul, var
from ugjohnson.sos import density_poly

from poly_oracle import both_sat_density_poly, evaluate


def ref_support_pairs(prod):
    def expand(pe):
        if isinstance(pe, sos.DistributionPE):
            return [(p, x) for p, x in pe.support]
        if isinstance(pe, sos.ShiftSymmetrizedPE):
            inner = expand(pe.base)
            if inner is None:
                return None
            q = pe.q
            return [(p / q, (x + s) % q) for p, x in inner for s in range(q)]
        if isinstance(pe, sos.ConditionedPE):
            inner = expand(pe.base)
            if inner is None:
                return None
            out = []
            for p, x in inner:
                w = p * evaluate(pe.event.poly, x)
                if w < -1e-9:
                    raise ValueError("conditioning event is negative on the support")
                if w > 0.0:
                    out.append((w, x))
            tot = sum(w for w, _ in out)
            return [(w / tot, x) for w, x in out]
        return None

    s1 = expand(prod.pe1)
    s2 = expand(prod.pe2)
    if s1 is None or s2 is None:
        return None
    out = []
    for p1, x1 in s1:
        for p2, x2 in s2:
            w = p1 * p2
            if prod.event:
                w *= evaluate(prod.event.poly, x1, x2)
            if w < -1e-9:
                raise ValueError("conditioning event is negative on the support")
            if w > 0.0:
                out.append((w, x1, x2))
    tot = sum(w for w, _, _ in out)
    if tot <= 0:
        return None
    return [(w / tot, x1, x2) for w, x1, x2 in out]


def ref_pe_of_poly(prod, p):
    pairs = ref_support_pairs(prod)
    if pairs is not None:
        return sum(w * evaluate(p, x, xp) for w, x, xp in pairs)
    return prod.pE(p)


G = johnson.build(4, 2, 0.5)  # 6 vertices
INSTANCES = {q: ug_core.plant(G, q, ug_core.PlantedSpec(0.3, 5))[0] for q in (2, 3)}
SUBCUBES = [(), (0,), (2,)]


@st.composite
def distributions(draw, q):
    k = draw(st.integers(1, 3))
    xs = [np.asarray(draw(st.lists(st.integers(0, q - 1), min_size=6, max_size=6)))
          for _ in range(k)]
    ws = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    tot = sum(ws)
    return sos.mixture([(sos.from_assignment(x, q), w / tot) for x, w in zip(xs, ws)])


@st.composite
def products(draw):
    """An instance and products of two drawn distributions: plain,
    shift-symmetrised, and conditioned on a vertex label and on a density
    event."""
    q = draw(st.sampled_from((2, 3)))
    inst = INSTANCES[q]
    dA, dB = draw(distributions(q)), draw(distributions(q))
    prod = sos.ProductPE(dA, dB)
    sym = sos.ProductPE(sos.shift_symmetrize(dA), sos.shift_symmetrize(dB))
    out = [prod, sym]
    a = draw(st.sampled_from(SUBCUBES))
    ids = johnson.subcube(G, a).vertex_ids() if a else list(range(6))
    u = draw(st.integers(0, 5))
    conditioned = [(dA, EventPoly({var(u, 0): 1.0})),
                   (prod, EventPoly(density_poly(inst, ids, draw(st.integers(0, q - 1)))))]
    for pe, ev in conditioned:
        try:
            cond = sos.condition(pe, ev)
        except sos.NearZeroEvent:
            continue
        out.append(cond if cond.mode == "product" else sos.ProductPE(cond, dB))
    return inst, out


SETTINGS = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(products(), st.sampled_from(SUBCUBES), st.integers(0, 2))
def test_pE_matches_support_evaluation(case, a, s):
    inst, prods = case
    s %= inst.q
    ids = johnson.subcube(G, a).vertex_ids() if a else list(range(6))
    dens = density_poly(inst, ids, s)
    polys = [dens,  # the density event, and the two regimes' score polynomials
             poly_mul(poly_mul(dens, dens), poly_add(dens, {ONE: -0.3})),
             poly_mul(dens, poly_add(both_sat_density_poly(inst, ids, s), {ONE: -0.05}))]
    for prod in prods:
        for p in polys:
            assert prod.pE(p) == pytest.approx(ref_pe_of_poly(prod, p), abs=1e-12, rel=0)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(distributions))
def test_shift_symmetrize_is_idempotent(d):
    sym = sos.shift_symmetrize(d)
    assert sos.shift_symmetrize(sym) is sym
    q = d.q
    orbit = sos.DistributionPE([(p / q, (x + s) % q) for p, x in d.support for s in range(q)], q)
    for F, want in zip(sym.label_moments(4), orbit.label_moments(4)):
        assert F.shape == want.shape and np.abs(F - want).max() <= 1e-15


def test_mixture_rejects_a_moment_table():
    x = np.array([0, 1, 1])
    solved = sos.SolvedPE(3, 2, 2, sos.uniform_reduced_table(3, 2, 2))
    with pytest.raises(TypeError):
        sos.mixture([(sos.from_assignment(x, 2), 0.5), (solved, 0.5)])
