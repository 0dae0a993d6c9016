"""The edge scope of vertex values, checked bit for bit against the per-edge scans
that each module used to write out for itself (kept here as reference oracles)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import poly_add, poly_mul, poly_scale

import poly_oracle

GRAPHS = {n: johnson.build(n, 2, 0.5) for n in (4, 5)}


def reference_vertex_values(inst, sat, within=None):
    """val_u for every vertex: one pass over the edges, u then v, in edge order."""
    n = inst.vertex_count
    num = np.zeros(n)
    den = np.zeros(n)
    for k, (u, v, _) in enumerate(inst.edges):
        if within is not None and not (u in within and v in within):
            continue
        w = float(inst.weights[k])
        num[u] += w * sat[k]
        num[v] += w * sat[k]
        den[u] += w
        den[v] += w
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, num / den, 0.0)


def _reference_scope(inst, u, within):
    idx = [k for k, (a, b, _) in enumerate(inst.edges) if u in (a, b)]
    if within is not None:
        idx = [k for k in idx if inst.edges[k][0] in within and inst.edges[k][1] in within]
    return idx, sum(float(inst.weights[k]) for k in idx)


def reference_vertex_val_and_poly(inst, u, within=None):
    """val_u(X and X') as a polynomial, summed edge by edge with poly_add."""
    idx, wtot = _reference_scope(inst, u, within)
    acc = {}
    for k in idx:
        term = poly_mul(sos.edge_sat_poly(inst, k, copy=0), sos.edge_sat_poly(inst, k, copy=1))
        acc = poly_add(acc, poly_scale(term, float(inst.weights[k]) / wtot))
    return acc


@st.composite
def instances(draw):
    g = GRAPHS[draw(st.sampled_from(sorted(GRAPHS)))]
    q = draw(st.integers(2, 3))
    inst, _ = ug_core.plant(g, q, ug_core.PlantedSpec(0.5, draw(st.integers(0, 10 ** 6))))
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(1, 50), min_size=inst.num_edges,
                            max_size=inst.num_edges))
        weights = tuple(Fraction(r, sum(raw)) for r in raw)
        inst = ug_core.UGInstance(inst.vertex_count, q, inst.edges, weights, graph_tag=g)
    return inst


@given(instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_scoped_vertex_values_match_the_per_edge_scans(inst, data):
    n = inst.vertex_count
    within = data.draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1))), label="within")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    x, xp = rng.integers(0, inst.q, (2, n))
    sat = ug_core.satisfied_mask(inst, x)
    both = sat & ug_core.satisfied_mask(inst, xp)
    for mask in (sat, both):
        assert np.array_equal(ug_core.vertex_values(inst, mask, within=within),
                              reference_vertex_values(inst, mask, within=within))
    for u in range(n):
        got = poly_oracle.vertex_val_and_poly(inst, u, within)
        assert list(got.items()) == list(reference_vertex_val_and_poly(inst, u, within).items())


def test_a_vertex_with_no_edge_in_scope_has_value_zero_and_no_polynomial():
    inst, A = ug_core.plant(GRAPHS[4], 2, ug_core.PlantedSpec(0.0, 1))
    # in J(4,2,1) a vertex is adjacent to every vertex but its complement
    u = 0
    nbrs = {a + b - u for a, b, _ in inst.edges if u in (a, b)}
    comp = next(v for v in range(inst.vertex_count) if v != u and v not in nbrs)
    vals = ug_core.vertex_values(inst, ug_core.satisfied_mask(inst, A), within={u, comp})
    assert vals[u] == 0.0 and vals[comp] == 0.0
    assert inst.scoped_edges(u, within={u, comp}) == []
    assert inst.scoped_edges(u, within={comp}) == []


def test_derived_arrays_are_read_only():
    inst, _ = ug_core.plant(GRAPHS[4], 2, ug_core.PlantedSpec(0.5, 2))
    # edge array, float weights, and the incidence (start, edge ids, other ends)
    assert len(inst._arrays) == 5
    for arr in inst._arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    assert inst.edge_array() is inst._arrays[0] and inst.weight_array() is inst._arrays[1]
