"""Every program polynomial built through `sos.shift_poly`, against the loops
in poly_oracle that built each one by hand.

The edge-value polynomials must keep their keys in the oracle's order, so the
relaxation's objective vector is summed in the same order; the Z and
shift-indicator polynomials run their label on the second variable, so they
equal the oracle's as mappings only, and Phi agrees to rounding.
"""

import itertools

import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import EventPoly
from ugjohnson.potentials import _disjoint_pair_indices, phi_potential

import poly_oracle as oracle

QS = (2, 3, 4)


def _instance(q, n=5):
    inst, _ = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(0.3, 10 + q))
    return inst


@pytest.mark.parametrize("q", QS)
def test_shift_polys_equal_the_oracle_loops(q):
    n = 5
    for u, v, s in itertools.product(range(n), range(n), range(q)):
        assert sos.shift_poly(v, u, s, q) == oracle.shift_indicator_poly(v, u, s, q)
    for u, s in itertools.product(range(n), range(q)):
        assert sos.z_poly(u, s, q) == oracle.z_poly(u, s, q)
    inst = _instance(q)
    g = inst.graph_tag
    for k, copy in itertools.product(range(inst.num_edges), (0, 1)):
        new, old = sos.edge_sat_poly(inst, k, copy), oracle.edge_sat_poly(inst, k, copy)
        assert list(new.items()) == list(old.items())
    for a, s in itertools.product([(), (0,), (3,)], range(q)):
        ids = johnson.subcube(g, a).vertex_ids() if a else list(range(g.num_vertices))
        assert sos.density_poly(inst, ids, s) == oracle.density_poly(inst, ids, s)


@pytest.mark.parametrize("q", QS)
def test_value_polys_keep_the_oracle_key_order(q):
    inst = _instance(q)
    for copy in (0, 1):
        assert list(sos.val_poly(inst, copy).items()) == \
            list(oracle.val_poly(inst, copy).items())


@pytest.mark.parametrize("q", (2, 3))
def test_phi_squared_density_equals_the_z_product_loop(q):
    inst = _instance(q, n=4)
    pe = sos.solve(sos.relax(inst, 4))
    prod = sos.product(sos.shift_symmetrize(pe))
    verts = list(range(inst.vertex_count))
    ids = johnson.subcube(inst.graph_tag, (0,)).vertex_ids()
    conditioned = prod.condition(EventPoly(sos.density_poly(inst, ids, 0)))
    for pr in (prod, conditioned):
        for scope in (verts, ids):
            assert abs(phi_potential(pr, scope) - oracle.phi_moments(pr, scope)) <= 1e-12


def test_cached_disjoint_pairs_equal_the_oracle_list():
    for k in range(13):
        got = _disjoint_pair_indices(k)
        assert got.shape == (len(oracle.disjoint_pair_indices(list(range(k)))), 2)
        assert [tuple(r) for r in got.tolist()] == oracle.disjoint_pair_indices(list(range(k)))
    assert _disjoint_pair_indices(12) is _disjoint_pair_indices(12)
