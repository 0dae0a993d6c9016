import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson import johnson
from ugjohnson.johnson import (build, small_restriction_expansion_check, colex_rank,
                               colex_unrank, density, expansion, laplacian_form,
                               subcube, subcube_expansion_bound,
                               vertex_boundary_fraction)


def test_build_j421():
    g = build(4, 2, 0.5)
    assert g.num_vertices == 6
    assert g.degree == comb(2, 1) * comb(2, 1) == 4
    assert len(g.edges()) == 6 * 4 // 2


def test_build_j631():
    g = build(6, 3, 1 / 3)
    assert g.num_vertices == 20
    assert g.degree == 9


def test_build_rejects_degenerate():
    with pytest.raises(ValueError):
        build(6, 3, 0.0)  # t = 0 is the identity relation
    with pytest.raises(ValueError):
        build(6, 3, 0.5)  # alpha * l not an integer
    with pytest.raises(ValueError):
        build(3, 3, 1 / 3)  # needs n > l


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_colex_rank_roundtrip(k, data):
    subset = data.draw(st.lists(st.integers(0, 14), min_size=k, max_size=k,
                                unique=True).map(sorted))
    r = colex_rank(subset)
    assert colex_unrank(r, k) == tuple(subset)


def test_colex_order_is_dense():
    g = build(6, 3, 1 / 3)
    seen = sorted(colex_rank(c) for c in itertools.combinations(range(6), 3))
    assert seen == list(range(20))


def test_adjacency_matches_intersection_rule():
    g = build(5, 2, 0.5)
    for (u, v) in g.edges():
        U, V = set(g.vertex_subset(u)), set(g.vertex_subset(v))
        assert len(U & V) == g.ell - g.t


def test_density_examples():
    g = build(6, 3, 1 / 3)
    N = g.num_vertices
    # constant function
    F = np.full(N, 0.7)
    assert density(g, F, (1,)) == pytest.approx(0.7)
    # indicator of a subcube J|_b, a >= b
    Fb = np.zeros(N)
    Fb[subcube(g, (1,)).vertex_ids()] = 1.0
    assert density(g, Fb, (1, 3)) == pytest.approx(1.0)
    # indicator of a single vertex A, a = {1} inside A: 1 / C(5, 2)
    A = g.vertex_index((1, 2, 4))
    Fv = np.zeros(N)
    Fv[A] = 1.0
    assert density(g, Fv, (1,)) == pytest.approx(1 / comb(5, 2))


def test_expansion_trivial_cases():
    g = build(5, 2, 0.5)
    assert expansion(g, list(range(g.num_vertices))) == 0.0
    assert expansion(g, [3]) == 1.0
    with pytest.raises(ValueError):
        expansion(g, [])


def test_laplacian_form_and_expansion_identity():
    g = build(6, 2, 0.5)
    rng = np.random.default_rng(0)
    assert laplacian_form(g, np.full(g.num_vertices, 2.3)) == pytest.approx(0.0)
    for _ in range(10):
        S = [int(v) for v in rng.choice(g.num_vertices, size=5, replace=False)]
        ind = np.zeros(g.num_vertices)
        ind[S] = 1.0
        lhs = expansion(g, S)
        rhs = laplacian_form(g, ind) / float(np.mean(ind))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_subcube_expansion_bound():
    g = build(8, 4, 0.5)
    rep0 = subcube_expansion_bound(g, 0)
    assert rep0["bound"] == 0.0 and rep0["exact"] == 0.0
    g3 = build(12, 8, 0.5)
    rep = subcube_expansion_bound(g3, 1)
    assert rep["exact"] == pytest.approx(1 - comb(7, 4) / comb(8, 4))
    assert rep["exact"] <= rep["bound"] + 1e-12
    # monotone nondecreasing in r
    bounds = [subcube_expansion_bound(g3, r)["bound"] for r in range(2)]
    assert bounds == sorted(bounds)


def test_subcube_exact_expansion_by_enumeration():
    # enumerated expansion of a 1-restriction equals the formula used above
    g = build(8, 4, 0.5)
    ids = subcube(g, (0,)).vertex_ids()
    exact = expansion(g, ids)
    assert exact == pytest.approx(1 - comb(3, 2) * comb(4, 2) / (comb(4, 2) * comb(4, 2)))


def test_per_vertex_boundary_fraction_uniform():
    g = build(8, 4, 0.5)
    sub = subcube(g, (2,))
    fr = {vertex_boundary_fraction(g, sub, v) for v in sub.vertex_ids()}
    assert len(fr) == 1  # the same for every vertex of the restriction
    assert fr.pop() == pytest.approx(1 - comb(3, 2) / comb(4, 2))


def test_small_restriction_expansion_ceiling():
    g = build(12, 8, 0.5)
    eps = (1 / 50) ** 2  # sqrt(eps) = 1/50 in [1/64, 1/32) so r = 1 < l/4
    rep = small_restriction_expansion_check(g, eps)
    assert rep["r"] == 1
    assert rep["ok"]


def test_induced_subcube_is_johnson_isomorphic():
    # the induced graph on J|_a matches J(n-|a|, l-|a|, t) via the natural bijection
    g = build(7, 3, 1 / 3)
    sub = subcube(g, (2,))
    ids = sub.vertex_ids()
    inner = build(6, 2, 0.5)  # ground set [7] \ {2} relabeled order-preservingly
    ground = [x for x in range(7) if x != 2]
    relabel = {x: i for i, x in enumerate(ground)}

    def proj(v):
        return inner.vertex_index([relabel[x] for x in g.vertex_subset(v) if x != 2])

    outer_edges = {(min(proj(u), proj(v)), max(proj(u), proj(v)))
                   for (u, v) in g.edges() if u in set(ids) and v in set(ids)}
    assert outer_edges == set(inner.edges())


def test_desk_budget_guard():
    with pytest.raises(johnson.DeskBudgetError):
        build(40, 20, 0.5)
