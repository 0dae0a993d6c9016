import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, steppoly, ug_core
from ugjohnson.monomials import EventPoly
from ugjohnson.potentials import (LocalDistributionCollection, potential_restriction_check,
                                  data_processing_check, default_eps_schedule,
                                  dense_subcube_indicators, edge_cover_decompose, g_parts,
                                  mutual_information, pairwise_mi, phi_integral,
                                  phi_potential, pinsker_check, psi_potential, y_slots)
from ugjohnson.ug_core import satisfied_mask, vertex_values


@pytest.fixture(scope="module")
def setup():
    g = johnson.build(5, 2, 0.5)  # 10 vertices
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 3))
    p = steppoly.build(0.3, 0.1)
    return g, inst, A, p


# --------------------------------------------------------------------------
# shift functions and potentials


def test_phi_examples(setup):
    g, inst, A, p = setup
    phi = phi_integral(inst, A, A, p)
    assert (1 - 0.1) ** 4 - 1e-12 <= phi <= 1.0 + 1e-12
    # two unrelated assignments: phi equals the direct formula
    rng = np.random.default_rng(0)
    x, xp = rng.integers(0, 2, 10), rng.integers(0, 2, 10)
    weight = p(vertex_values(inst, satisfied_mask(inst, x))) * \
        p(vertex_values(inst, satisfied_mask(inst, xp)))
    want = sum(np.mean(((x - xp) % 2 == s) * weight) ** 2 for s in range(2))
    assert phi_integral(inst, x, xp, p) == pytest.approx(want)


def test_phi_global_restricted_full_graph_equals_phi(setup):
    g, inst, A, p = setup
    assert phi_integral(inst, A, A, p, scope=range(10)) == pytest.approx(
        phi_integral(inst, A, A, p))


def test_phi_moment_path_plain(setup):
    g, inst, A, p = setup
    pe = sos.solve(sos.relax(inst, 4))
    phi = phi_potential(sos.product(pe), range(10))
    assert 0.0 - 1e-9 <= phi <= 1.0 + 1e-9


def test_potential_restriction_enumerated(setup):
    # enumerate every 1-restriction of J(8,4,2) on several integral pairs
    g = johnson.build(8, 4, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.15, 1))
    rng = np.random.default_rng(1)
    base = steppoly.build(0.7, 0.1)
    boundary = 1 - 3 / 6  # per-vertex outgoing fraction of a 1-restriction
    for a in itertools.combinations(range(8), 1):
        sub = johnson.subcube(g, a)
        for xp in (A, (A + 1) % 2, rng.integers(0, 2, g.num_vertices)):
            rep = potential_restriction_check(inst, A, np.asarray(xp), sub, base,
                                         shift=boundary)
            assert rep["ok"], rep


def test_psi_examples(setup):
    g, inst, A, _ = setup
    assert psi_potential(sos.from_assignment(A, 2), inst) == pytest.approx(1.0)
    sym = sos.shift_symmetrize(sos.from_assignment(A, 2))
    assert psi_potential(sym, inst) == pytest.approx(1.0)
    with pytest.raises(sos.DegreeExhausted):
        psi_potential(sos.from_assignment(A, 2, degree=2), inst)


# --------------------------------------------------------------------------
# local distributions


def test_extract_local_integral_point_masses(setup):
    g, inst, A, p = setup
    prod = sos.ProductPE(sos.from_assignment(A, 2), sos.from_assignment(A, 2))
    arr = LocalDistributionCollection(prod).joint(y_slots(0, 1, False))
    # a point mass at the assignment
    assert arr[A[0], A[1]] == pytest.approx(1.0)


def test_extract_local_product_factorizes(setup):
    g, inst, A, _ = setup
    rng = np.random.default_rng(2)
    xp = rng.integers(0, 2, 10)
    prod = sos.ProductPE(sos.from_assignment(A, 2), sos.from_assignment(xp, 2))
    slots = (("X", 0), ("Xp", 0))
    arr = LocalDistributionCollection(prod).joint(slots)
    assert arr[A[0], xp[0]] == pytest.approx(1.0)


def test_extract_local_marginal_consistency(setup):
    g, inst, A, p = setup
    pe = sos.solve(sos.relax(inst, 4))
    prod = sos.product(pe)
    coll = LocalDistributionCollection(prod)
    j01 = coll.joint((("X", 0), ("X", 1)))
    j02 = coll.joint((("X", 0), ("X", 2)))
    assert np.abs(j01.sum(axis=1) - j02.sum(axis=1)).max() < 1e-8


def test_extract_local_clamp_policy(setup):
    g, inst, _, _ = setup
    pe = sos.solve(sos.relax(inst, 4))
    prod = sos.product(pe)
    coll = LocalDistributionCollection(prod)
    arr = coll.joint((("X", 3), ("X", 7)))
    assert arr.min() >= 0.0 and arr.sum() == pytest.approx(1.0)


# --------------------------------------------------------------------------
# information utilities


def test_mi_examples():
    independent = np.outer([0.3, 0.7], [0.5, 0.5])
    assert mutual_information(independent, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)
    assert pinsker_check(independent, (0,), (1,))["tv"] == pytest.approx(0.0)
    correlated = np.array([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(correlated, (0,), (1,)) == pytest.approx(1.0)


def test_pinsker_random_joints():
    rng = np.random.default_rng(3)
    for _ in range(200):
        j = rng.random((4, 4))
        j /= j.sum()
        rep = pinsker_check(j, (0,), (1,))
        assert rep["residual"] >= -1e-9


def test_data_processing():
    rng = np.random.default_rng(4)
    for _ in range(100):
        j = rng.random((4, 4))
        j /= j.sum()
        gmap = rng.integers(0, 2, 4)
        hmap = rng.integers(0, 3, 4)
        rep = data_processing_check(j, gmap, hmap)
        assert rep["residual"] >= -1e-9


def test_pairwise_mi_independent_is_zero(setup):
    g, inst, A, _ = setup
    # uniform independent labels: a solved uniform table
    rel = sos.relax(inst, 4)
    peU = sos.SolvedPE(10, 2, 4, rel.problem.uniform_y)
    prod = sos.ProductPE(peU, peU)
    coll = LocalDistributionCollection(prod)
    stats = pairwise_mi(coll, range(6), max_pairs=10)
    assert stats.average == pytest.approx(0.0, abs=1e-9)
    assert stats.maximum >= stats.average >= 0


# --------------------------------------------------------------------------
# dense subcubes and edge covering


def test_dense_subcube_globally_dense_never_fires(setup):
    g, inst, A, _ = setup
    eps = [0.01, 0.5]
    rep = dense_subcube_indicators(g, inst, A, A, eps)
    assert rep["fired"] == {}  # G_0 is globally eps_0-dense, maximality kills all


def test_dense_subcube_fires_on_planted_structure():
    g = johnson.build(10, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 2))
    # x agrees with x' exactly on the subcube J|_{0} (9 of 45 vertices, so the
    # zero-shift part is not globally eps_0-dense but fills J|_{0})
    sub = johnson.subcube(g, (0,))
    ids = sub.vertex_ids()
    xp = (A + 1) % 2
    xp[ids] = A[ids]
    eps = [0.22, 0.9]
    rep = dense_subcube_indicators(g, inst, A, xp, eps)
    fired = rep["fired"].get((0, 1), [])
    assert fired == [(0,)]
    for row in rep["rows"]:
        assert row["count_mean"] <= row["bound"] + row["bridge_excess"] + 1e-12


def test_dense_subcube_schedule_precondition(setup):
    g, inst, A, _ = setup
    with pytest.raises(ValueError):
        dense_subcube_indicators(g, inst, A, A, [0.5, 0.5])


def test_edge_cover_planted_t0(setup):
    g, inst, A, _ = setup
    rep = edge_cover_decompose(g, inst, A, A, 1)
    assert rep["lhs"] == pytest.approx(1.0)
    assert rep["terms"][0] == pytest.approx(1.0)
    assert rep["slack"] >= -1e-9


def test_edge_cover_random_pairs(setup):
    g, inst, A, _ = setup
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, xp = rng.integers(0, 2, 10), rng.integers(0, 2, 10)
        rep = edge_cover_decompose(g, inst, x, xp, 1)
        assert rep["slack"] >= -1e-9
        assert rep["bridge_excess"] == 0.0


def test_edge_cover_schedule_validation(setup):
    g, inst, A, _ = setup
    with pytest.raises(ValueError):
        edge_cover_decompose(g, inst, A, A, 1, eps=[0.3, 0.3])


def test_crossing_edges_stay_in_parts(setup):
    # every edge satisfied by both assignments has endpoints in one G_s part
    g, inst, A, _ = setup
    rng = np.random.default_rng(6)
    from ugjohnson.ug_core import satisfied_mask
    for _ in range(20):
        x, xp = rng.integers(0, 2, 10), rng.integers(0, 2, 10)
        both = satisfied_mask(inst, x) & satisfied_mask(inst, xp)
        d = (x - xp) % 2
        for k, (u, v, _) in enumerate(inst.edges):
            if both[k]:
                assert d[u] == d[v]


def test_sum_of_part_densities_is_one(setup):
    g, inst, A, _ = setup
    rng = np.random.default_rng(7)
    x, xp = rng.integers(0, 2, 10), rng.integers(0, 2, 10)
    G = g_parts(inst, x, xp)
    assert G.sum(axis=0).max() == 1.0 and G.sum(axis=0).min() == 1.0
    pe = sos.solve(sos.relax(inst, 4))
    prod = sos.product(pe)
    tot = sum(prod.pE(sos.z_poly(0, s, 2)) for s in range(2))
    assert tot == pytest.approx(1.0, abs=1e-8)


def test_default_eps_schedule_preconditions():
    for r in (1, 2, 3):
        eps = default_eps_schedule(r)
        assert eps[r] <= np.exp(-r) + 1e-15
        for i in range(1, r + 1):
            assert eps[i - 1] <= eps[i] ** 5 / 2 ** (6 * r) + 1e-18
            assert eps[i - 1] <= eps[i] / (2 ** (i + 1) * i) + 1e-15


# --------------------------------------------------------------------------
# more local joints and Psi


def test_data_processing_on_extracted_locals(setup):
    g, inst, A, _ = setup
    pe = sos.solve(sos.relax(inst, 4))
    prod = sos.product(pe)
    coll = LocalDistributionCollection(prod)
    joint = coll.joint((("X", 0), ("Xp", 1))).reshape(2, 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        gmap, hmap = rng.integers(0, 2, 2), rng.integers(0, 2, 2)
        assert data_processing_check(joint, gmap, hmap)["residual"] >= -1e-9


def test_psi_skips_never_occurring_shifts(setup):
    g, inst, A, _ = setup
    # a point-mass pe: for u != v only one shift has positive probability;
    # the floor policy must silently skip the zero-probability ones
    pe = sos.from_assignment(A, 2)
    val = psi_potential(pe, inst)
    assert val == pytest.approx(1.0)


def test_support_and_moment_paths_agree(setup):
    # the same pseudoexpectation represented two ways (a distribution vs a
    # solver-style reduced table) must give identical potentials and joints
    g, inst, A, p = setup
    q = 2
    rng = np.random.default_rng(11)
    B = rng.integers(0, 2, 10)
    mix = sos.mixture([(sos.from_assignment(A, q), 0.6),
                       (sos.from_assignment(B, q), 0.4)])
    rel = sos.relax(inst, 4)
    solved_like = sos.SolvedPE(10, q, 4, [mix.moment(m) for m in rel.classes])
    prod_support = sos.ProductPE(mix, mix)
    prod_table = sos.ProductPE(solved_like, solved_like)
    # phi of both, and the support's expectation of the integral phi
    a = phi_potential(prod_support, range(10))
    b = phi_potential(prod_table, range(10))
    want = sum(w * wp * phi_integral(inst, x, xp, np.ones_like)
               for w, x in mix.support for wp, xp in mix.support)
    assert a == pytest.approx(want, abs=1e-12) and b == pytest.approx(want, abs=1e-10)
    # psi on the single copies
    assert psi_potential(mix, inst) == pytest.approx(
        psi_potential(solved_like, inst), abs=1e-10)
    # local joints
    ca = LocalDistributionCollection(prod_support)
    cb = LocalDistributionCollection(prod_table)
    slots = (("X", 0), ("X", 3), ("Xp", 0), ("Xp", 3))
    assert np.abs(ca.joint(slots) - cb.joint(slots)).max() < 1e-10
    # pairwise MI through both routes
    sa = pairwise_mi(ca, range(6), max_pairs=10)
    sb = pairwise_mi(cb, range(6), max_pairs=10)
    assert sa.average == pytest.approx(sb.average, abs=1e-9)


def test_conditioned_support_and_moment_paths_agree(setup):
    g, inst, A, _ = setup
    rng = np.random.default_rng(12)
    B = rng.integers(0, 2, 10)
    mix = sos.mixture([(sos.from_assignment(A, 2), 0.6),
                       (sos.from_assignment(B, 2), 0.4)])
    rel = sos.relax(inst, 4)
    solved_like = sos.SolvedPE(10, 2, 4, [mix.moment(m) for m in rel.classes])
    from ugjohnson.rounding import density_poly
    from ugjohnson.monomials import EventPoly
    E = EventPoly(density_poly(inst, list(range(10)), 0), description="delta(G_0)")
    ca = sos.ProductPE(mix, mix).condition(E)
    cb = sos.ProductPE(solved_like, solved_like).condition(E)
    ja = LocalDistributionCollection(ca).joint((("X", 1), ("Xp", 1)))
    jb = LocalDistributionCollection(cb).joint((("X", 1), ("Xp", 1)))
    assert np.abs(ja - jb).max() < 1e-10
    assert phi_potential(ca, range(10)) == pytest.approx(phi_potential(cb, range(10)), abs=1e-10)
