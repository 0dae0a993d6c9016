import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson import johnson, ug_core
from ugjohnson.ug_core import (PlantedSpec, UGInstance, brute_force_opt, from_graph,
                               load, plant, randomize_edges, satisfied_mask, save, value,
                               vertex_values)

TRIANGLE = UGInstance(3, 2, ((0, 1, 1), (1, 2, 1), (0, 2, 1)),
                      tuple([Fraction(1, 3)] * 3))


@pytest.fixture(scope="module")
def j421():
    g = johnson.build(4, 2, 0.5)
    inst, A = plant(g, 2, PlantedSpec(0.0, 7))
    return g, inst, A


def test_value_identity_case(j421):
    g, _, _ = j421
    inst = from_graph(g, 3, [0] * len(g.edges()))
    assert value(inst, np.zeros(g.num_vertices, dtype=int)) == 1.0
    assert value(inst, np.full(g.num_vertices, 2)) == 1.0


def test_value_single_flip_counts_incident_edges(j421):
    g, _, _ = j421
    inst = from_graph(g, 3, [0] * len(g.edges()))
    x = np.zeros(g.num_vertices, dtype=int)
    x[2] = 1
    assert value(inst, x) == pytest.approx(1 - g.degree / inst.num_edges)
    assert vertex_values(inst, satisfied_mask(inst, x))[2] == 0.0


def test_planted_value_equals_realized():
    g = johnson.build(8, 2, 0.5)
    inst, A = plant(g, 2, PlantedSpec(0.2, 3))
    assert value(inst, A) == pytest.approx(inst.metadata["planted"]["realized_value"])


def test_vertex_value_double_counting(j421):
    g, inst, A = j421
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, g.num_vertices)
    # regular graph: mean vertex value equals the global value exactly
    mean_v = np.mean([vertex_values(inst, satisfied_mask(inst, x))[u]
                      for u in range(g.num_vertices)])
    assert mean_v == pytest.approx(value(inst, x), abs=1e-12)


def test_satisfied_instance_has_unit_vertex_values(j421):
    g, inst, A = j421
    for u in range(g.num_vertices):
        assert vertex_values(inst, satisfied_mask(inst, A))[u] == 1.0


def test_shift_invariance_exact(j421):
    g, inst, A = j421
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, g.num_vertices)
    for s in range(2):
        assert value(inst, (x + s) % 2) == value(inst, x)


def test_brute_force_triangle():
    x, v = brute_force_opt(TRIANGLE)
    assert v == pytest.approx(2 / 3)
    assert x[0] == 0  # vertex 0 pinned by shift symmetry


def test_brute_force_consistent(j421):
    _, inst, A = j421
    x, v = brute_force_opt(inst)
    assert v == 1.0


def test_brute_force_planted_dominates_witness():
    g = johnson.build(5, 2, 0.5)
    inst, A = plant(g, 2, PlantedSpec(0.1, 11))
    _, opt = brute_force_opt(inst)
    assert opt >= value(inst, A) - 1e-12


def test_brute_force_relabeling_invariance():
    # relabeling vertices must not change OPT
    perm = [2, 0, 1]
    edges = tuple(sorted((min(perm[u], perm[v]),
                          max(perm[u], perm[v]),
                          b if perm[u] < perm[v] else (-b) % 2)
                         for (u, v, b) in TRIANGLE.edges))
    relabeled = UGInstance(3, 2, edges, TRIANGLE.weights)
    assert brute_force_opt(relabeled)[1] == pytest.approx(2 / 3)


def test_brute_force_global_shift_of_shifts():
    # shifting every b_e along a fixed assignment preserves OPT
    y = np.array([0, 1, 0])
    edges = tuple((u, v, (b + y[u] - y[v]) % 2) for (u, v, b) in TRIANGLE.edges)
    shifted = UGInstance(3, 2, edges, TRIANGLE.weights)
    assert brute_force_opt(shifted)[1] == pytest.approx(2 / 3)


def test_brute_force_budget_guard():
    g = johnson.build(8, 2, 0.5)
    inst, _ = plant(g, 2, PlantedSpec(0.0, 0))
    with pytest.raises(ug_core.EnumerationBudgetError):
        brute_force_opt(inst, budget=1000)


def test_plant_eps0_and_eps1():
    g = johnson.build(6, 2, 0.5)
    inst0, A0 = plant(g, 2, PlantedSpec(0.0, 5))
    assert value(inst0, A0) == 1.0
    inst1, A1 = plant(g, 2, PlantedSpec(1.0, 5))
    # per-seed exact value: count edges whose fresh shift matches
    match = sum(1 for (u, v, b) in inst1.edges if (A1[u] - A1[v] - b) % 2 == 0)
    assert value(inst1, A1) == pytest.approx(match / inst1.num_edges)


def test_plant_determinism():
    g = johnson.build(6, 2, 0.5)
    a = plant(g, 3, PlantedSpec(0.3, 9))
    b = plant(g, 3, PlantedSpec(0.3, 9))
    assert a[0].edges == b[0].edges and np.array_equal(a[1], b[1])


def test_randomize_edges_empty_set_is_identity(j421):
    _, inst, _ = j421
    assert randomize_edges(inst, [], 0).edges == inst.edges


def test_randomize_edges_full_set_value_near_uniform():
    g = johnson.build(6, 2, 0.5)
    inst, A = plant(g, 4, PlantedSpec(0.0, 2))
    vals = [value(randomize_edges(inst, range(15), seed), A) for seed in range(40)]
    assert np.mean(vals) == pytest.approx(1 / 4, abs=0.05)


def test_randomize_edges_opt_drop_bound():
    # OPT(new) >= OPT(old) - 2|S|/|V| on regular graphs, by brute force
    g = johnson.build(5, 2, 0.5)
    inst, A = plant(g, 2, PlantedSpec(0.0, 1))
    _, opt_old = brute_force_opt(inst)
    for seed in range(5):
        S = [0, 3]
        newi = randomize_edges(inst, S, seed)
        _, opt_new = brute_force_opt(newi)
        assert opt_new >= opt_old - 2 * len(S) / g.num_vertices - 1e-12


def test_json_roundtrip(tmp_path, j421):
    _, inst, _ = j421
    path = tmp_path / "inst.json"
    save(inst, str(path))
    loaded = load(str(path))
    assert loaded.edges == inst.edges
    assert loaded.q == inst.q
    assert loaded.weights == inst.weights
    assert loaded.graph_tag is not None
    d = json.loads(path.read_text())
    assert set(d) == {"n_vertices", "q", "edges", "metadata"}


def test_json_roundtrip_nonuniform_weights(tmp_path):
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    inst = UGInstance(3, 2, TRIANGLE.edges, weights)
    path = tmp_path / "inst.json"
    save(inst, str(path))
    loaded = load(str(path))
    assert loaded.weights == inst.weights
    assert not loaded.uniform_weights


@given(st.integers(0, 2 ** 31 - 1), st.floats(0, 1))
@settings(max_examples=15, deadline=None)
def test_plant_realized_value_consistent(seed, eps):
    g = johnson.build(5, 2, 0.5)
    inst, A = plant(g, 3, PlantedSpec(eps, seed))
    assert value(inst, A) == pytest.approx(
        inst.metadata["planted"]["realized_value"], abs=1e-12)
