import json

import numpy as np
import pytest

from ugjohnson import johnson, potentials, rounding, sos, ug_core
from ugjohnson.monomials import ONE, EventPoly, mul, var
from ugjohnson.potentials import LocalDistributionCollection, pairwise_mi
from ugjohnson.rounding import (NoDenseSubcube, RoundingConfig, condition_and_round,
                                density_poly, find_event_subcube, main_algorithm,
                                rt_reduce, subround, tv_conditioning_check)


@pytest.fixture(scope="module")
def planted421():
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 7))
    return g, inst, A


# --------------------------------------------------------------------------
# Condition & Round


def test_cr_recovers_planted(planted421):
    g, inst, A = planted421
    pe = sos.shift_symmetrize(sos.from_assignment(A, 2))
    x, rec = condition_and_round(pe, inst)
    assert ug_core.value(inst, x) == 1.0
    assert any((x == (A + s) % 2).all() for s in range(2))  # a shift of A


def test_cr_mixture_of_shifts_collapses(planted421):
    g, inst, A = planted421
    parts = [(sos.from_assignment((A + s) % 2, 2), 0.5) for s in range(2)]
    pe = sos.shift_symmetrize(sos.mixture(parts))
    x, rec = condition_and_round(pe, inst)
    assert ug_core.value(inst, x) == 1.0


def test_cr_uniform_floor(planted421):
    g, inst, A = planted421
    peU = sos.SolvedPE(6, 2, 4, sos.uniform_reduced_table(6, 2, 4))
    x, rec = condition_and_round(peU, inst)
    assert rec["mean_value"] >= 1 / 2 - 0.05
    assert rec["best_value"] >= rec["mean_value"] - 1e-12


def test_cr_scoped(planted421):
    g, inst, A = planted421
    pe = sos.shift_symmetrize(sos.from_assignment(A, 2))
    sub = johnson.subcube(g, (0,))
    ids = sub.vertex_ids()
    x, rec = condition_and_round(pe, inst, scope=ids)
    assert rec["best_value"] == 1.0  # induced value on the subcube


# --------------------------------------------------------------------------
# rt_reduce


def test_rt_reduce_independent_needs_no_tuples(planted421):
    g, inst, _ = planted421
    peU = sos.SolvedPE(6, 2, 4, sos.uniform_reduced_table(6, 2, 4))
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    E = EventPoly({ONE: 1.0})
    mu1, mu2, rec = rt_reduce(peU, range(6), E, cfg, p_floor=1.0)
    assert rec["tuples"] == []
    assert rec["mi_x"] == pytest.approx(0.0, abs=1e-9)
    assert rec["reached_tau"]


def test_rt_reduce_without_disjoint_pairs_measures_nothing(planted421):
    # three vertices hold no two disjoint pairs: no MI is averaged, so tau is
    # not reached, though the empty averages read 0, and the stop says so
    g, inst, _ = planted421
    pe = sos.solve(sos.relax(inst, 4))
    cfg = RoundingConfig(degree=4)
    _, _, rec = rt_reduce(pe, [0, 1, 2], EventPoly({ONE: 1.0}), cfg, 1.0)
    assert rec["mi_pairs"] == 0 and rec["mi_x"] == rec["mi_xp"] == 0.0
    assert rec["stop"] == "no_pairs"
    assert not rec["reached_tau"] and not rec["budget_exhausted"]
    # six vertices hold 45 disjoint pairs of pairs, of which the budget samples 30
    _, _, rec = rt_reduce(pe, range(6), EventPoly({ONE: 1.0}), cfg, 1.0)
    assert rec["mi_pairs"] == rounding.MI_PAIR_BUDGET == 30
    assert rec["stop"] == "degree"


def test_rt_reduce_two_cluster_mixture():
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 3))
    rng = np.random.default_rng(0)
    B = rng.integers(0, 2, 10)
    pe = sos.shift_symmetrize(sos.mixture(
        [(sos.from_assignment(A, 2), 0.5), (sos.from_assignment(B, 2), 0.5)]))
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    E = EventPoly({ONE: 1.0})
    mu1, mu2, rec = rt_reduce(pe, range(10), E, cfg, p_floor=1.0)
    assert rec["reached_tau"], rec
    assert max(rec["mi_x"], rec["mi_xp"]) <= 0.01
    assert rec["p_event_after"] >= 0.5 - 1e-9  # >= p/2
    assert rec["floor_kept"]
    assert len(rec["tuples"]) >= 1


def test_rt_reduce_respects_event_floor(planted421, monkeypatch):
    g, inst, A = planted421
    pe = sos.shift_symmetrize(sos.from_assignment(A, 2))
    dens = density_poly(inst, list(range(6)), 0)
    E = EventPoly(dens, description="delta(G_0)")
    monkeypatch.setattr(rounding, "TAU", 1e-6)
    monkeypatch.setattr(rounding, "TUPLE_BUDGET", 4)
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    mu1, mu2, rec = rt_reduce(pe, range(6), E, cfg, p_floor=0.5)
    assert rec["p_event_after"] >= 0.25 - 1e-9
    assert rec["floor_kept"]


def test_rt_reduce_on_a_degree_2_table_raises(planted421):
    # its MI reads four-vertex joints of one copy, which a degree-2 table
    # cannot give; no product of two-vertex halves stands in for them
    g, inst, _ = planted421
    pe = sos.shift_symmetrize(sos.solve(sos.relax(inst, 2)))
    with pytest.raises(sos.DegreeExhausted):
        rt_reduce(pe, range(6), EventPoly({ONE: 1.0}), RoundingConfig(degree=2), 1.0)


def test_rt_reduce_at_degree_4_stops_on_the_degree_not_the_budget(planted421):
    # conditioning a degree-4 copy on a pair would leave it unable to give its
    # four-vertex MI, so no tuple is tried and no budget is spent
    g, inst, _ = planted421
    pe = sos.shift_symmetrize(sos.solve(sos.relax(inst, 4)))
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    _, _, rec = rt_reduce(pe, range(6), EventPoly({ONE: 1.0}), cfg, 1.0)
    assert max(rec["mi_x"], rec["mi_xp"]) > rounding.TAU and rec["tuples"] == []
    assert rec["stop"] == "degree" and not rec["budget_exhausted"]


def test_rt_reduce_that_spends_its_budget_says_so(monkeypatch):
    # degree 6 with one tuple allowed: one copy is conditioned, and the other
    # keeps its 1 bit of pairwise MI when the budget runs out
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.3, 16))
    monkeypatch.setattr(rounding, "TUPLE_BUDGET", 1)
    cfg = RoundingConfig.for_instance(inst, eps=0.3, degree=6)
    _, rec = subround(inst, sos.solve(sos.relax(inst, 6)), cfg)
    rt = rec["rt_reduce"]
    assert len(rt["tuples"]) == 1 and max(rt["mi_x"], rt["mi_xp"]) > rounding.TAU
    assert rt["stop"] == "budget" and rt["budget_exhausted"]


# --------------------------------------------------------------------------
# find_event_subcube


def test_find_event_planted_whole_graph(planted421):
    g, inst, A = planted421
    pe = sos.shift_symmetrize(sos.from_assignment(A, 2))
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    a, s, P, diag = find_event_subcube(inst, sos.product(pe), cfg)
    assert a == ()
    assert diag["chosen"]["floor_ok"]
    # chosen score is the max over the diagnostic rows
    best = max(r["score"] for r in diag["rows"] if r["maximal"])
    assert diag["chosen"]["score"] == pytest.approx(best)


def test_find_event_perturbed_subcube_structure():
    # planted pair correlated only inside J|_{0}: the 1-restriction search
    # must return a = (0,) with positive score
    g = johnson.build(10, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 11))
    ids = johnson.subcube(g, (0,)).vertex_ids()
    B = (A + 1) % 2
    B[ids] = A[ids]
    mix = sos.mixture([(sos.from_assignment(A, 2), 0.5),
                       (sos.from_assignment(B, 2), 0.5)])
    pe = sos.shift_symmetrize(mix)
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=12, seed=1)
    cfg.r = 1
    a, s, P, diag = find_event_subcube(inst, sos.product(pe), cfg)
    assert len(a) <= 1
    assert diag["chosen"]["score"] > 0


def test_find_event_no_dense_subcube(monkeypatch):
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 1))
    pe = sos.from_assignment(A, 2)
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    # density can never exceed 2: every score goes negative
    monkeypatch.setattr(rounding, "THR_SCALE", 2.0)
    with pytest.raises(NoDenseSubcube):
        find_event_subcube(inst, sos.product(sos.shift_symmetrize(pe)), cfg)


# --------------------------------------------------------------------------
# tv_conditioning_check


def _tau_bar(prod, S, cfg):
    """The larger of the two average pairwise MIs on prod, measured as
    rt_reduce measures them (same budget and seed)."""
    coll = LocalDistributionCollection(prod)
    return max(pairwise_mi(coll, [int(u) for u in S], primed=primed,
                           max_pairs=rounding.MI_PAIR_BUDGET, seed=cfg.seed).average
               for primed in (False, True))


def test_tv_trivial_event_moves_nothing(planted421):
    g, inst, A = planted421
    pe = sos.shift_symmetrize(sos.from_assignment(A, 2))
    prod = sos.ProductPE(pe, pe)
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    rep = tv_conditioning_check(prod, prod.condition(EventPoly({ONE: 1.0})), range(6), cfg,
                                _tau_bar(prod, range(6), cfg))
    assert max(rep["tvs"]) == pytest.approx(0.0, abs=1e-12)
    assert rep["fraction_exceeding"] == 0.0
    assert rep["bound_ok"]


def test_tv_correlating_event_matches_exhaustive(monkeypatch):
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 5))
    B = (A + 1) % 2  # the other shift class: product support has 4 cells
    pe = sos.mixture([(sos.from_assignment(A, 2), 0.5),
                      (sos.from_assignment(B, 2), 0.5)])
    prod = sos.ProductPE(pe, pe)
    E = EventPoly(density_poly(inst, list(range(6)), 0), description="delta(G_0)")
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=8)
    monkeypatch.setattr(rounding, "TV_PAIR_BUDGET", 100)
    rep = tv_conditioning_check(prod, prod.condition(E), range(6), cfg,
                                _tau_bar(prod, range(6), cfg))
    # exhaustive recomputation on the explicit support: conditioning on G_0
    # density keeps only equal-assignment pairs, TV = 1/2 for every (u, v)
    for t in rep["tvs"]:
        assert t == pytest.approx(0.5)
    expected_frac = 1.0 if 0.5 >= rounding.DELTA else 0.0
    assert rep["fraction_exceeding"] == expected_frac


# --------------------------------------------------------------------------
# subround and main_algorithm


def test_subround_planted_full_value(planted421):
    g, inst, A = planted421
    pe = sos.from_assignment(A, 2)
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4)
    x, rec = subround(inst, pe, cfg)
    assert rec["value"] == 1.0
    assert rec["rounding_guarantee"]["ok"]
    assert rec["potential_relation"]["ok"]


def test_subround_adversarial_no_crash():
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(1.0, 13))
    pe = sos.solve(sos.relax(inst, 4))
    cfg = RoundingConfig.for_instance(inst, eps=1.0, degree=4, seed=3)
    x, rec = subround(inst, pe, cfg)
    assert rec["value"] >= 0.0
    assert rec["rounding_guarantee"]["ok"] and rec["potential_relation"]["ok"]
    # the TV check's tau_bar is the correlation the reduction left
    rt = rec["rt_reduce"]
    assert rec["tv_check"]["tau_bar"] == max(rt["mi_x"], rt["mi_xp"])


def test_main_algorithm_rounds_the_sdp_table():
    # criterion 5's pool instance J(5,2,1) q=2 eps=0.3: the IPM lands within its
    # certified gap of the integral warm start, and its own table is rounded
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.3, 16))
    cfg = RoundingConfig.for_instance(inst, eps=0.3, degree=4)
    _, trace = main_algorithm(inst, cfg, witness=A)
    assert trace.records
    for rec in trace.records:
        assert rec["solver"]["source"] == "sdp"
        assert rec["potential_relation"]["ok"] and rec["rounding_guarantee"]["ok"]
        assert rec["tv_check"]["bound_ok"]


def test_main_algorithm_at_degree_6_runs_the_reduction():
    # the same pool instance at degree 6: each side can be conditioned once,
    # so rt_reduce conditions, and the TV check and Phi read conditioned factors
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.3, 16))
    cfg = RoundingConfig.for_instance(inst, eps=0.3, degree=6)
    _, trace = main_algorithm(inst, cfg, witness=A)
    assert trace.records
    for rec in trace.records:
        rt = rec["rt_reduce"]
        assert len(rt["tuples"]) >= 1 and rt["stop"] == "tau" and not rt["budget_exhausted"]
        assert rec["tv_check"]["tau_bar"] == max(rt["mi_x"], rt["mi_xp"]) < 1e-3
        assert set(rec["phi_before"]) == set(rec["phi_conditioned"]) == {"phi"}


def _count_measurements(monkeypatch):
    """Wrap the MI, Psi and Condition&Round entry points with counters; the MI
    counter keeps each call's primed flag."""
    calls = {"mi": [], "psi": 0, "cr": 0}
    mi, psi, cr = potentials.pairwise_mi, potentials.psi_potential, rounding.condition_and_round

    def count_mi(*args, **kw):
        calls["mi"].append(kw.get("primed", False))
        return mi(*args, **kw)

    def count(key, fn):
        def wrapped(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(potentials, "pairwise_mi", count_mi)
    monkeypatch.setattr(potentials, "psi_potential", count("psi", psi))
    monkeypatch.setattr(rounding, "condition_and_round", count("cr", cr))
    return calls


def _planted_run(n, q, eps, D, seed):
    inst, A = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))
    cfg = RoundingConfig.for_instance(inst, eps=eps, degree=D, seed=seed)
    return main_algorithm(inst, cfg, witness=A)[1]


def test_subround_measures_an_untouched_copy_once(monkeypatch):
    # round_admm's seed-1 instance: at D = 4 the reduction conditions neither
    # copy, so both are the solved table, measured once and recorded twice
    calls = _count_measurements(monkeypatch)
    trace = _planted_run(8, 2, 0.05, 4, 1000)
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec["rt_reduce"]["stop"] == "degree" and not rec["rt_reduce"]["tuples"]
    assert calls == {"mi": [False], "psi": 1, "cr": 1}
    assert rec["rt_reduce"]["mi_x"] == rec["rt_reduce"]["mi_xp"]
    pr = rec["potential_relation"]
    assert pr["psi1"] == pr["psi2"]
    assert rec["cr_records"][0] == rec["cr_records"][1]


def test_subround_measures_conditioned_copies_separately(monkeypatch):
    # at D = 6 the reduction conditions each copy once, so the copies differ
    # and each is rounded and measured on its own
    calls = _count_measurements(monkeypatch)
    trace = _planted_run(5, 2, 0.3, 6, 16)
    assert len(trace.records) == 1
    rt = trace.records[0]["rt_reduce"]
    assert sorted(t["side"] for t in rt["tuples"]) == [0, 1]
    assert calls["psi"] == 2 and calls["cr"] == 2
    assert set(calls["mi"]) == {False, True}


def test_main_algorithm_planted(planted421):
    g, inst, A = planted421
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=0)
    x, trace = main_algorithm(inst, cfg, witness=A)
    assert trace.final_value >= 0.9
    assert len(trace.records) == 1  # whole-graph subcube covers everything
    rec = trace.records[0]
    assert rec["disjoint_ok"] and rec["value_drop"]["ok"] and rec["chernoff"]["ok"]
    # the close-to-1 floor is a Python float, so its flag serialises as a boolean
    assert json.loads(trace.to_json())["records"][0]["chosen"]["floor_ok"] is True


def test_subround_checks_say_whether_they_could_fail(planted421, monkeypatch):
    g, inst, A = planted421
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=0)
    _, trace = main_algorithm(inst, cfg, witness=A)
    flags = []
    for rec in trace.records:
        tv, rg, pr = rec["tv_check"], rec["rounding_guarantee"], rec["potential_relation"]
        assert tv["could_fail"] == (tv["bound"] < 1.0)          # a fraction is <= 1
        assert rg["could_fail"] == (rg["guarantee"] > 0.0)      # a value is >= 0
        assert pr["could_fail"] == (pr["rhs"] < 1.0)            # Phi is <= 1
        flags += [tv["could_fail"], rg["could_fail"], pr["could_fail"]]
    assert trace.could_fail() == (sum(flags), len(flags)) and flags
    # the TV bound drops below 1 on a large scope with no MI left and delta = 1
    pe = sos.from_assignment(np.zeros(20, dtype=np.int64), 2)
    prod = sos.ProductPE(pe, pe)
    monkeypatch.setattr(rounding, "DELTA", 1.0)
    rep = tv_conditioning_check(prod, prod.condition(EventPoly({ONE: 1.0})), range(20), cfg, 0.0)
    assert rep["bound"] == pytest.approx(16 / 20) and rep["could_fail"] and rep["bound_ok"]


def test_main_algorithm_deterministic(planted421):
    g, inst, A = planted421
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=5)
    _, t1 = main_algorithm(inst, cfg, witness=A)
    _, t2 = main_algorithm(inst, cfg, witness=A)
    assert t1.to_json() == t2.to_json()


def test_main_algorithm_multi_iteration_accounting(monkeypatch):
    # force the search to return successive 1-restrictions so the loop runs
    # several times; disjointness and the drop/ceiling records must hold
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.1, 9))
    cfg = RoundingConfig.for_instance(inst, eps=0.1, degree=4, seed=2)
    cfg.gamma = 1.6  # require 80% coverage so several subcubes are needed
    counter = {"k": 0}
    real = rounding.find_event_subcube

    def forced(inst_, prod_, cfg_):
        a = (counter["k"] % 5,)
        counter["k"] += 1
        ids = johnson.subcube(g, a).vertex_ids()
        P = EventPoly(density_poly(inst_, ids, 0), description="forced")
        diag = {"chosen": {"a": list(a), "s": 0, "score": 1.0, "p_event":
                           prod_.pE(density_poly(inst_, ids, 0)),
                           "floor": 0.0, "floor_ok": True, "event": "density"}}
        return a, 0, P, diag

    monkeypatch.setattr(rounding, "find_event_subcube", forced)
    x, trace = main_algorithm(inst, cfg, witness=A)
    monkeypatch.setattr(rounding, "find_event_subcube", real)
    assert len(trace.records) >= 2
    seen = set()
    for rec in trace.records:
        new = set(rec["assigned_new"])
        assert not (new & seen)
        assert rec["disjoint_ok"]
        assert rec["value_drop"]["ok"]
        if rec["chernoff"].get("edges_randomized"):
            assert rec["chernoff"]["ok"]
        seen |= new
    assert all(x[u] >= 0 for u in range(10))


def test_tv_event_on_disjoint_vertices_moves_nothing(monkeypatch):
    # coordinate-independent product with an event touching other vertices:
    # the local joints of untouched pairs stay exactly put
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.5, 17))
    peU = sos.SolvedPE(10, 2, 4, sos.uniform_reduced_table(10, 2, 4))
    prod = sos.ProductPE(peU, peU)
    # event on vertices {8, 9} only
    E = EventPoly({mul(var(8, 0), var(9, 1)): 1.0})
    cfg = RoundingConfig.for_instance(inst, eps=0.5, degree=4)
    monkeypatch.setattr(rounding, "TV_PAIR_BUDGET", 50)
    rep = tv_conditioning_check(prod, prod.condition(E), range(6), cfg,
                                _tau_bar(prod, range(6), cfg))
    assert max(rep["tvs"]) <= 1e-12
    assert rep["fraction_exceeding"] == 0.0


def test_low_completeness_regime_subround():
    # c bounded away from 1: the search scores both-satisfied densities with
    # maximality filtering over 1-restrictions
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.5, 21))
    pe = sos.solve(sos.relax(inst, 4))
    c = pe.value(inst) * 0.9
    cfg = RoundingConfig.low_completeness(inst, c=c, degree=4, seed=4)
    assert cfg.regime == "low_completeness" and cfg.r >= 1
    x, rec = subround(inst, pe, cfg)
    assert rec["value"] >= 0.0
    assert rec["rounding_guarantee"]["ok"]
    assert rec["potential_relation"]["ok"]
    assert rec["chosen"]["event"] == "density"


def test_config_validation():
    with pytest.raises(ValueError):
        RoundingConfig(regime="bogus")


def test_trace_config_echoes_the_fixed_parameters(planted421):
    # the seven settable fields and SubRound's nine fixed parameters, at the
    # values every trace has recorded
    g, inst, A = planted421
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=0)
    _, trace = main_algorithm(inst, cfg, witness=A)
    fixed = {"beta": 0.3, "nu": 0.1, "tau": 0.01, "delta": 0.2, "thr_scale": 0.5,
             "anchor_budget": 32, "tuple_budget": 8, "mi_pair_budget": 30,
             "tv_pair_budget": 30}
    assert json.loads(trace.to_json())["config"] == {
        "regime": "close_to_1", "eps": 0.0, "c": 0.5, "r": 0, "gamma": 0.05,
        "degree": 4, "seed": 0, **fixed}
    assert {k: getattr(rounding, k.upper()) for k in fixed} == fixed


def test_product_conditioning_near_zero_event(planted421):
    g, inst, A = planted421
    pe = sos.from_assignment(A, 2)
    prod = sos.ProductPE(pe, pe)
    dead = EventPoly({mul(var(0, int((A[0] + 1) % 2)), var(0, int(A[0]), 1)): 1.0})
    with pytest.raises(sos.NearZeroEvent):
        prod.condition(dead)


def test_main_algorithm_stalls_gracefully_on_no_dense_subcube(planted421, monkeypatch):
    g, inst, A = planted421
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=6)
    # unreachable density threshold: all scores negative
    monkeypatch.setattr(rounding, "THR_SCALE", 2.0)
    x, trace = main_algorithm(inst, cfg, witness=A)
    assert len(trace.records) == 1
    assert trace.records[0].get("stalled")
    assert trace.final_value == ug_core.value(inst, np.zeros(6, dtype=int))
