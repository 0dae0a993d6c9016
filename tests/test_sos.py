import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import ONE, ZERO, EventPoly, canon, monomial_name, mul, poly_mul, var
from ugjohnson.sdp import SDPResult
from ugjohnson.sos import (DegreeExhausted, NearZeroEvent, condition,
                           from_assignment, mixture, product,
                           relax, shift_symmetrize, solve, validate, z_poly)

import poly_oracle

TRIANGLE = ug_core.UGInstance(3, 2, ((0, 1, 1), (1, 2, 1), (0, 2, 1)),
                              tuple([Fraction(1, 3)] * 3))


@pytest.fixture(scope="module")
def j421_solved():
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.4, 5))
    pe = solve(relax(inst, 4))
    return g, inst, A, pe


# --------------------------------------------------------------------------
# monomial algebra


def test_monomial_reduction():
    assert mul(var(1, 2), var(1, 2)) == var(1, 2)          # booleanity
    assert mul(var(1, 2), var(1, 0)) is ZERO               # annihilation
    assert canon([(0, 2, 1), (0, 1, 0)]) == ((0, 1, 0), (0, 2, 1))


def test_monomial_names_roundtrip():
    # the names are the keys of a `solve --out` file, which the loader matches exactly
    assert monomial_name(canon([(1, 0, 2), (0, 3, 1)])) == "X:3:1|Xp:0:2"
    assert (monomial_name(ONE), monomial_name(ZERO)) == ("1", "0")


# --------------------------------------------------------------------------
# relax / solve


def test_consistent_instance_degree2():
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 1))
    pe = solve(relax(inst, 2))
    assert pe.solve_info["objective"] == pytest.approx(1.0, abs=1e-6)


def test_triangle_relaxation_dominates():
    pe = solve(relax(TRIANGLE, 2))
    assert pe.solve_info["objective"] >= 2 / 3 - 1e-6
    pe4 = solve(relax(TRIANGLE, 4))
    assert pe4.solve_info["objective"] >= 2 / 3 - 1e-6
    # degree monotone
    assert pe4.solve_info["objective"] <= pe.solve_info["objective"] + 1e-6


def test_relaxation_dominates_brute_force(j421_solved):
    _, inst, _, pe = j421_solved
    _, opt = ug_core.brute_force_opt(inst)
    assert pe.solve_info["objective"] >= opt - 1e-6
    assert pe.value(inst) == pytest.approx(pe.solve_info["objective"], abs=1e-9)


def test_solver_output_validates(j421_solved):
    _, _, _, pe = j421_solved
    rep = validate(pe)
    assert rep["ok"], rep
    assert rep["min_eig"] >= -sos.TOL_PSD
    assert rep["marginal_min_entry"] >= -1e-8


def test_validate_flags_corruption(j421_solved):
    _, inst, _, pe = j421_solved
    y = pe.y.copy()
    y[1] += 1.0  # the first degree-1 class
    bad = sos.SolvedPE(pe.n_vertices, pe.q, pe.degree, y)
    rep = validate(bad)
    assert not rep["ok"]
    assert rep["min_eig"] < -sos.TOL_PSD or rep["marginal_min_entry"] < -1e-6


def test_solved_pe_rejects_a_vector_of_the_wrong_length(j421_solved):
    _, _, _, pe = j421_solved
    for y in (pe.y[:-1], np.append(pe.y, 0.5), pe.y[None]):
        with pytest.raises(ValueError):
            sos.SolvedPE(pe.n_vertices, pe.q, pe.degree, y)
    assert not pe.y.flags.writeable


def test_validate_reads_every_pair_marginal():
    n, q, D = 10, 2, 2  # J(5,2,1): 45 vertex pairs, more than any sample of 40
    classes = sos.monomial_classes(n, q, D, True)
    y0 = sos.uniform_reduced_table(n, q, D)
    assert validate(sos.SolvedPE(n, q, D, y0))["ok"]
    for u, v in itertools.combinations(range(n), 2):
        y = y0.copy()
        y[classes.index(mul(var(u, 1), var(v, 1)))] = -0.1
        rep = validate(sos.SolvedPE(n, q, D, y))
        assert "marginal_nonneg" in rep["failed"], (u, v, rep)
        assert rep["marginal_min_entry"] == pytest.approx(-0.1)


def test_validate_checks_both_copies_of_a_product(j421_solved):
    _, _, _, pe = j421_solved
    y = pe.y.copy()
    y[1] += 1.0  # the first degree-1 class
    bad = sos.SolvedPE(pe.n_vertices, pe.q, pe.degree, y)
    assert validate(sos.ProductPE(pe, pe))["ok"]
    alone = validate(bad)
    for prod in (sos.ProductPE(pe, bad), sos.ProductPE(bad, pe)):
        rep = validate(prod)
        assert not rep["ok"] and "psd" in rep["failed"], rep
        assert rep["min_eig"] == pytest.approx(alone["min_eig"], abs=1e-12)


def _planted(n, q, eps, seed):
    return ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))[0]


def _warm_y(rel, seed=0):
    x, _ = sos._local_search(rel.inst, seed)
    return sos.assignment_reduced_table(x, rel.inst.q, rel.D)


def test_over_budget_returns_the_labelled_warm_start(monkeypatch):
    def no_solver(prob):
        raise AssertionError("no SDP solver runs over the Schur budget")
    monkeypatch.setattr(sos, "solve_ipm", no_solver)
    rel = relax(_planted(8, 2, 0.05, 1000), 4)  # J(8,2,1) q=2: moment side 407
    pe = solve(rel)
    info = pe.solve_info
    assert {k: info[k] for k in ("method", "source", "certified", "iterations", "status")} == {
        "method": "warm_start", "source": "warm_start", "certified": False,
        "iterations": 0, "status": "over_budget"}
    assert math.isnan(info["gap"]) and info["warm_value"] < 1.0
    assert np.array_equal(pe.y, _warm_y(rel))
    # the budget is counted before anything is built, and the table's objective
    # is the warm value
    assert "problem" not in vars(rel) and "blocks" not in info
    assert info["objective"] == info["warm_value"]


@pytest.mark.parametrize("n, q, D, source", [(5, 2, 4, "sdp"), (6, 2, 2, "sdp")])
def test_solve_info_names_the_source_of_the_table(n, q, D, source):
    # the first instances of the benchmark's solve_d4 and solve_d2 workloads at seed 1;
    # at degree 4 the IPM lands within its gap just below the integral warm start,
    # so its own table is kept
    rel = relax(_planted(n, q, 0.5, 1000), D)
    pe = solve(rel)
    assert (pe.solve_info["method"], pe.solve_info["source"]) == ("ipm", source)
    assert np.array_equal(pe.y, _warm_y(rel)) == (source == "warm_start")
    # the final primal residual of a certified solve meets the convergence
    # test's bound, 10 tol = 1e-7
    assert pe.solve_info["certified"] and 0.0 <= pe.solve_info["primal_residual"] <= 1e-7


@pytest.mark.parametrize("below, gap, status, source", [
    (1e-3, 1e-2, "max_iter", "warm_start"),   # uncertified: its gap buys no slack
    (1e-8, 1e-7, "optimal", "sdp"),           # certified, inside its gap
])
def test_warm_start_replaces_the_sdp_table_only_beyond_its_gap(
        monkeypatch, below, gap, status, source):
    rel = relax(_planted(5, 2, 0.5, 1000), 4)
    warm = _warm_y(rel)
    y_ws = sos._local_search(rel.inst, 0)[1]
    y_sdp = rel.problem.uniform_y   # the invariant moments of the uniform table
    monkeypatch.setattr(sos, "solve_ipm", lambda prob: SDPResult(
        y=y_sdp, objective=y_ws - below, gap=gap, primal_residual=0.0, iterations=3,
        method="ipm", status=status))
    pe = solve(rel)
    assert pe.solve_info["source"] == source
    assert pe.solve_info["sdp_objective"] == y_ws - below
    uniform = sos.uniform_reduced_table(10, 2, 4)
    assert np.array_equal(pe.y, warm if source == "warm_start" else uniform)


# --------------------------------------------------------------------------
# integral pseudoexpectations and mixtures


def test_from_assignment_moments(j421_solved):
    _, inst, A, _ = j421_solved
    pe = from_assignment(A, 2)
    assert pe.value(inst) == pytest.approx(ug_core.value(inst, A))
    assert validate(pe)["ok"]


def test_mixture_of_shifts_first_moments():
    x = np.array([0, 1, 0, 1, 1, 0])
    pe = mixture([(from_assignment(x, 3), 0.5),
                  (from_assignment((x + 1) % 3, 3), 0.5)])
    for u in range(6):
        for a in range(3):
            expected = 0.5 * ((x[u] == a) + ((x[u] + 1) % 3 == a))
            assert pe.moment(var(u, a)) == pytest.approx(expected)
    assert validate(pe)["ok"]  # convex mixtures stay PSD


def test_mixture_weight_validation():
    x = np.zeros(3, dtype=int)
    with pytest.raises(ValueError):
        mixture([(from_assignment(x, 2), 0.7), (from_assignment(x, 2), 0.6)])


# --------------------------------------------------------------------------
# product pseudoexpectations


def test_product_factorizes(j421_solved):
    _, inst, _, pe = j421_solved
    prod = product(pe)
    m = prod.moment(mul(var(0, 1, 0), var(2, 1, 1)))
    assert m == pytest.approx(pe.moment(var(0, 1)) * pe.moment(var(2, 1)))


def test_product_of_integral_is_integral_pair():
    x = np.array([0, 1, 1])
    pe = from_assignment(x, 2)
    prod = product(pe)
    m = prod.moment(canon([(0, 0, 0), (1, 1, 1)]))
    assert m == 1.0


def test_val_intersection_bound(j421_solved):
    _, inst, _, pe = j421_solved
    prod = product(pe)
    lhs = 0.0
    for k, w in enumerate(inst.weight_array()):
        e0 = sos.edge_sat_poly(inst, k, copy=0)
        e1 = sos.edge_sat_poly(inst, k, copy=1)
        lhs += float(w) * prod.pE(poly_mul(e0, e1))
    assert lhs >= pe.value(inst) ** 2 - 1e-9


# --------------------------------------------------------------------------
# conditioning


def test_condition_on_one_is_identity(j421_solved):
    _, _, _, pe = j421_solved
    ev = EventPoly({ONE: 1.0})
    cond = condition(pe, ev)
    for u in range(3):
        assert cond.moment(var(u, 1)) == pytest.approx(pe.moment(var(u, 1)))


def test_condition_integral_cases():
    x = np.array([1, 0, 1])
    pe = from_assignment(x, 2)
    same = condition(pe, EventPoly({var(0, 1): 1.0}))
    assert same.moment(var(2, 1)) == 1.0
    with pytest.raises(NearZeroEvent):
        condition(pe, EventPoly({var(0, 0): 1.0}))


def test_condition_mixture_selects_component():
    xa = np.array([0, 0, 0, 0])
    xb = np.array([1, 1, 0, 1])
    pe = mixture([(from_assignment(xa, 2), 0.5), (from_assignment(xb, 2), 0.5)])
    cond = condition(pe, EventPoly({var(0, 0): 1.0}))
    for u in range(4):
        assert cond.moment(var(u, int(xa[u]))) == pytest.approx(1.0)


J421 = {q: _planted(4, q, 0.3, 5) for q in (2, 3)}  # 6 vertices


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3)), st.data())
def test_conditioned_mixture_support_matches_moments(q, data):
    inst = J421[q]
    k = data.draw(st.integers(1, 3))
    xs = [np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=6, max_size=6)))
          for _ in range(k)]
    ws = data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    d = mixture([(from_assignment(x, q), w / sum(ws)) for x, w in zip(xs, ws)])
    u, v = data.draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
    a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    try:
        cond = condition(d, EventPoly({mul(var(u, a), var(v, b)): 1.0}))
    except NearZeroEvent:
        return
    kept = [(w, x) for w, x in d.support if x[u] == a and x[v] == b]
    support = [(w / sum(w for w, _ in kept), x) for w, x in kept]
    for p in (sos.val_poly(inst), poly_mul(poly_oracle.vertex_val_poly(inst, u),
                                           poly_oracle.vertex_val_poly(inst, v))):
        want = sum(w * poly_oracle.evaluate(p, x) for w, x in support)
        assert cond.pE(p) == pytest.approx(want, abs=1e-12, rel=0)
    prod, p = sos.ProductPE(cond, d), poly_oracle.vertex_val_and_poly(inst, u)
    want = sum(w * wp * poly_oracle.evaluate(p, x, xp)
               for w, x in support for wp, xp in d.support)
    assert prod.pE(p) == pytest.approx(want, abs=1e-12, rel=0)


def test_surrogate_event_is_rejected_on_a_distribution():
    # a surrogate event reweights nothing, however the pseudoexpectation is backed
    d = mixture([(from_assignment(np.array([0, 1, 0, 1]), 2), 0.5),
                 (from_assignment(np.array([0, 0, 1, 1]), 2), 0.25),
                 (from_assignment(np.array([1, 1, 1, 1]), 2), 0.25)])
    cond = condition(d, EventPoly({var(0, 0): 1.0}))
    ev = EventPoly({ONE: 0.25, var(1, 1): 0.5}, provenance="surrogate")
    for pe in (d, cond, shift_symmetrize(d)):
        with pytest.raises(sos.ValidityError):
            condition(pe, ev)


def test_condition_degree_bookkeeping(j421_solved):
    _, _, _, pe = j421_solved
    ev = EventPoly({mul(var(0, 0), var(1, 0)): 1.0})
    cond = condition(pe, ev)
    assert cond.degree == pe.degree - 2
    with pytest.raises(DegreeExhausted):
        condition(cond, ev)  # headroom exhausted at degree 2


def test_conditioning_a_conditioned_product_multiplies_the_events(j421_solved):
    _, inst, _, pe = j421_solved
    plain = product(pe)
    E1 = EventPoly(sos.density_poly(inst, range(6), 0))
    E2 = EventPoly({canon([(0, 2, 1), (1, 4, 1)]): 1.0})
    twice = plain.condition(E1).condition(E2)
    E12 = poly_mul(E1.poly, E2.poly)
    z = plain.pE(E12)
    assert twice.z == pytest.approx(z, abs=1e-12)
    assert (twice.side_degree(0), twice.side_degree(1)) == (2, 2)
    monos = [ONE] + [canon([(cu, u, a), (cv, v, b)]) for cu, cv in ((0, 0), (0, 1), (1, 1))
                     for u in range(6) for v in range(6) for a in range(2) for b in range(2)]
    for m in monos:
        want = 0.0 if m is ZERO else plain.pE(poly_mul({m: 1.0}, E12)) / z
        assert twice.moment(m) == pytest.approx(want, abs=1e-12, rel=0)


def test_condition_requires_provenance(j421_solved):
    _, _, _, pe = j421_solved
    bad = EventPoly({var(0, 0): 5.0}, provenance="surrogate")
    with pytest.raises(sos.ValidityError):
        condition(pe, bad)


def test_condition_entry_points_share_provenance_rule(j421_solved):
    # a surrogate event reweights a product through neither entry point, whether
    # its factors are distributions or moment tables, conditioned or not
    _, inst, _, pe = j421_solved
    dA = from_assignment(np.array([0, 1, 0, 1, 1, 0]), 2)
    dB = mixture([(from_assignment(np.array([1, 1, 0, 0, 1, 0]), 2), 0.5),
                  (from_assignment(np.array([0, 0, 0, 1, 1, 1]), 2), 0.5)])
    ev = EventPoly({ONE: 0.25, canon([(1, 0, 0)]): 0.5}, provenance="surrogate")
    dens = EventPoly(sos.density_poly(inst, range(6), 0))
    for prod in (sos.ProductPE(dA, dB), product(pe), product(pe).condition(dens)):
        for entry in (lambda: condition(prod, ev), lambda: prod.condition(ev)):
            with pytest.raises(sos.ValidityError):
                entry()
    # two [0,1]-provenance events multiply into one
    twice = sos.ProductPE(dA, dB).condition(dens).condition(EventPoly({canon([(1, 0, 0)]): 1.0}))
    assert twice.event.provenance == "zero_one_product"


def test_conditioning_preserves_validity(j421_solved):
    _, _, _, pe = j421_solved
    cond = condition(pe, EventPoly({var(0, 0): 1.0}))
    rep = validate(cond)
    assert rep["ok"], rep


# --------------------------------------------------------------------------
# pseudoprobabilities, symmetrization, Z variables


def test_pseudo_probability(j421_solved):
    _, _, _, pe = j421_solved
    tot = sum(pe.pE({var(0, a): 1.0}) for a in range(2))
    assert tot == pytest.approx(1.0, abs=1e-9)
    x = np.array([1, 0, 1])
    pei = from_assignment(x, 2)
    assert pei.pE({var(0, 1): 1.0}) == 1.0
    prod = product(pei)
    joint = prod.pE({canon([(0, 0, 1), (1, 0, 1)]): 1.0})
    assert joint == pytest.approx(1.0)


def test_shift_symmetrize(j421_solved):
    _, inst, _, pe = j421_solved
    sym = shift_symmetrize(pe)
    for u in range(4):
        for a in range(2):
            assert sym.moment(var(u, a)) == pytest.approx(0.5)
    assert sym.value(inst) == pytest.approx(pe.value(inst), abs=1e-9)
    again = shift_symmetrize(sym)
    assert again.moment(mul(var(0, 1), var(2, 0))) == pytest.approx(
        sym.moment(mul(var(0, 1), var(2, 0))))
    # a product has no label arrays to roll: its factors are symmetrised instead
    with pytest.raises(ValueError, match="single-copy"):
        shift_symmetrize(product(pe))


def test_z_variable_identities(j421_solved):
    _, inst, _, _ = j421_solved
    assert poly_oracle.z_identity_failures(inst) == []
    # integral pair: Z_{u,s} indicates x(u) - x'(u) = s
    x = np.array([1, 0, 1, 0])
    xp = np.array([0, 0, 1, 1])
    pi = sos.ProductPE(from_assignment(x, 2), from_assignment(xp, 2))
    for u in range(4):
        s = (x[u] - xp[u]) % 2
        assert pi.pE(z_poly(u, s, 2)) == pytest.approx(1.0)
        assert sum(pi.pE(z_poly(u, t, 2)) for t in range(2)) == pytest.approx(1.0)


def test_pseudo_cauchy_schwarz(j421_solved):
    _, _, _, pe = j421_solved
    rng = np.random.default_rng(0)
    monos = [ONE] + [var(u, a) for u in range(4) for a in range(2)]
    for _ in range(100):
        f = {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
             for _ in range(3)}
        g = {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
             for _ in range(3)}
        fg = pe.pE(poly_mul(f, g))
        assert fg ** 2 <= pe.pE(poly_mul(f, f)) * pe.pE(poly_mul(g, g)) + 1e-9


def test_local_marginals_are_distributions(j421_solved):
    _, _, _, pe = j421_solved
    for (u, v) in itertools.combinations(range(6), 2):
        M = pe.tuple_moments([(u, v)])[0]
        assert M.min() >= -1e-8
        assert M.sum() == pytest.approx(1.0, abs=1e-8)


def test_degree2_pair_nonneg_constraints():
    # at D = 2 the relaxation adds entrywise nonnegativity explicitly
    pe = solve(relax(TRIANGLE, 2))
    for (u, v) in itertools.combinations(range(3), 2):
        assert pe.tuple_moments([(u, v)])[0].min() >= -1e-7


def test_moment_matrix_psd_integral():
    x = np.array([0, 1, 0, 1, 0, 1])
    rep = validate(from_assignment(x, 2))
    assert rep["ok"] and rep["min_eig"] >= -1e-12
    assert rep["moment_matrix_side"] == 1 + 6 + 15 + 20  # reduced, half-degree 3


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_product_val_intersection_property(seed):
    rng = np.random.default_rng(seed)
    g = johnson.build(4, 2, 0.5)
    inst, _ = ug_core.plant(g, 2, ug_core.PlantedSpec(float(rng.random()), seed))
    x = rng.integers(0, 2, 6)
    pe = shift_symmetrize(from_assignment(x, 2))
    prod = product(pe)
    lhs = sum(float(w) * prod.pE(poly_mul(sos.edge_sat_poly(inst, k, 0),
                                          sos.edge_sat_poly(inst, k, 1)))
              for k, w in enumerate(inst.weight_array()))
    assert lhs >= pe.value(inst) ** 2 - 1e-9


def test_validate_reads_the_reduced_matrix_of_a_large_table():
    g = johnson.build(6, 2, 0.5)
    inst, A = ug_core.plant(g, 3, ug_core.PlantedSpec(0.4, 9))
    pe = solve(relax(inst, 4))
    rep = validate(pe)
    assert rep["moment_matrix_side"] == 1 + 15 * 2 + 105 * 4
    assert rep["min_eig"] >= -sos.TOL_PSD
    assert rep["ok"]


def _raised(y, n, q, k):
    """y with its first class of degree k raised by 1."""
    y = np.array(y)
    y[sos._reduced_count(n, q, k - 1)] += 1.0
    return y


def test_validate_reads_a_degree_6_table_at_degree_6():
    # the raised class enters the moment matrix only at half-degree 3
    n, q, D = 6, 3, 6
    good = sos.SolvedPE(n, q, D, sos.uniform_reduced_table(n, q, D))
    bad = sos.SolvedPE(n, q, D, _raised(good.y, n, q, 6))
    assert validate(good)["ok"] and validate(good)["moment_matrix_side"] == 233
    rep = validate(bad)
    assert "psd" in rep["failed"] and rep["min_eig"] < -0.5, rep


def test_validate_measures_every_copy_of_a_large_table():
    # n = 21 (J(7,2,1)), q = 3, D = 4: a full-label side of 1954 is no reason
    # to leave a wrapped copy unmeasured
    n, q, D = 21, 3, 4
    good = sos.SolvedPE(n, q, D, sos.uniform_reduced_table(n, q, D))
    bad = sos.SolvedPE(n, q, D, _raised(good.y, n, q, 4))
    alone = validate(bad)
    assert "psd" in alone["failed"], alone
    for wrapped in (sos.ProductPE(bad, good), shift_symmetrize(bad)):
        rep = validate(wrapped)
        assert "psd" in rep["failed"] and rep["min_eig"] < -sos.TOL_PSD, rep
        assert rep["moment_matrix_side"] == 1 + 21 * 2 + 210 * 4


# --------------------------------------------------------------------------
# monomial algebra properties


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 2)),
                max_size=6))
@settings(max_examples=60, deadline=None)
def test_canon_idempotent_and_mul_consistent(vars_list):
    m = canon(vars_list)
    if m is ZERO:
        return
    assert canon(m) == m
    assert mul(m, m) == m  # booleanity on canonical monomials


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_poly_algebra_matches_pointwise_evaluation(seed):
    from ugjohnson.monomials import poly_add
    rng = np.random.default_rng(seed)
    q, n = 3, 4
    monos = [ONE] + [canon([(0, int(u), int(a))]) for u in range(n) for a in range(q)]
    def rand_poly():
        return {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
                for _ in range(3)}
    f, h = rand_poly(), rand_poly()
    x = rng.integers(0, q, n)
    ev = poly_oracle.evaluate
    assert ev(poly_mul(f, h), x) == pytest.approx(ev(f, x) * ev(h, x), abs=1e-9)
    assert ev(poly_add(f, h), x) == pytest.approx(ev(f, x) + ev(h, x), abs=1e-9)
