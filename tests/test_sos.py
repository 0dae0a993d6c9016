import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import (ONE, ZERO, EventPoly, canon, monomial_name, mul,
                                 parse_monomial, poly_mul, var)
from ugjohnson.sos import (DegreeExhausted, NearZeroEvent, condition,
                           from_assignment, mixture, moment_matrix, product,
                           relax, shift_symmetrize, solve, validate, val_poly,
                           z_poly)

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
    m = canon([(0, 3, 1), (1, 0, 2)])
    assert parse_monomial(monomial_name(m)) == m
    assert parse_monomial("1") == ONE


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
    assert rep["partition_residual"] <= 1e-6
    assert rep["marginal_min_entry"] >= -1e-8
    assert rep["marginal_sum_residual"] <= 1e-8


def test_validate_flags_corruption(j421_solved):
    _, inst, _, pe = j421_solved
    table = dict(pe.table)
    key = next(m for m in table if len(m) == 1)
    table[key] += 1.0
    bad = sos.SolvedPE(pe.n_vertices, pe.q, pe.degree, table)
    rep = validate(bad)
    assert not rep["ok"]
    assert rep["min_eig"] < -sos.TOL_PSD or rep["marginal_min_entry"] < -1e-6


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


def test_condition_degree_bookkeeping(j421_solved):
    _, _, _, pe = j421_solved
    ev = EventPoly({mul(var(0, 0), var(1, 0)): 1.0})
    cond = condition(pe, ev)
    assert cond.degree == pe.degree - 2
    with pytest.raises(DegreeExhausted):
        condition(cond, ev)  # headroom exhausted at degree 2


def test_condition_requires_provenance(j421_solved):
    _, _, _, pe = j421_solved
    bad = EventPoly({var(0, 0): 5.0}, provenance="surrogate")
    with pytest.raises(sos.ValidityError):
        condition(pe, bad)


def test_condition_entry_points_share_provenance_rule(j421_solved):
    # a surrogate event reweights a product of distributions through either
    # entry point, and a product of moment tables through neither
    _, _, _, pe = j421_solved
    dA = from_assignment(np.array([0, 1, 0, 1, 1, 0]), 2)
    dB = mixture([(from_assignment(np.array([1, 1, 0, 0, 1, 0]), 2), 0.5),
                  (from_assignment(np.array([0, 0, 0, 1, 1, 1]), 2), 0.5)])
    ev = EventPoly({ONE: 0.25, canon([(1, 0, 0)]): 0.5}, provenance="surrogate")
    via_sos = condition(sos.ProductPE(dA, dB), ev)
    via_method = sos.ProductPE(dA, dB).condition(ev)
    assert [w for w, _, _ in via_sos.exact_support()] == [0.25, 0.75]
    m = canon([(0, 1, 1), (1, 3, 1)])
    assert via_sos.moment(m) == via_method.moment(m) == 0.75
    for entry in (lambda: condition(product(pe), ev), lambda: product(pe).condition(ev)):
        with pytest.raises(sos.ValidityError):
            entry()


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


def test_z_variable_identities(j421_solved):
    _, inst, _, pe = j421_solved
    prod = product(pe)
    rep = sos.z_identities_report(prod, inst)
    assert max(rep.values()) <= 1e-9
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
        M = pe.pair_marginal(u, v)
        assert M.min() >= -1e-8
        assert M.sum() == pytest.approx(1.0, abs=1e-8)


def test_degree2_pair_nonneg_constraints():
    # at D = 2 the relaxation adds entrywise nonnegativity explicitly
    pe = solve(relax(TRIANGLE, 2))
    for (u, v) in itertools.combinations(range(3), 2):
        assert pe.pair_marginal(u, v).min() >= -1e-7


def test_moment_matrix_psd_integral():
    x = np.array([0, 1, 0, 1, 0, 1])
    pe = from_assignment(x, 2)
    M, basis = moment_matrix(pe, half_degree=2)
    assert np.linalg.eigvalsh(M).min() >= -1e-12


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


def test_validate_reduced_fallback_for_large_matrices():
    g = johnson.build(6, 2, 0.5)
    inst, A = ug_core.plant(g, 3, ug_core.PlantedSpec(0.4, 9))
    pe = solve(relax(inst, 4))
    rep = validate(pe, side_cap=20)  # force the full matrix over the cap
    assert rep["moment_matrix_basis"] == "reduced"
    assert rep["min_eig"] is not None and rep["min_eig"] >= -sos.TOL_PSD
    assert rep["ok"]


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
    from ugjohnson.monomials import evaluate, poly_add
    rng = np.random.default_rng(seed)
    q, n = 3, 4
    monos = [ONE] + [canon([(0, int(u), int(a))]) for u in range(n) for a in range(q)]
    def rand_poly():
        return {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
                for _ in range(3)}
    f, h = rand_poly(), rand_poly()
    x = rng.integers(0, q, n)
    lhs = evaluate(poly_mul(f, h), x)
    assert lhs == pytest.approx(evaluate(f, x) * evaluate(h, x), abs=1e-9)
    lhs2 = evaluate(poly_add(f, h), x)
    assert lhs2 == pytest.approx(evaluate(f, x) + evaluate(h, x), abs=1e-9)
