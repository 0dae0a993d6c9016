"""pE, Psi, Condition&Round and the solver's reduced tables, all read from the
label arrays, against the scalar `moment` definitions in scalar_oracle and
pair_joint_oracle.

The pseudoexpectations cover every kind the library builds: solved tables at
D = 4 and D = 6 (random tables, an IPM table and a mixture's table), their
shift symmetrisations, conditioned copies, distributions, products with and
without an event, and the marginals of a conditioned product.
"""

import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import ZERO, EventPoly, canon, mul, poly_mul, poly_sum, var
from ugjohnson.potentials import psi_potential
from ugjohnson.rounding import condition_and_round

import pair_joint_oracle
import scalar_oracle as oracle


def _planted(n, q, eps, seed):
    return ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))


def _random_solved(n, q, D, seed):
    rng = np.random.default_rng(seed)
    return sos.SolvedPE(n, q, D, [float(rng.random())
                                  for m in sos.monomial_classes(n, q, D, True)])


def _density(ids, s, q):
    """delta(G_s) over the vertices ids, as sos.density_poly builds it."""
    return poly_sum((1.0 / len(ids), sos.z_poly(u, s, q)) for u in ids)


def _random_poly(rng, n, q, d0, d1=0, terms=40):
    """Random coefficients on random monomials of side degrees <= (d0, d1),
    the constant and the zero monomial among them."""
    pools = [sos.monomial_classes(n, q, d, False) for d in (d0, d1)]
    p = {ZERO: 1.0, (): 0.5}
    for _ in range(terms):
        m0, m1 = (pool[int(rng.integers(len(pool)))] for pool in pools)
        m = canon(list(m0) + [(1, u, a) for (_, u, a) in m1])
        p[m] = p.get(m, 0.0) + float(rng.normal())
    return p


@pytest.fixture(scope="module")
def ipm_521():
    inst, _ = _planted(5, 2, 0.3, 16)
    pe = sos.solve(sos.relax(inst, 4))
    assert pe.solve_info["source"] == "sdp"
    return inst, pe


@pytest.fixture(scope="module")
def mixture_521():
    """A three-point mixture on planted J(5,2,1) q=2 and its degree-6 table."""
    inst, A = _planted(5, 2, 0.3, 16)
    rng = np.random.default_rng(6)
    mix = sos.mixture([(sos.from_assignment(x, 2), w) for x, w in
                       ((A, 0.5), (rng.integers(0, 2, 10), 0.3), (rng.integers(0, 2, 10), 0.2))])
    y = [mix.moment(m) for m in sos.monomial_classes(10, 2, 6, True)]
    return inst, mix, sos.SolvedPE(10, 2, 6, y)


def _singles():
    d4, d6 = _random_solved(6, 3, 4, 1), _random_solved(5, 2, 6, 2)
    rng = np.random.default_rng(3)
    dist = sos.mixture([(sos.from_assignment(rng.integers(0, 3, 6), 3), w)
                        for w in (0.5, 0.3, 0.2)])
    prod = sos.ProductPE(sos.shift_symmetrize(d6), d6).condition(EventPoly(_density([0, 2, 4], 1, 2)))
    return {"solved_d4": d4, "solved_d6": d6, "shift_symmetrized": sos.shift_symmetrize(d4),
            "conditioned": sos.ConditionedPE(d6, EventPoly({mul(var(0, 0), var(1, 1)): 1.0})),
            "distribution": dist, "marginal_0": prod.marginal_pe(0),
            "marginal_1": prod.marginal_pe(1)}


SINGLES = _singles()


@pytest.mark.parametrize("name", list(SINGLES))
def test_single_copy_pE_equals_the_scalar_sum(name):
    pe = SINGLES[name]
    rng = np.random.default_rng(len(name))
    for d in range(min(pe.degree, 6) + 1):
        p = _random_poly(rng, pe.n_vertices, pe.q, d)
        assert abs(pe.pE(p) - pair_joint_oracle.pE(pe, p)) <= 1e-12
    assert pe.pE({}) == 0.0


@pytest.mark.parametrize("event", [None, "density", "mixed"])
def test_product_pE_equals_the_scalar_sum(event):
    solved = _random_solved(5, 2, 6, 4)
    prod = sos.ProductPE(sos.shift_symmetrize(solved), solved)
    if event == "density":
        prod = prod.condition(EventPoly(_density([0, 1, 3], 0, 2)))
    elif event == "mixed":
        prod = prod.condition(EventPoly({(): 0.5, canon([(0, 1, 1), (1, 2, 0)]): 0.25}))
    rng = np.random.default_rng(5)
    for d0, d1 in ((0, 0), (1, 0), (0, 2), (2, 2), (prod.side_degree(0), prod.side_degree(1))):
        p = _random_poly(rng, 5, 2, d0, d1)
        assert abs(prod.pE(p) - pair_joint_oracle.pE(prod, p)) <= 1e-12
    if event is not None:
        z = pair_joint_oracle.pE(sos.ProductPE(prod.pe1, prod.pe2), prod.event.poly)
        assert abs(prod.z - z) <= 1e-12


def test_pE_raises_over_a_side_degree_and_on_a_primed_single_copy():
    solved = _random_solved(5, 2, 4, 6)
    five = canon((0, u, 1) for u in range(5))
    with pytest.raises(sos.DegreeExhausted):
        solved.pE({five: 1.0})
    with pytest.raises(ValueError, match="primed"):
        solved.pE({canon([(0, 0, 1), (1, 2, 0)]): 1.0})
    # a squared density, of side degree 2, leaves each side of a D = 4 product degree 2
    dens = _density([0, 1], 0, 2)
    prod = sos.product(solved).condition(EventPoly(poly_mul(dens, dens)))
    assert (prod.side_degree(0), prod.side_degree(1)) == (2, 2)
    two = {canon([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 3, 1)]): 1.0}
    assert abs(prod.pE(two) - pair_joint_oracle.pE(prod, two)) <= 1e-12
    for m in (canon([(0, 0, 1), (0, 1, 0), (0, 2, 1)]), canon([(1, 0, 1), (1, 1, 0), (1, 2, 1)])):
        with pytest.raises(sos.DegreeExhausted):
            prod.pE({m: 1.0})


def _psi_cases(ipm_521, mixture_521):
    inst, pe = ipm_521
    _, mix, solved6 = mixture_521
    sub = johnson.subcube(inst.graph_tag, (0,)).vertex_ids()
    cond = sos.condition(sos.shift_symmetrize(solved6), EventPoly({mul(var(0, 0), var(1, 1)): 1.0}))
    assert isinstance(cond, sos.ConditionedPE) and cond.degree == 4
    return {"ipm": (pe, None), "ipm_symmetrized": (sos.shift_symmetrize(pe), None),
            "subset_scope": (sos.shift_symmetrize(pe), sub), "degree6_conditioned": (cond, None),
            "support_mixture": (mix, None), "mixture_subset": (mix, sub)}, inst


@pytest.mark.parametrize("name", ["ipm", "ipm_symmetrized", "subset_scope",
                                  "degree6_conditioned", "support_mixture", "mixture_subset"])
def test_psi_equals_the_scalar_loop(name, ipm_521, mixture_521):
    cases, inst = _psi_cases(ipm_521, mixture_521)
    pe, scope = cases[name]
    assert abs(psi_potential(pe, inst, scope) - oracle.psi_potential(pe, inst, scope)) <= 1e-12


def test_psi_without_an_edge_in_scope_is_zero(ipm_521):
    inst, pe = ipm_521
    u = 0
    comp = next(v for v in range(inst.vertex_count)
                if v != u and not inst.scoped_edges(u, {u, v}))
    assert psi_potential(pe, inst, [u, comp]) == oracle.psi_potential(pe, inst, [u, comp]) == 0.0


@pytest.fixture(scope="module")
def warm_821():
    inst, _ = _planted(8, 2, 0.05, 1000)
    pe = sos.solve(sos.relax(inst, 4), seed=1)
    assert pe.solve_info["source"] == "warm_start"
    return inst, pe


@pytest.mark.parametrize("name", ["ipm", "ipm_subcube", "mixture", "degree6_conditioned",
                                  "warm_821", "warm_821_subcube"])
def test_condition_and_round_equals_the_scalar_loop(name, ipm_521, mixture_521, warm_821):
    inst, pe = warm_821 if name.startswith("warm") else ipm_521
    if name == "mixture":
        pe = mixture_521[1]
    elif name == "degree6_conditioned":
        pe = sos.condition(sos.shift_symmetrize(mixture_521[2]),
                           EventPoly({mul(var(0, 0), var(1, 1)): 1.0}))
    scope = johnson.subcube(inst.graph_tag, (1,)).vertex_ids() if "subcube" in name else None
    x, rec = condition_and_round(pe, inst, scope=scope)
    want_x, want_rows = oracle.condition_and_round(sos.shift_symmetrize(pe), inst, scope)
    assert np.array_equal(x, want_x) and rec["anchors"] == want_rows


def test_condition_and_round_without_an_anchor_raises(ipm_521):
    inst, pe = ipm_521
    for kw in ({"anchor_budget": 0}, {"scope": []}):
        with pytest.raises(sos.NearZeroEvent):
            condition_and_round(pe, inst, **kw)


@pytest.mark.parametrize("n, q, D", [(10, 2, 6), (15, 3, 4), (6, 4, 4), (7, 2, 2)])
def test_reduced_tables_equal_the_class_loops(n, q, D):
    classes = sos.monomial_classes(n, q, D, True)
    x = np.random.default_rng(n * q * D).integers(0, q, n)
    for got, want in ((sos.assignment_reduced_table(x, q, D),
                       oracle.assignment_reduced_table(classes, x, q)),
                      (sos.uniform_reduced_table(n, q, D), oracle.uniform_reduced_table(classes, q))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_validate_probes_read_pE_on_products_and_marginals(ipm_521):
    _, pe = ipm_521
    prod = sos.ProductPE(sos.shift_symmetrize(pe), pe)
    for target in (pe, prod, prod.marginal_pe(1)):
        rep = sos.validate(target)
        assert rep["ok"], rep
        assert rep["scaling_residual"] <= 1e-12
        copies = [target] if target.mode == "single" else [prod.marginal_pe(c) for c in (0, 1)]
        lowest = min(float(c.label_moments(2)[2].min()) for c in copies)
        assert rep["marginal_min_entry"] == min(0.0, lowest)


def test_tuple_moments_repeat_and_annihilate():
    pe = _random_solved(5, 3, 4, 7)
    A = pe.tuple_moments([(0, 0), (1, 3), (3, 1)])
    assert A.shape == (3, 3, 3)
    L = pe.label_moments(2)
    assert np.array_equal(A[0], np.diag(L[1][0]))  # X_{0,a} X_{0,b} = [a = b] X_{0,a}
    assert np.array_equal(A[1], A[2].T)
    for u, v in itertools.combinations(range(5), 2):
        want = [[pair_joint_oracle.pE(pe, {mul(var(u, a), var(v, b)): 1.0}) for b in range(3)]
                for a in range(3)]
        assert np.abs(pe.tuple_moments([(u, v)])[0] - want).max() <= 1e-12
