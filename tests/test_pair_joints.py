"""Phi, the TV check's joints and every local joint from `ProductPE.joint`,
against the scalar moment path in pair_joint_oracle, and the label-moment
arrays the joints gather from, against one `moment` call per class.

The cases cover both factor types the rounding builds (a solved table and its
shift symmetrisation), an IPM table at q = 2 and q = 3, the over-budget warm
start of J(8,2,1), a degree-6 product whose factor is conditioned, and a
distribution's support.
"""

import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import EventPoly, mul, poly_mul, var
from ugjohnson.potentials import LocalDistributionCollection, phi_potential, y_pair_joints

import pair_joint_oracle as oracle


def _planted(n, q, eps, seed):
    return ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))


def _squared_density(inst, ids, s):
    dens = sos.density_poly(inst, ids, s)
    return EventPoly(poly_mul(dens, dens), description="density_squared")


def _ipm_521_q2(symmetrize=sos.shift_symmetrize):
    """The pipeline's product over the IPM table; with symmetrize =
    ShiftSymmetrizedPE its first factor is the rolled average of the table,
    which the pipeline never builds (shift_symmetrize returns the table)."""
    inst, _ = _planted(5, 2, 0.3, 16)
    pe = sos.solve(sos.relax(inst, 4))
    assert pe.solve_info["source"] == "sdp"
    S = list(range(inst.vertex_count))
    return inst, S, sos.ProductPE(symmetrize(pe), pe), _squared_density(inst, S, 0)


def _ipm_421_q3():
    inst, _ = _planted(4, 3, 0.25, 13)
    pe = sos.solve(sos.relax(inst, 4))
    assert pe.solve_info["source"] == "sdp"
    ids = johnson.subcube(inst.graph_tag, (0,)).vertex_ids()
    prod = sos.product(sos.shift_symmetrize(pe))
    return inst, list(range(inst.vertex_count)), prod, _squared_density(inst, ids, 1)


def _warm_821_q2():
    inst, _ = _planted(8, 2, 0.05, 1000)
    pe = sos.solve(sos.relax(inst, 4), seed=1)
    assert pe.solve_info["source"] == "warm_start"
    # the event spans all 28 vertices; the scope is one subcube, to keep the oracle quick
    S = johnson.subcube(inst.graph_tag, (0,)).vertex_ids()
    event = EventPoly(sos.density_poly(inst, list(range(inst.vertex_count)), 0))
    return inst, S, sos.product(sos.shift_symmetrize(pe)), event


def _mixture_521():
    """A three-point mixture on planted J(5,2,1) q=2, and its degree-6 table."""
    inst, A = _planted(5, 2, 0.3, 16)
    rng = np.random.default_rng(6)
    mix = sos.mixture([(sos.from_assignment(x, 2), w) for x, w in
                       ((A, 0.5), (rng.integers(0, 2, 10), 0.3), (rng.integers(0, 2, 10), 0.2))])
    y = [mix.moment(m) for m in sos.monomial_classes(10, 2, 6, True)]
    return inst, mix, sos.SolvedPE(10, 2, 6, y)


def _degree6_conditioned():
    inst, _, solved = _mixture_521()
    sym = sos.ShiftSymmetrizedPE(solved)
    cond = sos.condition(sym, EventPoly({mul(var(0, 0), var(1, 1)): 1.0}))
    assert isinstance(cond, sos.ConditionedPE) and cond.degree == 4
    S = list(range(10))
    return inst, S, sos.ProductPE(cond, sym), _squared_density(inst, S, 0)


CASES = {"ipm_521_q2": _ipm_521_q2,
         "ipm_521_q2_symmetrized": lambda: _ipm_521_q2(sos.ShiftSymmetrizedPE),
         "ipm_421_q3": _ipm_421_q3,
         "warm_821_q2": _warm_821_q2, "degree6_conditioned": _degree6_conditioned}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def test_phi_and_tv_joints_equal_the_scalar_moment_path(case):
    inst, S, prod, event = case
    pairs = list(itertools.combinations(S, 2))
    for pr in (prod, prod.condition(event)):
        assert abs(phi_potential(pr, S) - oracle.phi_moments(pr, inst, S)) <= 1e-12
        for (u, v), joint in zip(pairs, y_pair_joints(pr, S, pairs)):
            assert np.abs(joint - oracle.y_joint(pr, u, v)).max() <= 1e-12


def test_pair_joints_are_cached_per_vertex_list(case):
    _, S, prod, _ = case
    J = prod.pair_joints(S)
    assert prod.pair_joints(tuple(S)) is J and not J.flags.writeable
    assert J.shape == (len(S), len(S)) + (prod.q,) * 4


def _class_moments(pe, d):
    return np.asarray([pe.moment(m) for m in
                       sos.monomial_classes(pe.n_vertices, pe.q, d, False)])


@pytest.mark.parametrize("n, q, D", [(6, 2, 4), (6, 3, 4), (5, 2, 6), (4, 4, 4)])
def test_label_moments_equal_one_moment_per_class(n, q, D):
    rng = np.random.default_rng(n * q * D)
    y = [float(rng.random()) for m in sos.monomial_classes(n, q, D, True)]
    solved = sos.SolvedPE(n, q, D, y)
    cond = sos.ConditionedPE(solved, EventPoly({var(1, 1): 1.0}))
    for pe in (solved, sos.ShiftSymmetrizedPE(solved), cond):
        for d in range(pe.degree + 1):
            flat = np.concatenate([F.ravel() for F in pe.label_moments(d)])
            assert np.abs(flat - _class_moments(pe, d)).max() <= 1e-12
    with pytest.raises(sos.DegreeExhausted):
        solved.label_moments(D + 2)


@pytest.mark.parametrize("backing", ["solved", "support"])
def test_joint_equals_one_moment_per_cell(backing):
    # one to four vertex slots split over the two copies, repeats allowed, in
    # batches of three tuples, on a product with and without a mixed event
    inst, mix, solved = _mixture_521()
    pe = solved if backing == "solved" else mix
    prod = sos.ProductPE(sos.ShiftSymmetrizedPE(pe), pe)
    rng = np.random.default_rng(12)
    for pr in (prod, prod.condition(_squared_density(inst, list(range(10)), 1))):
        for k0, k1 in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 3), (4, 0), (2, 2)):
            V0, V1 = rng.integers(0, 10, (3, k0)), rng.integers(0, 10, (3, k1))
            J = pr.joint(V0, V1)
            assert J.shape == (3,) + (2,) * (k0 + k1)
            for b in range(3):
                assert np.abs(J[b] - oracle.joint(pr, V0[b], V1[b])).max() <= 1e-12


@pytest.mark.parametrize("backing", ["solved", "support"])
def test_conditioned_label_moments_equal_its_own_moments(backing):
    inst, mix, solved = _mixture_521()
    base = solved if backing == "solved" else mix
    for event in (EventPoly({mul(var(0, 0), var(1, 1)): 1.0}),
                  EventPoly(sos.shift_poly(2, 5, 1, 2))):
        cond = sos.ConditionedPE(base, event)
        flat = np.concatenate([F.ravel() for F in cond.label_moments(4)])
        assert np.abs(flat - _class_moments(cond, 4)).max() <= 1e-12
    flat = np.concatenate([F.ravel() for F in mix.label_moments(4)])
    assert np.abs(flat - _class_moments(mix, 4)).max() <= 1e-12


def test_a_joint_beyond_a_side_degree_raises():
    # a degree-6 table gives joints of up to six vertices of one copy, four
    # after an event of side degree 2; beyond that no product of smaller
    # joints stands in for the joint
    inst, _, solved = _mixture_521()
    prod = sos.product(solved)
    cond = prod.condition(_squared_density(inst, list(range(10)), 0))
    six = tuple(("X", u) for u in range(6))
    assert LocalDistributionCollection(prod).joint(six).shape == (2,) * 6
    assert LocalDistributionCollection(cond).joint(six[:4]).shape == (2,) * 4
    for pr, slots in ((prod, six + (("X", 6),)), (cond, six[:5]),
                      (cond, six[:2] + tuple(("Xp", u) for u in range(5)))):
        with pytest.raises(sos.DegreeExhausted):
            LocalDistributionCollection(pr).joint(slots)
