"""Phi and the TV check's joints from `ProductPE.pair_joints`, against the
scalar moment path in pair_joint_oracle, and the label-moment arrays the
pair joints gather from, against one `moment` call per class.

The cases cover both factor types the rounding builds (a solved table and its
shift symmetrisation), an IPM table at q = 2 and q = 3, the over-budget warm
start of J(8,2,1), and a degree-6 product whose factor is conditioned.
"""

import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import EventPoly, mul, poly_mul, var
from ugjohnson.potentials import ShiftPartitionSpec, phi_potential, y_pair_joints

import pair_joint_oracle as oracle


def _planted(n, q, eps, seed):
    return ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))


def _squared_density(inst, ids, s):
    dens = sos.density_poly(inst, ids, s)
    return EventPoly(poly_mul(dens, dens), description="density_squared")


def _ipm_521_q2():
    inst, _ = _planted(5, 2, 0.3, 16)
    pe = sos.solve(sos.relax(inst, 4))
    assert pe.solve_info["source"] == "sdp"
    S = list(range(inst.vertex_count))
    return inst, S, sos.ProductPE(sos.shift_symmetrize(pe), pe), _squared_density(inst, S, 0)


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


def _degree6_conditioned():
    inst, A = _planted(5, 2, 0.3, 16)
    rng = np.random.default_rng(6)
    mix = sos.mixture([(sos.from_assignment(x, 2), w) for x, w in
                       ((A, 0.5), (rng.integers(0, 2, 10), 0.3), (rng.integers(0, 2, 10), 0.2))])
    table = {m: mix.moment(m) for m in sos.monomial_classes(10, 2, 6, True)}
    sym = sos.shift_symmetrize(sos.SolvedPE(10, 2, 6, table))
    cond = sos.condition(sym, EventPoly({mul(var(0, 0), var(1, 1)): 1.0}))
    assert isinstance(cond, sos.ConditionedPE) and cond.degree == 4
    S = list(range(10))
    return inst, S, sos.ProductPE(cond, sym), _squared_density(inst, S, 0)


CASES = {"ipm_521_q2": _ipm_521_q2, "ipm_421_q3": _ipm_421_q3,
         "warm_821_q2": _warm_821_q2, "degree6_conditioned": _degree6_conditioned}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def test_phi_and_tv_joints_equal_the_scalar_moment_path(case):
    inst, S, prod, event = case
    spec = ShiftPartitionSpec(inst, 0.3, 0.1, mode="plain", scope=tuple(S))
    pairs = list(itertools.combinations(S, 2))
    for pr in (prod, prod.condition(event)):
        assert pr.exact_support() is None
        rep = phi_potential(spec, pr)
        assert rep["representation"] == "moments"
        assert abs(rep["phi"] - oracle.phi_moments(pr, inst, S)) <= 1e-12
        for (u, v), joint in zip(pairs, y_pair_joints(pr, spec, S, pairs, False)):
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
    table = {m: float(rng.random()) for m in sos.monomial_classes(n, q, D, True)}
    solved = sos.SolvedPE(n, q, D, table)
    cond = sos.ConditionedPE(solved, EventPoly({var(1, 1): 1.0}))
    for pe in (solved, sos.shift_symmetrize(solved), cond):
        for d in range(pe.degree + 1):
            flat = np.concatenate([F.ravel() for F in pe.label_moments(d)])
            assert np.abs(flat - _class_moments(pe, d)).max() <= 1e-12
    with pytest.raises(sos.DegreeExhausted):
        solved.label_moments(D + 2)
