import functools
from fractions import Fraction

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.sdp import _schur, _schur_plan, repair_psd, solve_admm, solve_ipm

from reduced_oracle import reduced_problem


@pytest.fixture(scope="module")
def medium_relaxation():
    g = johnson.build(5, 2, 0.5)
    inst, _ = ug_core.plant(g, 2, ug_core.PlantedSpec(0.35, 7))
    return inst, sos.relax(inst, 4)


def test_ipm_certifies_small_gap(medium_relaxation):
    _, rel = medium_relaxation
    res = solve_ipm(rel.problem)
    assert res.status == "optimal"
    assert res.gap <= 1e-7 * (1 + abs(res.objective))
    assert res.min_eig >= -1e-9  # dual slack is PSD by construction


def test_ipm_tests_the_last_iterate():
    g = johnson.build(4, 2, 0.5)
    inst, _ = ug_core.plant(g, 2, ug_core.PlantedSpec(0.3, 3))
    prob = sos.relax(inst, 2).problem
    full = solve_ipm(prob)
    assert full.status == "optimal" and full.iterations >= 3
    # one iteration fewer takes the same steps; their last iterate is the optimum
    last = solve_ipm(prob, max_iter=full.iterations - 1)
    assert last.status == "optimal" and last.iterations == full.iterations - 1
    assert np.array_equal(last.y, full.y) and last.gap == full.gap
    short = solve_ipm(prob, max_iter=full.iterations - 2)
    assert short.status == "max_iter"


def test_admm_matches_ipm(medium_relaxation):
    _, rel = medium_relaxation
    res_i = solve_ipm(rel.problem)
    res_a = solve_admm(rel.problem, max_iter=800)
    assert res_a.objective == pytest.approx(res_i.objective, abs=2e-4)
    assert res_a.min_eig >= -1e-9


def test_admm_deterministic(medium_relaxation):
    _, rel = medium_relaxation
    r1 = solve_admm(rel.problem, max_iter=60)
    r2 = solve_admm(rel.problem, max_iter=60)
    assert np.array_equal(r1.y, r2.y)


def test_repair_psd_restores_feasibility(medium_relaxation):
    # on the reduced-basis problem, whose uniform point is not the identity
    inst, _ = medium_relaxation
    prob = reduced_problem(inst, 4)
    y = prob.uniform_y.copy()
    k = len(y) // 3
    y[k] += 0.8  # break PSD-ness
    M = prob.assemble(y)
    assert np.linalg.eigvalsh(M).min() < 0
    fixed = repair_psd(prob, y)
    assert np.linalg.eigvalsh(prob.assemble(fixed)).min() >= -1e-12
    assert fixed[0] == 1.0


def test_uniform_moments_are_interior(medium_relaxation):
    _, rel = medium_relaxation
    M = rel.problem.assemble(rel.problem.uniform_y)
    assert np.linalg.eigvalsh(M).min() > 0


def test_class_average_is_projection(medium_relaxation):
    _, rel = medium_relaxation
    rng = np.random.default_rng(0)
    W = rng.standard_normal((rel.problem.side, rel.problem.side))
    y = rel.problem.class_average(W)
    # averaging the assembled matrix is idempotent
    y2 = rel.problem.class_average(rel.problem.assemble(y))
    assert np.abs(y - y2).max() < 1e-12


def test_warm_certificate_path():
    g = johnson.build(6, 2, 0.5)
    inst, _ = ug_core.plant(g, 3, ug_core.PlantedSpec(0.0, 1))
    pe = sos.solve(sos.relax(inst, 4))
    assert pe.solve_info["method"] == "warm_certificate"
    assert pe.solve_info["objective"] == pytest.approx(1.0, abs=1e-9)
    assert pe.solve_info["certified"]
    assert "primal_residual" not in pe.solve_info   # recorded by the IPM path only


def test_second_order_corrector_bounds_the_iterations():
    # solve_d2's J(8,2,1) q=2 instance at seed 1 (eps .5, plant seed 1002): the
    # centring-only corrector took 65 iterations, the second-order one takes 22
    inst, _ = ug_core.plant(johnson.build(8, 2, 0.5), 2, ug_core.PlantedSpec(0.5, 1002))
    res = solve_ipm(sos.relax(inst, 2).problem)
    assert res.status == "optimal" and res.iterations <= 30


def test_ipm_with_orthant_block():
    # degree-2 relaxations carry the pair-nonnegativity inequalities
    tri = ug_core.UGInstance(3, 3, ((0, 1, 1), (1, 2, 1), (0, 2, 2)),
                             tuple([Fraction(1, 3)] * 3))
    rel = sos.relax(tri, 2)
    assert rel.problem.G is not None and rel.problem.G.shape[0] > 0
    res = solve_ipm(rel.problem)
    assert res.status == "optimal"
    pe = sos.solve(rel)
    _, opt = ug_core.brute_force_opt(tri)
    assert pe.solve_info["objective"] >= opt - 1e-6


def _schur_by_class_loop(prob, Sinv, X, d):
    """Reference Schur matrix: one B x B product per class, then a bincount."""
    m = prob.m
    I_, J_, K_ = prob.entry_i, prob.entry_j, prob.entry_k - 1
    H = np.empty((m, m))
    for k in range(m):
        sel = K_ == k
        Wk = Sinv[:, I_[sel]] @ X[J_[sel], :]
        H[k, :] = np.bincount(K_, weights=Wk[I_, J_], minlength=m)
    if prob.G is not None and prob.G.shape[0]:
        H += prob.G.T @ (prob.G * d[:, None])
    return (H + H.T) / 2


@pytest.mark.parametrize("n, q, D", [(6, 3, 2), (4, 3, 4)])
def test_schur_build_matches_class_loop(n, q, D):
    # one real block: the reduced-basis problem (complex blocks: test_invariant_sdp.py)
    inst, _ = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(0.5, 1))
    prob = reduced_problem(inst, D)
    assert (prob.G is not None) == (D == 2)
    rng = np.random.default_rng(D)
    B = prob.side
    A, C = rng.standard_normal((2, B, B))
    Sinv = np.linalg.inv(A @ A.T + B * np.eye(B))
    Sinv = (Sinv + Sinv.T) / 2
    X = C @ C.T + B * np.eye(B)
    d = rng.uniform(0.1, 2.0, 0 if prob.G is None else prob.G.shape[0])
    plan = _schur_plan(prob)
    H = _schur(plan, [Sinv], [X], d)
    ref = _schur_by_class_loop(prob, Sinv, X, d)[np.ix_(plan.order, plan.order)]
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lost_factorisation_ends_the_solve_stalled(monkeypatch):
    # J(4,2,1) q=3 at D=4, plant seed 3003: the solve that raised LinAlgError
    # from the step-length Cholesky before the IPM stopped on a lost factorisation
    inst, _ = ug_core.plant(johnson.build(4, 2, 0.5), 3, ug_core.PlantedSpec(0.5, 3003))
    rel = sos.relax(inst, 4)
    pe = sos.solve(rel)
    assert sos.validate(pe)["ok"]
    # tol 0 is never met: the iterates run on until X or S is no longer
    # numerically PD, and the last PD dual iterate comes back flagged
    res = solve_ipm(rel.problem, tol=0.0, max_iter=200)
    assert res.status == "stalled" and res.iterations < 200
    # M(y) is PD when each diagonal block's Cholesky succeeds, the test that
    # solve_ipm applies to its iterates; a Cholesky of the whole block-diagonal
    # matrix, whose blocks' smallest eigenvalues are of order -1e-15, succeeds or
    # fails with the BLAS thread count
    M, ends = rel.problem.assemble(res.y), np.cumsum((0,) + rel.problem.blocks)
    for lo, hi in zip(ends[:-1], ends[1:]):
        np.linalg.cholesky(M[lo:hi, lo:hi])  # raises unless the block is PD
    monkeypatch.setattr(sos, "solve_ipm", functools.partial(solve_ipm, tol=0.0, max_iter=200))
    pe = sos.solve(rel)
    assert pe.solve_info["status"] == "stalled"
    assert not pe.solve_info["certified"]
    assert sos.validate(pe)["ok"]
    assert pe.solve_info["objective"] >= pe.solve_info["warm_value"] - 1e-6


def test_singular_schur_matrix_ends_the_solve_stalled(monkeypatch):
    inst, _ = ug_core.plant(johnson.build(4, 2, 0.5), 2, ug_core.PlantedSpec(0.5, 1))
    rel = sos.relax(inst, 4)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    res = solve_ipm(rel.problem)
    assert res.status == "stalled" and res.iterations == 1
    pe = sos.solve(rel)
    assert pe.solve_info["method"] == "ipm"
    assert pe.solve_info["status"] == "stalled"
    assert not pe.solve_info["certified"]
