"""The moment SDP over shift-invariant Fourier moments.

relax parametrises the relaxation by the charge-0 Fourier moments and splits
the moment matrix into one Hermitian block per charge.  The reduced-basis
problem over every table (reduced_oracle.py) is the reference: both must
reach the same optimum, and the invariant table must map to and from the
reduced label table exactly.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.sdp import _schur, _schur_plan, solve_ipm

from reduced_oracle import reduced_problem


def _planted(n, q, eps, seed):
    return ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(eps, seed))[0]


def _cycle(n, q):
    """A small instance off the Johnson family: a chord and a cycle of shifts."""
    edges = tuple((u, u + 1, (7 * u) % q) for u in range(n - 1)) + ((0, 2, 1), (0, n - 1, 1))
    return ug_core.UGInstance(n, q, edges, tuple([Fraction(1, len(edges))] * len(edges)))


def fourier_moments(reduced, n, q, D):
    """Every Fourier moment pE[chi_c] of a reduced table, c in {1..q-1}^k on each
    vertex set, in monomial_classes(n, q, D, True) order: the inverse of the
    label FFT, through the full-label arrays."""
    L = sos.SolvedPE(n, q, D, reduced).label_moments(D)
    axes = [tuple(range(1, k + 1)) for k in range(D + 1)]
    return np.concatenate([(np.fft.ifftn(F, axes=ax) * q ** k)[
        (slice(None),) + (slice(1, None),) * k].ravel() for k, (F, ax) in enumerate(zip(L, axes))])


def real_unknowns(yh, conj):
    """y with yh[k] = y[k] + i y[conj[k]] for k < conj[k]: the inverse of MomentSDP.coords."""
    k = np.arange(len(conj))
    return np.where(k <= conj, yh.real, yh[conj].imag)


SIZES = [(n, q, D) for n, q, D in itertools.product((4, 5), (2, 3, 4, 5), (2, 4))] + \
    [(4, 2, 6), (4, 3, 6), (5, 4, 6)]


@pytest.mark.parametrize("n,q,D", SIZES, ids=[f"n{n}-q{q}-D{D}" for n, q, D in SIZES])
def test_invariant_sizes_match_the_built_problem(n, q, D):
    prob = sos.relax(_cycle(n, q), D).problem
    m, sides = sos.invariant_sizes(n, q, D)
    assert prob.m == m
    assert prob.blocks == tuple(s for s in sides if s > 1)
    assert prob.side == sum(prob.blocks) and (prob.conj is None) == (q == 2)
    # each coordinate's conjugate is its negation, and pairs are listed lo first
    if prob.conj is not None:
        assert np.array_equal(prob.conj[prob.conj], np.arange(prob.n_classes))
    # every block entry (a, b) has the conjugate coordinate at (b, a)
    M = prob.assemble(np.arange(prob.n_classes, dtype=float) + 1.0)
    assert np.array_equal(M, M.conj().T)


@pytest.mark.parametrize("n,q,D", [(4, 2, 4), (4, 3, 2), (4, 3, 4), (4, 4, 4), (5, 4, 2)])
def test_schur_build_matches_entry_loop(n, q, D):
    # H[k, l] = Re <E_k, Sinv E_l X>, with E_k = M(e_k) - M(0) built entry by entry
    prob = sos.relax(_cycle(n, q), D).problem
    rng = np.random.default_rng(n + q + D)
    cplx = prob.conj is not None
    Sinv, X = [], []
    for B in prob.blocks:
        A, C = (rng.standard_normal((B, B)) + (1j * rng.standard_normal((B, B)) if cplx else 0)
                for _ in range(2))
        Sinv.append(A @ A.conj().T + B * np.eye(B))
        X.append(C @ C.conj().T + B * np.eye(B))
    d = rng.uniform(0.1, 2.0, 0 if prob.G is None else prob.G.shape[0])
    plan = _schur_plan(prob)
    H = _schur(plan, Sinv, X, d)
    Sfull, Xfull = (np.zeros((prob.side,) * 2, dtype=complex) for _ in range(2))
    for a, B, S_, X_ in zip(np.cumsum((0,) + prob.blocks), prob.blocks, Sinv, X):
        Sfull[a:a + B, a:a + B], Xfull[a:a + B, a:a + B] = S_, X_
    E = np.array([prob.assemble(np.eye(prob.n_classes)[k]) for k in range(1, prob.n_classes)])
    W = (Sfull @ E @ Xfull).reshape(prob.m, -1)
    ref = (E.conj().reshape(prob.m, -1) @ W.T).real
    if prob.G is not None:
        ref += prob.G.T @ (prob.G * d[:, None])
    ref = (ref + ref.T)[np.ix_(plan.order, plan.order)] / 2  # H runs over plan.order
    assert np.abs(H - ref).max() <= 1e-12 * np.abs(ref).max()


# the oracle IPM solves of these instances take at most 0.5 s each
ORACLE = [(4, 2, 2), (4, 3, 2), (4, 4, 2), (4, 2, 4), (4, 3, 4), (5, 2, 4)]


@pytest.mark.parametrize("n,q,D", ORACLE, ids=[f"J({n},2,1)-q{q}-D{D}" for n, q, D in ORACLE])
def test_invariant_ipm_matches_the_reduced_oracle(n, q, D):
    inst = _planted(n, q, 0.5, 7)
    rel = sos.relax(inst, D)
    inv, ref = solve_ipm(rel.problem), solve_ipm(reduced_problem(inst, D))
    assert inv.status == ref.status == "optimal"
    assert abs(inv.objective - ref.objective) <= inv.gap + ref.gap + 1e-9
    y = rel.reduced_table(inv.y)
    pe = sos.SolvedPE(inst.vertex_count, q, D, y)
    assert pe.value(inst) == pytest.approx(inv.objective, abs=1e-12)
    assert sos.validate(pe)["ok"]
    sym = sos.shift_symmetrize(pe)
    for F, Fs in zip(pe.label_moments(D), sym.label_moments(D)):
        assert np.abs(F - Fs).max() <= 1e-12


def _orbit_table(n, q, D, seed):
    """The reduced table of the shift orbit of a three-point mixture: invariant."""
    rng = np.random.default_rng(seed)
    xs = [rng.integers(0, q, n) for _ in range(3)]
    mix = sos.mixture([(sos.from_assignment(x, q), w) for x, w in zip(xs, (0.5, 0.3, 0.2))])
    return np.concatenate([F[(slice(None),) + (slice(1, None),) * k].ravel() for k, F in
                           enumerate(sos.shift_symmetrize(mix).label_moments(D))])


@pytest.mark.parametrize("n,q,D", [(6, 2, 4), (6, 3, 4), (6, 4, 4), (6, 3, 6), (10, 5, 2)])
def test_reduced_fourier_round_trip(n, q, D):
    # the shift orbit of a mixture is invariant: its moments vanish off charge 0
    y = _orbit_table(n, q, D, n + q)
    yh = fourier_moments(y, n, q, D)
    index, conj = sos._invariant_layout(n, q, D)
    assert np.abs(yh[index < 0]).max(initial=0.0) <= 1e-13
    rel = sos.relax(_cycle(n, q), D)
    back = rel.reduced_table(real_unknowns(yh[index >= 0], conj))
    assert np.abs(back - y).max() <= 1e-13
    # the objective over the real unknowns is the table's value
    pe = sos.SolvedPE(n, q, D, y)
    assert rel.problem.c @ real_unknowns(yh[index >= 0], conj) == \
        pytest.approx(pe.value(rel.inst), abs=1e-13)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_block_min_eig_has_the_sign_of_the_reduced_matrix(q):
    # the blocks are congruent to the reduced-basis moment matrix of the same
    # invariant table, so their smallest eigenvalues agree in sign
    n, D = 6, 4
    rel = sos.relax(_cycle(n, q), D)
    prob = rel.problem
    index, conj = sos._invariant_layout(n, q, D)
    y = _orbit_table(n, q, D, 3)
    pd = (real_unknowns(fourier_moments(y, n, q, D)[index >= 0], conj) + prob.uniform_y) / 2
    bad = pd.copy()
    bad[1] += 3.0  # the first degree-2 coordinate: no degree-1 one has charge 0
    T = sos.product_table(n, q, D // 2, True)
    for table, sign in ((pd, 1.0), (bad, -1.0)):
        blocks = np.linalg.eigvalsh(prob.assemble(table)).min()
        reduced = sos.SolvedPE(n, q, D, rel.reduced_table(table)).reduced_moments(D)[T]
        assert np.sign(blocks) == np.sign(np.linalg.eigvalsh(reduced).min()) == sign


def test_solve_info_reports_blocks_and_variables_on_the_ipm_path():
    pe = sos.solve(sos.relax(_planted(4, 3, 0.5, 1001), 4))
    info = pe.solve_info
    assert info["method"] == "ipm"
    assert (info["blocks"], info["variables"]) == ([31, 21], 160)
    assert sos.invariant_sizes(6, 3, 4) == (160, (31, 21))


def test_certificate_builds_no_problem():
    rel = sos.relax(_planted(6, 3, 0.0, 1), 4)
    info = sos.solve(rel).solve_info
    assert info["source"] == "warm_certificate" and info["objective"] == info["warm_value"]
    assert "problem" not in vars(rel) and "blocks" not in info and "variables" not in info


@pytest.mark.parametrize("n,q,D,inside", [
    (5, 3, 4, True),    # m 1590, blocks 91 and 55: inside since the invariant count
    (4, 4, 6, True),    # m 1023, largest block 176
    (6, 3, 4, False),   # m 9310
    (8, 2, 4, False),   # m 20853, block 379
])
def test_budget_is_counted_in_closed_form(n, q, D, inside):
    m, sides = sos.invariant_sizes(math.comb(n, 2), q, D)
    assert (m <= 2400 and max(sides) <= 260) == inside
