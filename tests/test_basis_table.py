"""The basis-product table against the pair loops it replaced.

The reduced-basis relaxation (now the oracle in reduced_oracle.py),
moment_matrix and validate's reduced fallback each used to multiply every
pair of basis monomials in Python, and product_table itself did too before it
ranked them with sos._class_index.  Those loops are kept here as reference
oracles, and the table and the arrays built from it must equal theirs
exactly, in both label bases.
"""

import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import ONE, ZERO, mul, var

from label0_oracle import expand_label0
from reduced_oracle import reduced_problem

CASES = [(n, q, D) for n in (4, 5, 6) for q in (2, 3) for D in (2, 4)]
IDS = [f"J({n},2,1)-q{q}-D{D}" for n, q, D in CASES]


def _instance(n, q):
    inst, _ = ug_core.plant(johnson.build(n, 2, 0.5), q, ug_core.PlantedSpec(0.3, n * 10 + q))
    return inst


def _monomials(n, q, max_deg, lo):
    out = [ONE]
    for k in range(1, max_deg + 1):
        for verts in itertools.combinations(range(n), k):
            for labels in itertools.product(range(lo, q), repeat=k):
                out.append(tuple(sorted((0, u, a) for u, a in zip(verts, labels))))
    return out


def _class_vec(p, q, class_index, n_classes):
    vec = np.zeros(n_classes)
    for m, c in p.items():
        for mm, cc in expand_label0(m, q).items():
            vec[class_index[mm]] += c * cc
    return vec


def reference_problem(inst, D):
    n, q = inst.vertex_count, inst.q
    basis = _monomials(n, q, D // 2, 1)
    classes = _monomials(n, q, D, 1)
    class_index = {m: k for k, m in enumerate(classes)}
    B = len(basis)
    ei, ej, ek = [], [], []
    ci, cj = [], []
    for i in range(B):
        for j in range(i, B):
            pm = mul(basis[i], basis[j])
            if pm is ZERO:
                continue
            k = class_index[pm]
            targets = [(i, j)] if i == j else [(i, j), (j, i)]
            for (a, b) in targets:
                if k == 0:
                    ci.append(a), cj.append(b)
                else:
                    ei.append(a), ej.append(b), ek.append(k)
    cvec = _class_vec(sos.val_poly(inst), q, class_index, len(classes))
    G = g0 = None
    if D == 2:
        rows, consts = [], []
        for (u, v) in itertools.combinations(range(n), 2):
            for a in range(q):
                for b in range(q):
                    vec = _class_vec({mul(var(u, a), var(v, b)): 1.0}, q,
                                     class_index, len(classes))
                    rows.append(vec[1:])
                    consts.append(vec[0])
        G, g0 = np.asarray(rows), np.asarray(consts)
    return classes, {
        "side": B, "n_classes": len(classes),
        "entry_i": np.asarray(ei, dtype=np.int64), "entry_j": np.asarray(ej, dtype=np.int64),
        "entry_k": np.asarray(ek, dtype=np.int64),
        "const_i": np.asarray(ci, dtype=np.int64), "const_j": np.asarray(cj, dtype=np.int64),
        "c": cvec, "uniform_y": np.asarray([q ** (-len(m)) for m in classes]),
        "G": G, "g0": g0}


def reference_table(n, q, h, reduced):
    lo = 1 if reduced else 0
    basis = _monomials(n, q, h, lo)
    index = {m: k for k, m in enumerate(_monomials(n, q, 2 * h, lo))}
    T = np.empty((len(basis), len(basis)), dtype=np.int64)
    for i, j in itertools.combinations_with_replacement(range(len(basis)), 2):
        pm = mul(basis[i], basis[j])
        T[i, j] = T[j, i] = -1 if pm is ZERO else index[pm]
    return T


def reference_matrix(basis, value):
    B = len(basis)
    M = np.empty((B, B))
    for i in range(B):
        for j in range(i, B):
            pm = mul(basis[i], basis[j])
            M[i, j] = M[j, i] = 0.0 if pm is ZERO else value(pm)
    return M


def _solved_like(n, q, D, seed):
    """A SolvedPE over arbitrary reduced moments: the matrices need no valid table."""
    rng = np.random.default_rng(seed)
    classes = _monomials(n, q, D, 1)
    table = {m: (1.0 if m == ONE else float(rng.random())) for m in classes}
    return sos.SolvedPE(n, q, D, list(table.values()))


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n,q,D", CASES, ids=IDS)
def test_relax_matches_pair_loop(n, q, D):
    inst = _instance(n, q)
    rel = sos.relax(inst, D)
    classes, ref = reference_problem(inst, D)
    prob = reduced_problem(inst, D)
    assert list(rel.classes) == classes
    assert (prob.side, prob.n_classes) == (ref["side"], ref["n_classes"])
    for key in ("entry_i", "entry_j", "entry_k", "c", "uniform_y"):
        _assert_same(getattr(prob, key), ref[key])
    _assert_same(prob.const_entries[0], ref["const_i"])
    _assert_same(prob.const_entries[1], ref["const_j"])
    if D == 2:
        _assert_same(prob.G, ref["G"])
        assert prob.G.flags.c_contiguous
        _assert_same(prob.g0, ref["g0"])
    else:
        assert prob.G is None and ref["G"] is None


class _Lookup(sos.PseudoExpectation):
    """Arbitrary full-label moments from a dict, so the matrices cost no expansion."""

    def __init__(self, n, q, D, seed):
        rng = np.random.default_rng(seed)
        self.n_vertices, self.q, self._degree = n, q, D
        self.table = {m: float(rng.random()) for m in _monomials(n, q, D, 0)}

    @property
    def degree(self):
        return self._degree

    def moment(self, m):
        return self.table[m]

    def _fill_label_moments(self, d):
        """Every class's moment as one flat block, in class order."""
        classes = sos.monomial_classes(self.n_vertices, self.q, d, False)
        return [np.fromiter(map(self.moment, classes), float, len(classes))]


def test_relax_builds_no_degree_D_classes(monkeypatch):
    # J(8,2,1) q=3 D=4 has 355,377 reduced classes, which the reduced-basis
    # assembly never reads; Relaxation.classes lists them on demand
    seen, real = [], sos.monomial_classes
    monkeypatch.setattr(sos, "monomial_classes",
                        lambda n, q, d, reduced: seen.append(d) or real(n, q, d, reduced))
    inst, _ = ug_core.plant(johnson.build(8, 2, 0.5), 3, ug_core.PlantedSpec(0.05, 1))
    sos.relax(inst, 4)
    assert 4 not in seen and reduced_problem(inst, 4).n_classes == 355_377


@pytest.mark.parametrize("n,q,D", CASES, ids=IDS)
def test_moment_matrix_matches_pair_loop(n, q, D):
    pe = _Lookup(n * (n - 1) // 2, q, D, seed=n + q + D)
    M, basis = sos.moment_matrix(pe)
    assert basis == _monomials(pe.n_vertices, q, D // 2, 0)
    _assert_same(M, reference_matrix(basis, pe.moment))


@pytest.mark.parametrize("n,q,D", CASES, ids=IDS)
def test_reduced_fallback_matches_pair_loop(n, q, D):
    nv = n * (n - 1) // 2
    pe = _solved_like(nv, q, D, seed=nv + q + D)
    rep = sos.validate(pe, side_cap=1)  # every full-label matrix is over the cap
    M = reference_matrix(_monomials(nv, q, D // 2, 1), pe.table.__getitem__)
    assert rep["moment_matrix_basis"] == "reduced"
    assert rep["moment_matrix_side"] == len(M)
    assert rep["min_eig"] == float(np.linalg.eigvalsh(M).min())


def test_product_table_is_read_only_and_cached():
    T = sos.product_table(6, 3, 2, True)
    assert T is sos.product_table(6, 3, 2, True)
    with pytest.raises(ValueError):
        T[0, 0] = 1
    assert T[0, 0] == 0 and T[1, 2] == -1  # X_{0,1} X_{0,2} annihilates


# J(5,2,1) q=2 and J(4,2,1) q=3 at half-degree 3 (their degree-6 relaxations),
# both bases, and J(8,2,1) q=2 at half-degree 2, reduced (the warm-start table)
TABLES = [(10, 2, 3, True), (10, 2, 3, False), (6, 3, 3, True), (6, 3, 3, False),
          (28, 2, 2, True)]


@pytest.mark.parametrize("n,q,h,reduced", TABLES,
                         ids=[f"n{n}-q{q}-h{h}-{'R' if r else 'F'}" for n, q, h, r in TABLES])
def test_product_table_matches_pair_loop(n, q, h, reduced):
    _assert_same(sos.product_table(n, q, h, reduced), reference_table(n, q, h, reduced))


def test_product_table_multiplies_no_monomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("product_table called the monomial algebra")
    want = {reduced: reference_table(6, 3, 2, reduced) for reduced in (True, False)}
    sos.product_table.cache_clear()
    monkeypatch.setattr(sos, "mul", refuse)
    monkeypatch.setattr(sos.mon, "canon", refuse)  # every path into the algebra
    for reduced in (True, False):
        _assert_same(sos.product_table(6, 3, 2, reduced), want[reduced])
