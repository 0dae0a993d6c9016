"""The basis-product table and validate's moment matrix against the pair loops
they replaced.

The reduced-basis relaxation (now the oracle in reduced_oracle.py) and
validate's moment matrix each used to multiply every pair of basis monomials
in Python, and product_table itself did too before it ranked them with
sos._class_index.  Those loops are kept here as reference oracles, and the
table and the arrays built from it must equal theirs exactly.  validate reads
one matrix for every table kind, the reduced basis (labels >= 1) at the
table's own half-degree, capped at 3: pE[m m'] over reduced monomials m, m'.
"""

import itertools

import numpy as np
import pytest

from ugjohnson import johnson, sos, ug_core
from ugjohnson.monomials import ONE, ZERO, EventPoly, mul, var

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


def reference_table(n, q, h):
    basis = _monomials(n, q, h, 1)
    index = {m: k for k, m in enumerate(_monomials(n, q, 2 * h, 1))}
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


def _reduced_reference(pe):
    """The smallest eigenvalue and side of the reduced pair-loop matrix of a
    single copy at half-degree min(D/2, 3), from its scalar moments."""
    h = min(pe.degree // 2, 3)
    M = reference_matrix(_monomials(pe.n_vertices, pe.q, h, 1), pe.moment)
    return float(np.linalg.eigvalsh(M).min()), len(M)


@pytest.mark.parametrize("n,q,D", CASES, ids=IDS)
def test_moment_matrix_matches_pair_loop(n, q, D):
    # arbitrary full-label moments: validate reads them at labels >= 1 through
    # the base class's reduced_moments
    pe = _Lookup(n * (n - 1) // 2, q, D, seed=n + q + D)
    rep = sos.validate(pe)
    assert (rep["min_eig"], rep["moment_matrix_side"]) == _reduced_reference(pe)


@pytest.mark.parametrize("n,q,D", CASES, ids=IDS)
def test_reduced_fallback_matches_pair_loop(n, q, D):
    # a SolvedPE's matrix is the prefix of y through the reduced product table
    nv = n * (n - 1) // 2
    pe = _solved_like(nv, q, D, seed=nv + q + D)
    rep = sos.validate(pe)
    M = reference_matrix(_monomials(nv, q, D // 2, 1), pe.table.__getitem__)
    assert rep["moment_matrix_side"] == len(M)
    assert rep["min_eig"] == float(np.linalg.eigvalsh(M).min())


def _kinds():
    """One table of every kind on 6 vertices, q = 3: each a factory, so that a
    failing build names its case."""
    n, q = 6, 3
    solved = {D: _solved_like(n, q, D, seed=D) for D in (2, 4, 6)}
    x = np.random.default_rng(3).integers(0, q, (3, n))
    mix = sos.mixture([(sos.from_assignment(xi, q), w) for xi, w in zip(x, (0.5, 0.3, 0.2))])
    event = EventPoly({mul(var(0, 1), var(1, 2)): 1.0})
    return {
        "solved-D2": lambda: solved[2],
        "solved-D4": lambda: solved[4],
        "solved-D6": lambda: solved[6],
        "product": lambda: sos.ProductPE(solved[4], solved[6]),
        "conditioned": lambda: sos.condition(solved[6], event),
        "shift-symmetrized": lambda: sos.shift_symmetrize(mix),
        "mixture": lambda: mix,
    }


KINDS = _kinds()


@pytest.mark.parametrize("kind", list(KINDS))
def test_validate_reads_the_reduced_matrix_of_every_table_kind(kind):
    # a product is refused and validated through its factors
    pe = KINDS[kind]()
    if pe.mode == "product":
        with pytest.raises(ValueError):
            sos.validate(pe)
    for copy in [pe] if pe.mode == "single" else [pe.pe1, pe.pe2]:
        rep = sos.validate(copy)
        assert isinstance(rep["min_eig"], float)
        assert (rep["min_eig"], rep["moment_matrix_side"]) == _reduced_reference(copy)


def test_product_table_is_read_only_and_cached():
    T = sos.product_table(6, 3, 2)
    assert T is sos.product_table(6, 3, 2)
    with pytest.raises(ValueError):
        T[0, 0] = 1
    assert T[0, 0] == 0 and T[1, 2] == -1  # X_{0,1} X_{0,2} annihilates


# J(5,2,1) q=2 and J(4,2,1) q=3 at half-degree 3 (their degree-6 relaxations),
# and J(8,2,1) q=2 at half-degree 2 (the warm-start table)
TABLES = [(10, 2, 3), (6, 3, 3), (28, 2, 2)]


@pytest.mark.parametrize("n,q,h", TABLES, ids=[f"n{n}-q{q}-h{h}-R" for n, q, h in TABLES])
def test_product_table_matches_pair_loop(n, q, h):
    _assert_same(sos.product_table(n, q, h), reference_table(n, q, h))


def test_product_table_multiplies_no_monomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("product_table called the monomial algebra")
    want = reference_table(6, 3, 2)
    sos.product_table.cache_clear()
    monkeypatch.setattr(sos, "mul", refuse)
    monkeypatch.setattr(sos.mon, "canon", refuse)  # every path into the algebra
    _assert_same(sos.product_table(6, 3, 2), want)
