"""Label-0 expansion and the rewrites that skip `canon`, against the monomial algebra.

`sos.reduced_terms` must give the terms of the `mul`-built expansion in its
order, so every sum over them is bitwise the same; the label shift and the
copy injection build canonical tuples directly and must match `canon`.
"""

import numpy as np
import pytest

from ugjohnson import sos
from ugjohnson.monomials import ONE, ZERO, EventPoly, canon, mul

from label0_oracle import expand_label0


def _random_table(n, q, D, seed):
    rng = np.random.default_rng(seed)
    return {m: 1.0 if m == ONE else float(rng.random())
            for m in sos.monomial_classes(n, q, D, True)}


def _random_monomials(rng, n, q, copies, max_side, count):
    """Canonical monomials with up to max_side variables of each copy in `copies`."""
    out = []
    for _ in range(count):
        vs = []
        for c in copies:
            k = int(rng.integers(0, max_side + 1))
            vs += [(c, int(u), int(rng.integers(0, q)))
                   for u in rng.choice(n, size=k, replace=False)]
        out.append(canon(vs))
    return out


@pytest.mark.parametrize("n,q", [(6, 3), (10, 2), (7, 4)])
def test_reduced_terms_match_mul_expansion(n, q):
    for m in sos.monomial_classes(n, q, 4, False):
        terms = sos.reduced_terms(m, q)
        assert terms == list(expand_label0(m, q).items())
        assert all(type(s) is float for _, s in terms)


def test_solved_moment_bitwise_equals_oracle_sum():
    n, q, D = 6, 3, 4
    table = _random_table(n, q, D, seed=7)
    pe = sos.SolvedPE(n, q, D, list(table.values()))
    for m in sos.monomial_classes(n, q, D, False):
        ref = 0.0
        for mm, cc in expand_label0(m, q).items():
            ref += cc * table[mm]
        assert pe.moment(m) == ref


def _solved(n, q, D, seed):
    return sos.SolvedPE(n, q, D, list(_random_table(n, q, D, seed).values()))


def _shift_reference(base, m):
    tot = 0.0
    for s in range(base.q):
        tot += base.moment(canon((c, u, (a + s) % base.q) for (c, u, a) in m))
    return tot / base.q


def test_shift_symmetrized_single_matches_canon():
    n, q = 6, 3
    base = _solved(n, q, 4, seed=1)
    pe = sos.ShiftSymmetrizedPE(base)
    for m in _random_monomials(np.random.default_rng(2), n, q, (0,), 4, 200):
        assert pe.moment(m) == _shift_reference(base, m)


def _conditioned_product(n, q):
    prod = sos.ProductPE(_solved(n, q, 4, seed=3), _solved(n, q, 4, seed=4))
    event = EventPoly({ONE: 1.0, ((0, 0, 1), (1, 0, 0)): 0.5})  # pE >= 1/2 on any table
    return prod.condition(event)


def _marginal_reference(prod, copy, m):
    """prod's moment at the single-copy monomial m put on copy `copy`, from
    its factors with canon: (1/z) sum_e c_e pE_0[e_0 ...] pE_1[e_1 ...] over
    the event's terms e, with m multiplied into the side `copy`."""
    tot = 0.0
    for e, c in (prod.event.poly if prod.event is not None else {ONE: 1.0}).items():
        sides = [canon((0, u, a) for (cc, u, a) in e if cc == side) for side in (0, 1)]
        sides[copy] = mul(m, sides[copy])
        if sides[copy] is not ZERO:
            tot += c * (prod.pe1.moment(sides[0]) * prod.pe2.moment(sides[1]))
    return tot / prod.z


@pytest.mark.parametrize("conditioned", [False, True], ids=["plain", "conditioned"])
@pytest.mark.parametrize("copy", [0, 1])
def test_product_marginal_matches_canon(copy, conditioned):
    # the product's moments on one copy: split_copies takes the copy apart
    # without canon and must give the canon-built factor moments bitwise
    n, q = 5, 3
    prod = _conditioned_product(n, q)
    if not conditioned:
        prod = sos.ProductPE(prod.pe1, prod.pe2)
    for m in _random_monomials(np.random.default_rng(6 + copy), n, q, (0,), 2, 200):
        injected = canon((copy, u, a) for (_, u, a) in m)
        assert prod.moment(injected) == _marginal_reference(prod, copy, m)
