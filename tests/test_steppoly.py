import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugjohnson.steppoly import ConstantStep, build, markov_bounds_check


@pytest.fixture(scope="module")
def p_half():
    return build(0.5, 0.1)


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build(0.5, 0.6)   # nu >= beta
    with pytest.raises(ValueError):
        build(0.95, 0.1)  # beta + nu >= 1


def test_endpoint_values(p_half):
    assert p_half(0.0) <= 0.1
    assert p_half(1.0) >= 0.9
    assert p_half(0.5) <= 0.1           # p(beta) <= nu
    assert p_half(0.6) >= 0.9           # p(beta + nu) >= 1 - nu


def test_monotone_through_transition(p_half):
    assert p_half(0.52) <= p_half(0.55) <= p_half(0.58)


def test_range_on_dense_grid(p_half):
    xs = np.linspace(0, 1, 5000)
    v = p_half(xs)
    assert v.min() >= -1e-9 and v.max() <= 1 + 1e-9


def test_markov_bounds(p_half):
    rep = markov_bounds_check(p_half)
    assert rep["markov_lower_ok"] and rep["markov_upper_ok"]
    # x = 1: lower bound reads p(1) >= 1 - nu; x = 0: upper reads p(0) <= nu
    assert p_half(1.0) >= 1 - 0.1 - 1e-9
    assert p_half(0.0) <= 0.1 + 1e-9


def test_composition_bound(p_half):
    xs = np.linspace(0, 1, 4000)
    assert np.all(xs <= p_half(xs) + 0.5 + 3 * 0.1 + 1e-9)


def test_complement_mirror(p_half):
    comp = p_half.complement()
    xs = np.linspace(0, 1, 1000)
    v = comp(xs)
    assert v.min() >= -1e-9 and v.max() <= 1 + 1e-9
    assert comp(0.3) >= 0.9 and comp(0.8) <= 0.1


def test_translation_consistency(p_half):
    q = p_half.shifted(0.2)
    xs = np.linspace(0.0, 0.79, 500)
    assert np.abs(q(xs) - p_half(xs + 0.2)).max() < 1e-12


def test_degenerate_shift(p_half):
    c = p_half.shifted(0.9)
    assert isinstance(c, ConstantStep) and c.degenerate
    assert c(0.0) == 1.0 and c(1.0) == 1.0
    c2 = p_half.shifted(-0.6)
    assert c2.degenerate and c2(0.5) == 0.0


def test_all_acceptance_parameters_verify():
    for beta in (0.3, 0.5, 0.7):
        for nu in (0.05, 0.1):
            p = build(beta, nu)
            rep = p.meta["verification"]
            assert rep["ok"], (beta, nu, rep)
            assert p.degree <= p.meta["degree_cap"]
            assert "log2_monomial_coeff_bound" in p.meta


@given(st.floats(0.25, 0.7), st.floats(0.05, 0.12))
@settings(max_examples=8, deadline=None)
def test_build_verifies_for_generic_parameters(beta, nu):
    if not (nu < beta and beta + nu < 1):
        return
    p = build(round(beta, 3), round(nu, 3))
    assert p.meta["verification"]["ok"]
