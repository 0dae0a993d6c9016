"""Phi and the local joints as the moment path evaluated them before
`ProductPE.joint`: one scalar moment of the product per monomial, each summed
over the event polynomial term by term, kept as reference oracles."""

import itertools

import numpy as np

from ugjohnson.monomials import canon, poly_mul
from ugjohnson.sos import clamp_distribution, density_poly


def phi_moments(prod, inst, verts):
    """Plain-mode Phi on moments: sum_s pE[delta(G_s)^2], densities over verts."""
    return sum(prod.pE(poly_mul(d, d))
               for d in (density_poly(inst, verts, s) for s in range(prod.q)))


def y_joint(prod, u, v):
    """The (X_u, X_v, X'_u, X'_v) joint, one moment per cell, clamped as a
    moment joint is."""
    q = prod.q
    cells = [prod.moment(canon([(0, u, a), (0, v, b), (1, u, c), (1, v, d)]))
             for a, b, c, d in itertools.product(range(q), repeat=4)]
    return clamp_distribution(np.asarray(cells)).reshape((q,) * 4)


def joint(prod, t0, t1):
    """pE[X_{t0} X'_{t1}] over every label of one vertex tuple per copy, one
    moment per cell, unclamped."""
    q, k = prod.q, len(t0)
    cells = [prod.moment(canon([(0, u, a) for u, a in zip(t0, x[:k])] +
                               [(1, u, a) for u, a in zip(t1, x[k:])]))
             for x in itertools.product(range(q), repeat=k + len(t1))]
    return np.asarray(cells).reshape((q,) * (k + len(t1)))
