"""Phi and the local joints as the moment path evaluated them before
`ProductPE.joint`: one scalar moment of the product per monomial, each summed
over the event polynomial term by term, kept as reference oracles.  The scalar
`moment` methods keep no cache, so the oracles memoise them on the objects
they read."""

import functools
import itertools

import numpy as np

from ugjohnson.monomials import ZERO, canon, poly_mul
from ugjohnson.sos import clamp_distribution, density_poly


def memoised(pe):
    """pe, with the scalar moment of it and of every pseudoexpectation it wraps
    memoised on the instance."""
    if pe is not None and "moment" not in vars(pe):
        pe.moment = functools.lru_cache(maxsize=None)(pe.moment)
        for attr in ("pe1", "pe2", "base", "prod"):
            memoised(getattr(pe, attr, None))
    return pe


def pE(pe, p):
    """sum_m c_m pE[m], one scalar moment per monomial."""
    moment = memoised(pe).moment
    return sum(c * moment(m) for m, c in p.items() if m is not ZERO and c != 0.0)


def phi_moments(prod, inst, verts):
    """Plain-mode Phi on moments: sum_s pE[delta(G_s)^2], densities over verts."""
    return sum(pE(prod, poly_mul(d, d))
               for d in (density_poly(inst, verts, s) for s in range(prod.q)))


def y_joint(prod, u, v):
    """The (X_u, X_v, X'_u, X'_v) joint, one moment per cell, clamped as a
    moment joint is."""
    q, moment = prod.q, memoised(prod).moment
    cells = [moment(canon([(0, u, a), (0, v, b), (1, u, c), (1, v, d)]))
             for a, b, c, d in itertools.product(range(q), repeat=4)]
    return clamp_distribution(np.asarray(cells)).reshape((q,) * 4)


def joint(prod, t0, t1):
    """pE[X_{t0} X'_{t1}] over every label of one vertex tuple per copy, one
    moment per cell, unclamped."""
    q, k, moment = prod.q, len(t0), memoised(prod).moment
    cells = [moment(canon([(0, u, a) for u, a in zip(t0, x[:k])] +
                          [(1, u, a) for u, a in zip(t1, x[k:])]))
             for x in itertools.product(range(q), repeat=k + len(t1))]
    return np.asarray(cells).reshape((q,) * (k + len(t1)))
