"""The degree-D moment SDP over every table, in the reduced basis (labels
1..q-1, label 0 eliminated), as `sos.relax` assembled it before it moved to
the shift-invariant Fourier moments.  Kept as the reference problem: its IPM
optimum is the one the invariant problem must reach, and `product_table`,
`reduced_terms` and `_class_index` are checked through it."""

import numpy as np

from ugjohnson import sos
from ugjohnson.sdp import MomentSDP


def reduced_problem(inst, D):
    """The reduced-basis MomentSDP: one real block over the reduced classes of
    degree <= D/2, y in monomial_classes(n, q, D, True) order; at D = 2 one
    nonnegativity row per full-label pair X_{u,a} X_{v,b}, u < v."""
    n, q = inst.vertex_count, inst.q
    T = sos.product_table(n, q, D // 2, True)
    B = len(T)
    # basis pairs i <= j in row order, each off-diagonal one as (i, j) then (j, i)
    iu, ju = np.triu_indices(B)
    k = T[iu, ju]
    iu, ju, k = iu[k >= 0], ju[k >= 0], k[k >= 0]
    keep = np.column_stack([np.ones(len(k), dtype=bool), iu != ju]).ravel()
    ei = np.column_stack([iu, ju]).ravel()[keep].astype(np.int64)
    ej = np.column_stack([ju, iu]).ravel()[keep].astype(np.int64)
    ek = np.repeat(k, 2)[keep]
    const = ek == 0
    # over the classes, row 0 the objective and, at D = 2, one row per full-label
    # pair X_{u,a} X_{v,b}, u < v: each term's reduced_terms ranked, added in order
    pairs = sos.monomial_classes(n, q, 2, False)[1 + n * q:] if D == 2 else ()
    terms = [(r, mm, c * cc)
             for r, p in enumerate([sos.val_poly(inst)] + [{m: 1.0} for m in pairs])
             for m, c in p.items() for mm, cc in sos.reduced_terms(m, q)]
    rows = np.zeros((1 + len(pairs), sos._reduced_count(n, q, D)))
    np.add.at(rows, (np.asarray([t[0] for t in terms], dtype=np.int64),
                     sos._class_index(sos._id_rows([t[1] for t in terms], n, q), n, q, True)),
              [t[2] for t in terms])
    G, g0 = (np.ascontiguousarray(rows[1:, 1:]), rows[1:, 0].copy()) if D == 2 else (None, None)
    return MomentSDP(side=B, n_classes=rows.shape[1],
                     entry_i=ei[~const], entry_j=ej[~const], entry_k=ek[~const],
                     const_entries=(ei[const], ej[const]),
                     c=rows[0].copy(), uniform_y=sos.uniform_reduced_table(n, q, D), G=G, g0=g0)
