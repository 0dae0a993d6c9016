"""The label-0 expansion as it was built on the monomial algebra, one variable
at a time through `mul`, kept as a reference oracle for `sos.reduced_terms`."""

from ugjohnson.monomials import ONE, ZERO, mul, var


def _expand_var(u, a, q):
    if a != 0:
        return ((var(u, a), 1.0),)
    return ((ONE, 1.0),) + tuple((var(u, b), -1.0) for b in range(1, q))


def expand_label0(m, q):
    """Rewrite a single-copy monomial over the reduced basis (labels >= 1)."""
    out = {ONE: 1.0}
    for (c, u, a) in m:
        if c != 0:
            raise ValueError("reduced-basis expansion is per copy")
        nxt = {}
        for mm, cc in out.items():
            for em, ec in _expand_var(u, a, q):
                r = mul(mm, em)
                if r is ZERO:
                    continue
                nxt[r] = nxt.get(r, 0.0) + cc * ec
        out = nxt
    return out
