"""Dense SDP solvers for entry-sharing moment problems.

Problem form:  maximize  c . y   subject to   M_b(y) >= 0 (PSD) for every
diagonal block b of the moment matrix,  G y + g0 >= 0,  with y[0] = 1 fixed.
The blocks are Hermitian, and every entry of a block equals one coordinate
yh[k] (the moment-matrix structure: entries sharing a monomial class share a
coordinate).  Coordinates come in conjugate pairs yh[conj[k]] = conj(yh[k]);
the real unknowns are their parts, y[k] = Re yh[k] and y[conj[k]] = Im yh[k]
for k < conj[k], and y[k] = yh[k] when conj[k] = k.  A problem without conj
is real: yh = y and every block is real symmetric.

Two methods:
  * a primal-dual interior-point method (HKM direction, Mehrotra-style
    centering) with a certified duality gap, for small/medium problems;
  * a budgeted ADMM splitting with a PSD-projection step and a validity
    repair (mixing toward the uniform-moment interior point), for real
    problems.  Nothing in the library calls it: over the Schur budget
    `sos.solve` returns the warm start.  `solve_admm`, `repair_psd` and
    `MomentSDP.class_average` / `class_count` stay only because the
    benchmark's tracer (bench/tracing.py, bench/run.py) looks the solver
    functions up by name.

Both are deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class MomentSDP:
    side: int                      # side of the block-diagonal moment matrix
    n_classes: int                 # coordinates incl. coordinate 0 (the constant)
    entry_i: np.ndarray            # ordered entry positions (both (i,j) and (j,i);
    entry_j: np.ndarray            #   diagonal once), coordinate 0 entries excluded
    entry_k: np.ndarray            # coordinate per entry, in 1..n_classes-1
    const_entries: tuple           # (i_array, j_array) of coordinate-0 entries (value 1)
    c: np.ndarray                  # objective over the real unknowns (c[0] a constant term)
    uniform_y: np.ndarray          # strictly feasible y (M PD, G y + g0 > 0):
                                   #   IPM start, ADMM default start, PSD-repair target
    G: Optional[np.ndarray] = None    # linear inequalities G y + g0 >= 0 (over y[1:])
    g0: Optional[np.ndarray] = None
    blocks: Optional[tuple] = None    # sides of the diagonal blocks in order; None: one
    conj: Optional[np.ndarray] = None  # conj[k]: the coordinate conjugate to k; None: real
    class_count: np.ndarray = field(default=None)  # entries per class (for averaging)

    def __post_init__(self):
        if self.blocks is None:
            self.blocks = (self.side,)
        if self.class_count is None:
            self.class_count = np.bincount(self.entry_k, minlength=self.n_classes)

    @property
    def m(self) -> int:
        return self.n_classes - 1

    def coords(self, y: np.ndarray) -> np.ndarray:
        """The coordinates yh of the real unknowns y."""
        if self.conj is None:
            return y
        k = np.arange(self.n_classes)
        lo, hi = np.minimum(k, self.conj), np.maximum(k, self.conj)
        return y[lo] + 1j * np.sign(self.conj - k) * y[hi]

    def assemble(self, y: np.ndarray) -> np.ndarray:
        """M(y), all blocks on the diagonal, for a full vector y (y[0] should be 1)."""
        yh = self.coords(y)
        M = np.zeros((self.side, self.side), dtype=yh.dtype)
        M[self.entry_i, self.entry_j] = yh[self.entry_k]
        ci, cj = self.const_entries
        M[ci, cj] = yh[0]
        return M

    def class_average(self, W: np.ndarray) -> np.ndarray:
        """Project a matrix onto the structure subspace: average entries per class."""
        y = np.zeros(self.n_classes)
        sums = np.bincount(self.entry_k, weights=W[self.entry_i, self.entry_j],
                           minlength=self.n_classes)
        cnt = np.maximum(self.class_count, 1)
        y = sums / cnt
        y[0] = 1.0
        return y


def real_coefficients(f: np.ndarray, conj: Optional[np.ndarray]) -> np.ndarray:
    """The coefficients on the real unknowns y of the functional yh -> Re f . yh
    (over f's last axis).  With yh[k] = y[k] + i y[p] and yh[p] = y[k] - i y[p]
    for k < p = conj[k], y[k] gets Re(f[k] + f[p]) and y[p] gets Im(f[p] - f[k])."""
    if conj is None:
        return np.real(f)
    k = np.arange(len(conj))
    fp = f[..., conj]
    return np.where(k < conj, (f + fp).real, np.where(k > conj, (f - fp).imag, f.real))


@dataclass
class SDPResult:
    y: np.ndarray
    objective: float
    gap: float
    primal_residual: float
    iterations: int
    method: str
    status: str
    min_eig: float = float("nan")


def _inv_chol(S: np.ndarray) -> np.ndarray:
    """L^{-1} for the Cholesky factor S = L L^H; LinAlgError when S is not numerically PD."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _max_step_psd(Li: np.ndarray, dS: np.ndarray) -> float:
    """Largest alpha in (0,1] with S + alpha dS still PD (0.98 safety); Li = _inv_chol(S)."""
    W = Li @ dS @ Li.conj().T
    lam = np.linalg.eigvalsh((W + W.conj().T) / 2).min()
    if lam >= 0:
        return 1.0
    return min(1.0, -0.98 / lam)


def _max_step_pos(t: np.ndarray, dt: np.ndarray) -> float:
    neg = dt < 0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-0.98 * t[neg] / dt[neg])))


# Bytes of B x B products and Schur rows that the Schur build holds at once.
# Sized to stay in a core's L2 cache: on a Xeon with 2 MB of L2 a core, 2 MB
# blocks built the side-73 D=4 Schur matrix in 11 ms where 8 MB took 18 ms, and
# the side-121 one in 0.24 s where 0.5 MB took 0.48 s.
_SCHUR_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class _BlockPlan:
    """One diagonal block's entries and index tables, built once per solve.

    entry_i, entry_j are local to the block.  The block's classes (its
    coordinates but 0) are laid out by descending entry count, in runs: for a
    real problem one run; otherwise the classes k < conj[k], the real ones,
    and then each first run class's conjugate in the same order (n_lo,
    n_real: the first two runs' lengths); `unknowns` names each as a 0-based
    unknown.  A chunk (lo, hi, rows, cols) lists the entries (i, j) of
    classes lo..hi-1, padded to the chunk's widest class with (0, B), which
    hits the zero last row and column of the padded X.  flat[s] holds entry s
    of every class at i*(B+1) + j; in a run (start, width), the first
    width[s] classes have one.
    """
    side: int
    entry_i: np.ndarray
    entry_j: np.ndarray
    entry_k: np.ndarray
    const_entries: tuple
    unknowns: np.ndarray
    chunks: tuple
    flat: np.ndarray
    runs: tuple
    n_lo: int
    n_real: int
    complex: bool

    def assemble(self, yh: np.ndarray) -> np.ndarray:
        M = np.zeros((self.side, self.side), dtype=yh.dtype)
        M[self.entry_i, self.entry_j] = yh[self.entry_k]
        M[self.const_entries] = yh[0]
        return M

    def gather(self, X: np.ndarray, n_classes: int) -> np.ndarray:
        """The sum of X over each coordinate's entries."""
        v = X[self.entry_i, self.entry_j]
        g = np.bincount(self.entry_k, v.real, n_classes)
        return g + 1j * np.bincount(self.entry_k, v.imag, n_classes) if self.complex else g

    def real_gram(self, C: np.ndarray) -> np.ndarray:
        """Re R^T C conj(R) for the coordinates yh = R y of the block's classes
        (C itself when real), overwriting C: runs [l | r | h] pair class l_i
        with h_i, and the unknowns Re yh[l_i], Im yh[l_i] take their places.
        conj(R) adds the h columns to the l columns and leaves i (h - l) in
        the h columns; R^T does the same to the rows."""
        if not self.complex:
            return C
        l, h = slice(0, self.n_lo), slice(self.n_lo + self.n_real, None)
        for L, Hh in ((C[:, l], C[:, h]), (C[l], C[h])):
            L += Hh
            Hh *= 2
            Hh -= L
        K = C.real.copy()   # the i of the h rows and columns: Re(i z) = -Im z
        K[h] = C[h].imag
        K[:, h] = -C[:, h].imag
        K[h, h] = C[h, h].real
        return K


@dataclass(frozen=True)
class _SchurPlan:
    """The blocks' plans.  The Schur matrix is built over the unknowns in
    `order`: the lead (largest) block's classes first, in its own order, so
    that its share adds in place; positions[b] places block b's classes.  The
    nonzero products G[r,k] G[r,l] are listed once, at flat k*m + l of that
    order."""
    blocks: tuple
    positions: tuple
    lead: int
    order: np.ndarray
    pair_flat: np.ndarray
    pair_val: np.ndarray
    pair_row: np.ndarray


def _padded_by_row(r: np.ndarray, n_rows: int, *columns: np.ndarray, fill: tuple) -> list:
    """Scatter values grouped by ascending row r into (n_rows, widest row) arrays."""
    counts = np.bincount(r, minlength=n_rows)
    slot = np.arange(len(r)) - np.concatenate(([0], np.cumsum(counts)[:-1]))[r]
    width = int(counts.max(initial=1))
    out = []
    for col, f in zip(columns, fill):
        a = np.full((n_rows, width), f, dtype=col.dtype)
        a[r, slot] = col
        out.append(a)
    return out


def _block_plan(prob: MomentSDP, lo: int, B: int) -> _BlockPlan:
    sel = (prob.entry_i >= lo) & (prob.entry_i < lo + B)
    I, J, K = prob.entry_i[sel] - lo, prob.entry_j[sel] - lo, prob.entry_k[sel]
    ci, cj = prob.const_entries
    csel = (ci >= lo) & (ci < lo + B)
    coords, count = np.unique(K, return_counts=True)

    def by_count(idx):
        return idx[np.argsort(-count[idx], kind="stable")]

    if prob.conj is None:
        runs = [by_count(np.arange(len(coords)))]
    else:
        partner = prob.conj[coords]
        first = by_count(np.flatnonzero(coords < partner))
        runs = [first, by_count(np.flatnonzero(coords == partner)),
                np.searchsorted(coords, partner[first])]
    order = np.concatenate(runs)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    local = rank[np.searchsorted(coords, K)]
    by_class = np.argsort(local, kind="stable")
    Is, Js = I[by_class], J[by_class]
    rows, cols, flat = _padded_by_row(local[by_class], len(coords), Is, Js, Is * (B + 1) + Js,
                                      fill=(0, B, B))
    n = count[order]
    starts = np.cumsum([0] + [len(r) for r in runs])
    slots = np.arange(rows.shape[1])[:, None]
    itemsize = 8 if prob.conj is None else 16
    step = max(1, _SCHUR_BLOCK_BYTES // (itemsize * (B * (B + 1) + len(coords))))
    chunks = []
    for a in range(0, len(coords), step):
        w = int(n[a:a + step].max())
        chunks.append((a, min(a + step, len(coords)), rows[a:a + step, :w], cols[a:a + step, :w]))
    return _BlockPlan(side=B, entry_i=I, entry_j=J, entry_k=K,
                      const_entries=(ci[csel] - lo, cj[csel] - lo),
                      unknowns=coords[order] - 1, chunks=tuple(chunks),
                      flat=np.ascontiguousarray(flat.T),
                      runs=tuple((int(a), (n[None, a:b] > slots).sum(axis=1))
                                 for a, b in zip(starts, starts[1:])),
                      n_lo=len(runs[0]) if len(runs) > 1 else 0,
                      n_real=len(runs[1]) if len(runs) > 1 else len(runs[0]),
                      complex=prob.conj is not None)


def _schur_plan(prob: MomentSDP) -> _SchurPlan:
    m = prob.m
    starts = np.concatenate(([0], np.cumsum(prob.blocks)[:-1]))
    blocks = tuple(_block_plan(prob, int(lo), int(B)) for lo, B in zip(starts, prob.blocks))
    lead = int(np.argmax(prob.blocks))
    order = np.concatenate([blocks[lead].unknowns,
                            np.setdiff1d(np.arange(m), blocks[lead].unknowns)])
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    G = prob.G[:, order] if prob.G is not None else np.zeros((0, m))
    r, k = np.nonzero(G)                       # row-major: grouped by row
    gk, gv = _padded_by_row(r, G.shape[0], k, G[r, k], fill=(0, 0.0))
    pv = gv[:, :, None] * gv[:, None, :]
    keep = pv != 0
    return _SchurPlan(
        blocks=blocks, positions=tuple(position[bp.unknowns] for bp in blocks), lead=lead,
        order=order,
        pair_flat=(gk[:, :, None] * m + gk[:, None, :])[keep], pair_val=pv[keep],
        pair_row=np.broadcast_to(np.arange(G.shape[0])[:, None, None], pv.shape)[keep])


def _schur(plan: _SchurPlan, Sinvs: list, Xs: list, d: np.ndarray) -> np.ndarray:
    """H[k,l] = Re <E_k, Sinv E_l X> summed over the blocks + (G^T diag(d) G)[k,l],
    symmetrised, over the unknowns in plan.order.

    Per block, row l of C[l, k] = <F_k, Sinv F_l X> over the block's classes
    (F_k: the 0/1 pattern of class k) sums Sinv[:,i] X[j,:] over the entries
    (i,j) of class l, and sums each class k's entries of it; a chunk of
    classes forms these products in one batched matmul and adds one gathered
    entry of every class at a time.  C is Hermitian, so a chunk gathers only
    the classes from its own on, and the ones past it count twice: the
    symmetrised result is the same.  The real unknowns' E_k are
    combinations R of the F_k, and the block adds Re R^T C conj(R).
    """
    m = len(plan.order)
    H = np.zeros((m, m))
    for b, (bp, Sinv, X) in enumerate(zip(plan.blocks, Sinvs, Xs)):
        B = bp.side
        St = np.ascontiguousarray(Sinv.T)        # St[i] = Sinv[:, i]
        Xp = np.zeros((B + 1, B + 1), dtype=X.dtype)
        Xp[:B, :B] = X
        C = np.zeros((len(bp.unknowns),) * 2, dtype=X.dtype)
        for lo, hi, rows, cols in bp.chunks:
            W = np.matmul(St[rows].transpose(0, 2, 1), Xp[cols]).reshape(hi - lo, -1)
            Cb = C[lo:hi]
            Cb[:, lo:] = W[:, bp.flat[0, lo:]]
            for a, width in bp.runs:
                for slot, w in zip(bp.flat[1:], width[1:]):
                    if a + w > lo:
                        Cb[:, max(a, lo):a + w] += W[:, slot[max(a, lo):a + w]]
            Cb[:, hi:] *= 2
        if b == plan.lead:
            H[:len(C), :len(C)] += bp.real_gram(C)
        else:
            H[np.ix_(plan.positions[b], plan.positions[b])] += bp.real_gram(C)
    if len(plan.pair_flat):
        H += np.bincount(plan.pair_flat, weights=plan.pair_val * d[plan.pair_row],
                         minlength=m * m).reshape(m, m)
    return (H + H.T) / 2


def solve_ipm(prob: MomentSDP, tol: float = 1e-8, max_iter: int = 80) -> SDPResult:
    """HKM primal-dual interior-point method on the LMI (dual) form, block by block.

    maximize c[1:] . z  s.t.  S_b(z) = E0_b + sum z_k E_k,b >= 0 for every
    block b,  t(z) = g0 + G z >= 0.  The returned y = (1, z) is exactly dual
    feasible, so every M_b(y) is PSD up to the final line-search margin; the
    duality gap certifies near-optimality.

    Status: "optimal" when the gap and primal residual meet tol; "max_iter";
    or "stalled" when X or S stops being numerically PD (its Cholesky fails) or
    the Schur matrix is singular; it then returns the last dual iterate whose S was PD.
    """
    m = prob.m
    have_lin = prob.G is not None and prob.G.shape[0] > 0
    G = prob.G if have_lin else np.zeros((0, m))
    g0 = prob.g0 if have_lin else np.zeros(0)
    p = G.shape[0]
    b = prob.c[1:]
    plan = _schur_plan(prob)
    dtype = float if prob.conj is None else complex

    def op_A(Xs: list, w: np.ndarray) -> np.ndarray:
        g = sum(bp.gather(X, prob.n_classes) for bp, X in zip(plan.blocks, Xs))
        return real_coefficients(np.conj(g), prob.conj)[1:] + G.T @ w   # Re R^H g

    def make_S(z: np.ndarray, const: float = 1.0) -> list:
        yh = prob.coords(np.concatenate([[const], z]))
        return [bp.assemble(yh) for bp in plan.blocks]

    def inner(As: list, Bs: list) -> float:
        return sum(np.vdot(A, B).real for A, B in zip(As, Bs))

    # strictly feasible dual start: the uniform moments (an interior point)
    z = prob.uniform_y[1:].copy()
    S = make_S(z)
    if min(np.linalg.eigvalsh(Sb).min() for Sb in S) <= 0:
        raise RuntimeError("interior start is not PD; moment structure is off")
    t = g0 + G @ z
    X = [np.eye(B, dtype=dtype) for B in prob.blocks]
    w = np.ones(p)
    z_pd = z
    n_cone = sum(prob.blocks) + p

    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        gap = float(inner(X, S) + w @ t)
        mu = gap / n_cone
        r_p = -b - op_A(X, w)
        obj = float(b @ z + prob.c[0])
        if gap <= tol * (1 + abs(obj)) and np.abs(r_p).max() <= tol * 10:
            status = "optimal"
            break
        try:
            LiS = [_inv_chol(Sb) for Sb in S]
            z_pd = z
            LiX = [_inv_chol(Xb) for Xb in X]
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        Sinv = [L.conj().T @ L for L in LiS]

        H = _schur(plan, Sinv, X, w / t)
        # The Newton right-hand side A(mu Sinv - X, mu/t - w) - r_p is affine in the
        # centring target mu, and equals mu * A(Sinv, 1/t) + b; one factorisation of
        # H serves the predictor and the corrector.
        rhs = np.column_stack([op_A(Sinv, 1.0 / t), b])
        try:
            sol = np.linalg.solve(H + 1e-12 * np.eye(m), rhs[plan.order])
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        za, zb = np.empty((2, m))
        za[plan.order], zb[plan.order] = sol.T

        def newton(mu_target: float):
            dz = mu_target * za + zb
            dS = make_S(dz, 0.0)
            dt = G @ dz
            dX = []
            for Si, Xb, dSb in zip(Sinv, X, dS):
                dXr = mu_target * Si - Xb - Si @ dSb @ Xb
                dX.append((dXr + dXr.conj().T) / 2)
            dw = mu_target / t - w - (w / t) * dt
            a_p = min(min(map(_max_step_psd, LiX, dX)), _max_step_pos(w, dw))
            a_d = min(min(map(_max_step_psd, LiS, dS)), _max_step_pos(t, dt))
            return dz, dS, dX, dt, dw, a_p, a_d

        # predictor (affine scaling) to set the centering weight
        dz, dS, dX, dt, dw, a_p, a_d = newton(0.0)
        gap_aff = float(inner([Xb + a_p * d for Xb, d in zip(X, dX)],
                              [Sb + a_d * d for Sb, d in zip(S, dS)])
                        + (w + a_p * dw) @ (t + a_d * dt))
        sigma = min(1.0, max(1e-4, (gap_aff / gap) ** 3))
        dz, dS, dX, dt, dw, a_p, a_d = newton(sigma * mu)
        X = [Xb + a_p * d for Xb, d in zip(X, dX)]
        w = w + a_p * dw
        z = z + a_d * dz
        S = make_S(z)
        t = g0 + G @ z

    if status == "stalled":
        z = z_pd
        S = make_S(z)
        t = g0 + G @ z
    y = np.concatenate([[1.0], z])
    gap = float(inner(X, S) + w @ t)
    return SDPResult(y=y, objective=float(b @ z + prob.c[0]), gap=gap,
                     primal_residual=float(np.abs(-b - op_A(X, w)).max()),
                     iterations=it, method="ipm", status=status,
                     min_eig=float(min(np.linalg.eigvalsh(Sb).min() for Sb in S)))


def solve_admm(prob: MomentSDP, max_iter: int = 400, rho: float = 1.0,
               warm_y: Optional[np.ndarray] = None, tol: float = 1e-7) -> SDPResult:
    """Budgeted ADMM on  max c.y  s.t. M(y) = Z, Z >= 0 (PSD), y[0] = 1.

    The y-update is separable per monomial class because classes partition the
    matrix entries.  Deterministic for fixed inputs and budget; intended for
    problems too large for the Schur complement, with a warm start from the
    best known integral moments.  Linear inequalities are not supported here
    (the big instances run at degree >= 4 where they are implied).
    """
    if prob.G is not None and prob.G.shape[0] > 0:
        raise ValueError("ADMM path does not support linear inequalities")
    B = prob.side
    cnt = np.maximum(prob.class_count.astype(float), 1.0)
    y = warm_y.copy() if warm_y is not None else prob.uniform_y.copy()
    y[0] = 1.0
    M = prob.assemble(y)
    Z = M.copy()
    U = np.zeros_like(M)
    it = 0
    r_prim = d_res = np.inf
    for it in range(1, max_iter + 1):
        W = Z - U
        y_new = prob.class_average(W) + prob.c / (rho * cnt)
        y_new[0] = 1.0
        M = prob.assemble(y_new)
        V = M + U
        V = (V + V.T) / 2
        lam, Q = np.linalg.eigh(V)
        Z_new = (Q * np.maximum(lam, 0.0)) @ Q.T
        U = U + M - Z_new
        r_prim = float(np.linalg.norm(M - Z_new) / max(1.0, np.linalg.norm(M)))
        d_res = float(np.linalg.norm(Z_new - Z) * rho / max(1.0, np.linalg.norm(U) * rho))
        Z = Z_new
        y = y_new
        if r_prim < tol and d_res < tol:
            break
        if it % 50 == 0:  # deterministic residual balancing
            if r_prim > 10 * d_res and rho < 1e4:
                rho *= 2.0
                U /= 2.0
            elif d_res > 10 * r_prim and rho > 1e-4:
                rho /= 2.0
                U *= 2.0
    y = prob.class_average(Z)          # PSD side, projected to the structure
    y = repair_psd(prob, y)
    Mfin = prob.assemble(y)
    min_eig = float(np.linalg.eigvalsh(Mfin).min())
    return SDPResult(y=y, objective=float(prob.c @ y), gap=float("nan"),
                     primal_residual=r_prim, iterations=it, method="admm",
                     status="budget" if it == max_iter else "tol", min_eig=min_eig)


def repair_psd(prob: MomentSDP, y: np.ndarray, slack: float = 1e-10) -> np.ndarray:
    """Mix y toward the uniform moments until M(y) is PSD.

    min-eig is concave, so mixing with the strictly PD uniform moment matrix
    by theta = deficit / (deficit + lam_unif) guarantees PSD-ness.
    """
    M = prob.assemble(y)
    lam = float(np.linalg.eigvalsh(M).min())
    if lam >= 0.0:
        return y
    yu = prob.uniform_y
    lam_u = float(np.linalg.eigvalsh(prob.assemble(yu)).min())
    theta = (-lam + slack) / (-lam + lam_u)
    out = (1 - theta) * y + theta * yu
    out[0] = 1.0
    return out
