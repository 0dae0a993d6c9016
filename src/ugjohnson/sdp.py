"""Dense SDP solvers for entry-sharing moment problems.

Problem form:  maximize  c . y   subject to   M(y) >= 0 (PSD),  G y + g0 >= 0,
with y[0] = 1 fixed, where M(y) is a symmetric matrix whose every entry equals
some coordinate of y (the moment-matrix structure: entries sharing a monomial
class share a variable).

Two methods:
  * a primal-dual interior-point method (HKM direction, Mehrotra-style
    centering) with a certified duality gap, for small/medium problems;
  * a budgeted ADMM splitting with a PSD-projection step and a validity
    repair (mixing toward the uniform-moment interior point).  Nothing in the
    library calls it: over the Schur budget `sos.solve` returns the warm
    start.  `solve_admm`, `repair_psd` and `MomentSDP.class_average` /
    `class_count` stay only because the benchmark's tracer (bench/tracing.py,
    bench/run.py) looks the solver functions up by name.

Both are deterministic given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class MomentSDP:
    side: int                      # B, side of the moment matrix
    n_classes: int                 # number of monomial classes incl. class 0 (constant)
    entry_i: np.ndarray            # ordered entry positions (both (i,j) and (j,i);
    entry_j: np.ndarray            #   diagonal once), class 0 entries excluded
    entry_k: np.ndarray            # variable class per entry, in 1..n_classes-1
    const_entries: tuple           # (i_array, j_array) of class-0 entries (value 1)
    c: np.ndarray                  # objective over classes (c[0] is a constant term)
    uniform_y: np.ndarray          # strictly feasible class vector (M PD, G y + g0 > 0):
                                   #   IPM start, ADMM default start, PSD-repair target
    G: Optional[np.ndarray] = None    # linear inequalities G y + g0 >= 0 (over y[1:])
    g0: Optional[np.ndarray] = None
    class_count: np.ndarray = field(default=None)  # entries per class (for averaging)

    def __post_init__(self):
        if self.class_count is None:
            self.class_count = np.bincount(self.entry_k, minlength=self.n_classes)

    @property
    def m(self) -> int:
        return self.n_classes - 1

    def assemble(self, y: np.ndarray) -> np.ndarray:
        """M(y) for a full class vector y (y[0] should be 1)."""
        M = np.zeros((self.side, self.side))
        M[self.entry_i, self.entry_j] = y[self.entry_k]
        ci, cj = self.const_entries
        M[ci, cj] = y[0]
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
    """L^{-1} for the Cholesky factor S = L L^T; LinAlgError when S is not numerically PD."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _max_step_psd(Li: np.ndarray, dS: np.ndarray) -> float:
    """Largest alpha in (0,1] with S + alpha dS still PD (0.98 safety); Li = _inv_chol(S)."""
    W = Li @ dS @ Li.T
    lam = np.linalg.eigvalsh((W + W.T) / 2).min()
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
class _SchurPlan:
    """Index tables of the Schur matrix, built once per solve.

    rows[k], cols[k] list the (i, j) entries of class k, and flat[:, k] their
    positions i*(B+1) + j in a B x (B+1) product; each is padded to the largest
    class with (0, B), which hits the zero last row and column of the padded X.
    The nonzero products G[r,k] G[r,l] are listed once, at flat k*m + l.
    """
    rows: np.ndarray        # (m, cmax)
    cols: np.ndarray        # (m, cmax)
    flat: np.ndarray        # (cmax, m)
    block: int              # classes a block
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


def _schur_plan(prob: MomentSDP) -> _SchurPlan:
    B, m = prob.side, prob.m
    K = prob.entry_k - 1
    order = np.argsort(K, kind="stable")
    Is, Js = prob.entry_i[order], prob.entry_j[order]
    rows, cols, flat = _padded_by_row(K[order], m, Is, Js, Is * (B + 1) + Js, fill=(0, B, B))

    G = prob.G if prob.G is not None else np.zeros((0, m))
    r, k = np.nonzero(G)                       # row-major: grouped by row
    gk, gv = _padded_by_row(r, G.shape[0], k, G[r, k], fill=(0, 0.0))
    pv = gv[:, :, None] * gv[:, None, :]
    keep = pv != 0
    return _SchurPlan(
        rows=rows, cols=cols, flat=np.ascontiguousarray(flat.T),
        block=max(1, _SCHUR_BLOCK_BYTES // (8 * (B * (B + 1) + m))),
        pair_flat=(gk[:, :, None] * m + gk[:, None, :])[keep], pair_val=pv[keep],
        pair_row=np.broadcast_to(np.arange(G.shape[0])[:, None, None], pv.shape)[keep])


def _schur(plan: _SchurPlan, Sinv: np.ndarray, X: np.ndarray,
           d: np.ndarray) -> np.ndarray:
    """H[k,l] = <E_k, Sinv E_l X> + (G^T diag(d) G)[k,l], symmetrised.

    Row k sums Sinv E_k X = sum over the entries (i,j) of class k of
    Sinv[:,i] X[j,:] over the entries of each class l; a block of classes
    forms these products in one batched matmul, and adds one gathered entry
    of every class at a time.
    """
    B = X.shape[0]
    m = plan.rows.shape[0]
    Xp = np.zeros((B + 1, B + 1))
    Xp[:B, :B] = X
    H = np.empty((m, m))
    for lo in range(0, m, plan.block):
        hi = min(lo + plan.block, m)
        W = np.matmul(Sinv[plan.rows[lo:hi]].transpose(0, 2, 1),
                      Xp[plan.cols[lo:hi]]).reshape(hi - lo, -1)
        Hb = H[lo:hi]
        Hb[:] = W[:, plan.flat[0]]
        for slot in plan.flat[1:]:
            Hb += W[:, slot]
    if len(plan.pair_flat):
        H += np.bincount(plan.pair_flat, weights=plan.pair_val * d[plan.pair_row],
                         minlength=m * m).reshape(m, m)
    return (H + H.T) / 2


def solve_ipm(prob: MomentSDP, tol: float = 1e-8, max_iter: int = 80) -> SDPResult:
    """HKM primal-dual interior-point method on the LMI (dual) form.

    maximize c[1:] . z  s.t.  S(z) = E0 + sum z_k E_k >= 0,  t(z) = g0 + G z >= 0.
    The returned y = (1, z) is exactly dual feasible, so M(y) is PSD up to the
    final line-search margin; the duality gap certifies near-optimality.

    Status: "optimal" when the gap and primal residual meet tol; "max_iter";
    or "stalled" when X or S stops being numerically PD (its Cholesky fails) or
    the Schur matrix is singular; it then returns the last dual iterate whose S was PD.
    """
    B, m = prob.side, prob.m
    I_, J_, K_ = prob.entry_i, prob.entry_j, prob.entry_k - 1  # 0-based variables
    have_lin = prob.G is not None and prob.G.shape[0] > 0
    G = prob.G if have_lin else np.zeros((0, m))
    g0 = prob.g0 if have_lin else np.zeros(0)
    p = G.shape[0]
    b = prob.c[1:]
    plan = _schur_plan(prob)

    def op_A(X: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(K_, weights=X[I_, J_], minlength=m) + G.T @ w

    def make_S(z: np.ndarray) -> np.ndarray:
        return prob.assemble(np.concatenate([[1.0], z]))

    # strictly feasible dual start: the uniform moments (an interior point)
    z = prob.uniform_y[1:].copy()
    S = make_S(z)
    lam0 = np.linalg.eigvalsh(S).min()
    if lam0 <= 0:
        raise RuntimeError("interior start is not PD; moment structure is off")
    t = g0 + G @ z
    X = np.eye(B)
    w = np.ones(p)
    z_pd = z

    status = "max_iter"
    it = 0
    for it in range(1, max_iter + 1):
        gap = float(np.tensordot(X, S) + w @ t)
        mu = gap / (B + p)
        r_p = -b - op_A(X, w)
        obj = float(b @ z + prob.c[0])
        if gap <= tol * (1 + abs(obj)) and np.abs(r_p).max() <= tol * 10:
            status = "optimal"
            break
        try:
            LiS = _inv_chol(S)
            z_pd = z
            LiX = _inv_chol(X)
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        Sinv = LiS.T @ LiS

        H = _schur(plan, Sinv, X, w / t)
        # The Newton right-hand side A(mu Sinv - X, mu/t - w) - r_p is affine in the
        # centring target mu, and equals mu * A(Sinv, 1/t) + b; one factorisation of
        # H serves the predictor and the corrector.
        rhs = np.column_stack([op_A(Sinv, 1.0 / t), b])
        try:
            za, zb = np.linalg.solve(H + 1e-12 * np.eye(m), rhs).T
        except np.linalg.LinAlgError:
            status = "stalled"
            break

        def newton(mu_target: float):
            dz = mu_target * za + zb
            dS = prob.assemble(np.concatenate([[0.0], dz]))
            dt = G @ dz
            dXr = mu_target * Sinv - X - Sinv @ dS @ X
            dX = (dXr + dXr.T) / 2
            dw = mu_target / t - w - (w / t) * dt
            a_p = min(_max_step_psd(LiX, dX), _max_step_pos(w, dw))
            a_d = min(_max_step_psd(LiS, dS), _max_step_pos(t, dt))
            return dz, dS, dX, dt, dw, a_p, a_d

        # predictor (affine scaling) to set the centering weight
        dz, dS, dX, dt, dw, a_p, a_d = newton(0.0)
        gap_aff = float(np.tensordot(X + a_p * dX, S + a_d * dS)
                        + (w + a_p * dw) @ (t + a_d * dt))
        sigma = min(1.0, max(1e-4, (gap_aff / gap) ** 3))
        dz, dS, dX, dt, dw, a_p, a_d = newton(sigma * mu)
        X = X + a_p * dX
        w = w + a_p * dw
        z = z + a_d * dz
        S = make_S(z)
        t = g0 + G @ z

    if status == "stalled":
        z = z_pd
        S = make_S(z)
        t = g0 + G @ z
    y = np.concatenate([[1.0], z])
    gap = float(np.tensordot(X, S) + w @ t)
    return SDPResult(y=y, objective=float(b @ z + prob.c[0]), gap=gap,
                     primal_residual=float(np.abs(-b - op_A(X, w)).max()),
                     iterations=it, method="ipm", status=status,
                     min_eig=float(np.linalg.eigvalsh(S).min()))


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
