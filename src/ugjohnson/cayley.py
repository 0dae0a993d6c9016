"""The Johnson-approximating Cayley graph C_{n,l,alpha} on [n]^l.

Characters, eigenvalues, the level decomposition F = F_0 + ... + F_l, the
reduced functions f_{i,F} on [n]^i, pseudorandomness, fourth-moment bounds and
the numeric expansion certificate.

Functions are dense numpy arrays of shape (n,)*l.  Complex characters are used
internally; every exposed quantity on real invariant input is real, and the
imaginary residue is asserted below 1e-10.

The expansion certificate uses explicit combinatorial constants derived by the
same Cauchy-Schwarz/inclusion-exclusion route as the asymptotic argument, so
every checked inequality is a theorem with concrete (slightly larger)
constants; each report records the instantiation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, sqrt
from typing import Sequence

import numpy as np

from .johnson import JohnsonGraph

MAX_DOMAIN = 1_000_000
MAX_TUPLE_ENUM = 2_000_000
IMAG_TOL = 1e-10


class DomainBudgetError(RuntimeError):
    pass


class NotInvariantError(ValueError):
    pass


@dataclass(frozen=True)
class CayleyDomain:
    """[n]^l with the walk that resamples a uniform (alpha*l)-subset of coordinates."""

    n: int
    ell: int
    t: int

    def __post_init__(self):
        # the product domain [n]^l is well-defined for any n >= 2 (the Johnson
        # graph itself needs n > l, but its approximating walk does not)
        if not (1 <= self.t < self.ell) or self.n < 2:
            raise ValueError("need 1 <= t < l and n >= 2")
        if self.n ** self.ell > MAX_DOMAIN:
            raise DomainBudgetError(f"{self.n}^{self.ell} exceeds the dense-array guard")

    @property
    def alpha(self) -> float:
        return self.t / self.ell

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.ell

    @property
    def size(self) -> int:
        return self.n ** self.ell

    def eigenvalue(self, d: int) -> float:
        """Eigenvalue of the walk on degree-d characters: C(l-d, (1-a)l-d)/C(l, (1-a)l)."""
        if not 0 <= d <= self.ell:
            raise ValueError("degree out of range")
        m = self.ell - self.t  # (1 - alpha) * l
        if d > m:
            return 0.0
        return comb(self.ell - d, m - d) / comb(self.ell, m)

    def transition_kernel(self) -> np.ndarray:
        """Step distribution of the walk as a dense array over [n]^l.

        The walk X -> X + Z adds an independent step Z: pick a uniform t-subset
        of coordinates and add fresh uniform values there.  The transition
        matrix is the convolution with this kernel.
        """
        k = np.zeros(self.shape)
        unit = 1.0 / (comb(self.ell, self.t) * self.n ** self.t)
        for S in itertools.combinations(range(self.ell), self.t):
            idx = [slice(None) if c in S else 0 for c in range(self.ell)]
            k[tuple(idx)] += unit
        return k

    def numeric_spectrum(self) -> np.ndarray:
        """Eigenvalues of the explicit transition matrix, one per character T.

        The matrix is a convolution over the abelian group [n]^l, so its
        eigenbasis is the characters and the eigenvalues are the Fourier
        transform of the step kernel; returned indexed by T.
        """
        spec = np.fft.fftn(self.transition_kernel())
        return spec.real

    def dense_transition_matrix(self) -> np.ndarray:
        """The literal N x N transition matrix (guarded; reference use only)."""
        N = self.size
        if N > 4000:
            raise DomainBudgetError("dense transition matrix guarded at side 4000")
        kernel = self.transition_kernel().reshape(-1)
        states = list(itertools.product(range(self.n), repeat=self.ell))
        P = np.zeros((N, N))
        for i, x in enumerate(states):
            for j, z in enumerate(states):
                step = tuple((zc - xc) % self.n for xc, zc in zip(x, z))
                P[i, j] = kernel[np.ravel_multi_index(step, self.shape)]
        return P

    def degree_index(self) -> np.ndarray:
        """Array over [n]^l holding |T| = number of nonzero coordinates of T."""
        idx = np.indices(self.shape)
        return sum((idx[k] != 0).astype(np.int64) for k in range(self.ell))

    def apply_walk(self, F: np.ndarray) -> np.ndarray:
        """One step of the walk applied to F, via the Fourier multiplier."""
        coeff = np.fft.fftn(F) / F.size
        lam = np.asarray([self.eigenvalue(d) for d in range(self.ell + 1)])
        out = np.fft.ifftn(coeff * lam[self.degree_index()]) * F.size
        return _realify(out)


def _realify(arr: np.ndarray) -> np.ndarray:
    resid = float(np.abs(arr.imag).max()) if np.iscomplexobj(arr) else 0.0
    if resid > IMAG_TOL:
        raise AssertionError(f"imaginary residue {resid} above tolerance")
    return np.array(arr.real)  # preserves 0-d shape, unlike ascontiguousarray


def is_invariant(F: np.ndarray, tol: float = 1e-9) -> bool:
    ell = F.ndim
    for k in range(ell - 1):
        perm = list(range(ell))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        if np.abs(F - np.transpose(F, perm)).max() > tol:
            return False
    return True


def symmetrize_perm(dom: CayleyDomain, F: np.ndarray) -> np.ndarray:
    """Average of F over coordinate permutations; idempotent, preserves the mean."""
    out = np.zeros_like(F, dtype=float)
    k = 0
    for perm in itertools.permutations(range(dom.ell)):
        out += np.transpose(F, perm)
        k += 1
    return out / k


def restrict(F: np.ndarray, a: Sequence[int]) -> np.ndarray:
    """F with its first len(a) coordinates fixed to a (invariant F: any coordinates)."""
    return np.asarray(F[tuple(a)])


def restriction_density(F: np.ndarray, a: Sequence[int]) -> float:
    return float(np.mean(restrict(F, a)))


@dataclass
class LevelDecomposition:
    dom: CayleyDomain
    F: np.ndarray
    parts: list[np.ndarray]          # F_0 .. F_l
    eta: np.ndarray                  # level masses E[F_i^2]

    def reconstruction_residual(self) -> float:
        return float(np.abs(sum(self.parts) - self.F).max())

    def parseval_residual(self) -> float:
        return abs(float(np.sum(self.eta)) - float(np.mean(self.F ** 2)))


def level_decompose(dom: CayleyDomain, F: np.ndarray) -> LevelDecomposition:
    """Orthogonal split of F by character degree; eta_i = E[F_i^2]."""
    if F.shape != dom.shape:
        raise ValueError("function shape does not match the domain")
    coeff = np.fft.fftn(F) / F.size
    deg = dom.degree_index()
    parts = []
    for i in range(dom.ell + 1):
        ci = np.where(deg == i, coeff, 0)
        parts.append(_realify(np.fft.ifftn(ci) * F.size))
    eta = np.asarray([float(np.mean(p ** 2)) for p in parts])
    return LevelDecomposition(dom, np.asarray(F, dtype=float), parts, eta)


def f_i_fourier(dom: CayleyDomain, F: np.ndarray, i: int) -> np.ndarray:
    """f_{i,F} on [n]^i via Fourier coefficients with the first i indices nonzero."""
    return _f_i_raw(F, i)


def f_i_restriction(dom: CayleyDomain, F: np.ndarray, i: int) -> np.ndarray:
    """f_{i,F} via inclusion-exclusion over restriction densities.

    Independent of the Fourier route; the two must agree pointwise for
    permutation-invariant F.
    """
    if not is_invariant(F):
        raise NotInvariantError("inclusion-exclusion route requires invariant F")
    out = np.zeros((dom.n,) * i)
    for X in itertools.product(range(dom.n), repeat=i):
        acc = 0.0
        for bsize in range(i + 1):
            for B in itertools.combinations(range(i), bsize):
                acc += (-1) ** (i - bsize) * restriction_density(F, tuple(X[b] for b in B))
        if i == 0:
            return np.asarray(acc)
        out[X] = acc
    return out


def restriction_recursion_residual(dom: CayleyDomain, F: np.ndarray, i: int) -> float:
    """max_a |f_{i+1,F}(a, .) - (f_{i,F|a} - f_{i,F})|, the one-step recursion."""
    fip1 = f_i_fourier(dom, F, i + 1)
    fi = f_i_fourier(dom, F, i)
    worst = 0.0
    for a in range(dom.n):  # F[a] has ell - 1 >= 1 axes: the domain forces ell >= 2
        fa = _f_i_raw(F[a], i)
        worst = max(worst, float(np.abs(np.asarray(fip1[a]) - (fa - fi)).max()))
    return worst


def _f_i_raw(F: np.ndarray, i: int) -> np.ndarray:
    """f_{i,F} for an array of any dimension (helper without a domain object)."""
    ell = F.ndim
    n = F.shape[0] if ell else 1
    coeff = np.fft.fftn(F) / F.size
    sl = tuple([slice(None)] * i + [0] * (ell - i))
    ci = np.array(coeff[sl], copy=True)
    if i == 0:
        return _realify(ci.reshape(()))
    idx = np.indices((n,) * i)
    full = np.ones((n,) * i, dtype=bool)
    for k in range(i):
        full &= idx[k] != 0
    ci = np.where(full, ci, 0)
    return _realify(np.fft.ifftn(ci) * ci.size)


def second_moment_identity(dom: CayleyDomain, F: np.ndarray, i: int) -> float:
    """Residual of E_X[f_i(X)^2] * C(l, i) = eta_i."""
    dec = level_decompose(dom, F)
    fi = f_i_fourier(dom, F, i)
    lhs = float(np.mean(np.asarray(fi) ** 2)) * comb(dom.ell, i)
    return abs(lhs - float(dec.eta[i]))


def restricted_second_moment_check(dom: CayleyDomain, F: np.ndarray, i: int) -> dict:
    """E_b[f_i(a,b)^2] <= delta(F^2|_a) / C(l-|a|, i-|a|), exhaustively over |a| < i.

    The full-restriction case |a| = i is excluded: the clean bound is false
    there in general (the certificate machinery uses a provable variant).
    """
    fi = f_i_fourier(dom, F, i)
    F2 = F ** 2
    worst = -np.inf
    worst_a = None
    for s in range(i):
        for a in itertools.product(range(dom.n), repeat=s):
            sub = np.asarray(fi[a]) if s > 0 else fi
            lhs = float(np.mean(sub ** 2))
            rhs = restriction_density(F2, a) / comb(dom.ell - s, i - s)
            if lhs - rhs > worst:
                worst, worst_a = lhs - rhs, a
    return {"i": i, "worst_excess": worst, "worst_a": worst_a, "ok": worst <= 1e-9}


def four_product_mean(dom: CayleyDomain, F: np.ndarray, i: int,
                      sets: Sequence[Sequence[int]]) -> float:
    """E_X[f_i(X|_I1) f_i(X|_I2) f_i(X|_I3) f_i(X|_I4)] by direct summation."""
    fi = f_i_fourier(dom, F, i)
    grids = np.indices(dom.shape)
    acc = np.ones(dom.shape)
    for I in sets:
        coords = tuple(grids[c] for c in I)
        acc = acc * (np.asarray(fi)[coords] if i > 0 else float(fi))
    return float(np.mean(acc))


@dataclass
class PseudorandomnessReport:
    r: int
    gamma: float
    worst_a: tuple
    worst_density: float
    passed: bool


def pseudorandomness(dom, F: np.ndarray, r: int, gamma: float
                     ) -> PseudorandomnessReport:
    """Exact max of delta(F^2|_a) over all restrictions |a| <= r.

    Accepts either a CayleyDomain (restrictions fix leading coordinates) or a
    JohnsonGraph (restrictions are the subcubes J|_a).
    """
    if np.min(F) < -1e-12 or np.max(F) > 1 + 1e-12:
        raise ValueError("pseudorandomness is defined for [0,1]-valued F")
    F2 = F ** 2
    worst, worst_a = -1.0, ()
    if isinstance(dom, JohnsonGraph):
        from .johnson import density as jdensity
        for s in range(r + 1):
            for a in itertools.combinations(range(dom.n), s):
                d = jdensity(dom, F2, a)
                if d > worst:
                    worst, worst_a = d, a
        return PseudorandomnessReport(r, gamma, worst_a, worst, worst <= gamma)
    for s in range(r + 1):
        for a in itertools.product(range(dom.n), repeat=s):
            d = restriction_density(F2, a)
            if d > worst:
                worst, worst_a = d, a
    return PseudorandomnessReport(r, gamma, worst_a, worst, worst <= gamma)


# ---------------------------------------------------------------------------
# fourth-moment bounds and the expansion certificate


@lru_cache(maxsize=None)
def fourth_moment_constants(ell: int, i: int) -> tuple[float, tuple[float, ...]]:
    """Explicit constants (M_i, K_{i,0..i}) in the fourth-moment upper bound

        E[F_i^4] <= gamma * M_i * eta_i + sum_s K_{i,s} * corr_s(gamma),

    where corr_s = E_{a ~ [n]^s}[(delta(F^2|_a) - gamma) * E_b[f_i(a,b)^2]].

    Derived by enumerating all ordered 4-tuples of i-subsets of [l] whose
    union covers every index at least twice (the rest vanish), choosing per
    tuple the pairing that minimizes the main-term coefficient, and bounding
    each side through inclusion-exclusion over sub-restrictions.
    """
    if comb(ell, i) ** 4 > MAX_TUPLE_ENUM:
        raise DomainBudgetError("fourth-moment tuple enumeration exceeds budget")
    subsets = [frozenset(c) for c in itertools.combinations(range(ell), i)]
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def m_of(tk: int) -> float:
        return 2 ** tk * sum(comb(tk, s) / comb(ell - s, i - tk) for s in range(tk + 1))

    M = 0.0
    K = [0.0] * (i + 1)
    for tup in itertools.product(subsets, repeat=4):
        cover: dict[int, int] = {}
        for I in tup:
            for x in I:
                cover[x] = cover.get(x, 0) + 1
        if any(v == 1 for v in cover.values()):
            continue
        H4 = {x for x, v in cover.items() if v == 4}
        H3 = {x for x, v in cover.items() if v == 3}
        best = None
        for (p1, p2) in pairings:
            t1 = len(H4 | (H3 & tup[p1[0]] & tup[p1[1]]))
            t2 = len(H4 | (H3 & tup[p2[0]] & tup[p2[1]]))
            m1, m2 = m_of(t1), m_of(t2)
            key = sqrt(m1 * m2)
            if best is None or key < best[0]:
                best = (key, t1, t2, m1, m2)
        key, t1, t2, m1, m2 = best
        M += key
        eps = sqrt(m2 / m1)
        for s in range(t1 + 1):
            K[s] += (eps / 2) * 2 ** t1 * comb(t1, s) / comb(ell - s, i - t1)
        for s in range(t2 + 1):
            K[s] += (1 / (2 * eps)) * 2 ** t2 * comb(t2, s) / comb(ell - s, i - t2)
    return M / comb(ell, i), tuple(K)


def _corr_term(dom: CayleyDomain, F2: np.ndarray, fi: np.ndarray, i: int, s: int,
               gamma: float) -> float:
    """E_{a ~ [n]^s}[(delta(F^2|_a) - gamma) * E_b[f_i(a,b)^2]]."""
    tot = 0.0
    for a in itertools.product(range(dom.n), repeat=s):
        d = restriction_density(F2, a)
        sub = np.asarray(fi[a]) if s > 0 else np.asarray(fi)
        tot += (d - gamma) * float(np.mean(sub ** 2))
    return tot / dom.n ** s


def fourth_moment_bounds(dom: CayleyDomain, F: np.ndarray, i: int, eps: float,
                         gamma: float) -> dict:
    """Evaluate E[F_i^4] against the explicit lower and upper bounds.

    Lower:  E[F_i^4] >= 4 eps^3 eta_i - 3 eps^4 delta(F) + B(F) with the exact
    Booleanity term B(F) = 4 eps^3 E[(F^3-F) F_i] + 3 eps^4 E[F - F^4].
    Upper:  the fourth_moment_constants bound with correction terms computed
    exactly by exhaustive restriction enumeration.
    """
    dec = level_decompose(dom, F)
    Fi = dec.parts[i]
    F4 = float(np.mean(Fi ** 4))
    delta = float(np.mean(F))
    B = 4 * eps ** 3 * float(np.mean((F ** 3 - F) * Fi)) \
        + 3 * eps ** 4 * float(np.mean(F - F ** 4))
    lower = 4 * eps ** 3 * float(dec.eta[i]) - 3 * eps ** 4 * delta + B
    Mi, K = fourth_moment_constants(dom.ell, i)
    fi = f_i_fourier(dom, F, i)
    F2 = F ** 2
    corr = [_corr_term(dom, F2, fi, i, s, gamma) for s in range(i + 1)]
    upper = gamma * Mi * float(dec.eta[i]) + sum(K[s] * corr[s] for s in range(i + 1))
    return {
        "i": i, "fourth_moment": F4, "lower": lower, "upper": upper,
        "lower_ok": lower <= F4 + 1e-9, "upper_ok": F4 <= upper + 1e-9,
        "slack": min(F4 - lower, upper - F4),
        "booleanity_term": B, "M_i": Mi, "K_i": list(K),
    }


def _qa_norm_bound(ell: int, i: int, j: int) -> float:
    """Provable upper bound on E_b[f_i(a,b)^2] for [0,1]-valued F and |a| = j."""
    return 2 ** j * sum(comb(j, s) / comb(ell - s, i - j) for s in range(j + 1))


def expansion_certificate(dom, F: np.ndarray, r: int, gamma: float,
                            tol: float = 1e-9) -> dict:
    """Numeric certificate for pseudorandom functions having high expansion:

        <F, LF> >= delta(F) (1 - lambda_{r+1}) (1 - Gamma_r gamma^{1/3})
                   - sum_j (c_j / gamma) E_{a~[n]^j}[ q_a(F) (delta(F^2|_a) - gamma) ]
                   + B(F),

    with explicit Gamma_r = sum_i M_i^{1/3}, multipliers q_a in [0, 1], and the
    Booleanity term B(F) that vanishes on 0/1-valued F.  Every quantity on the
    right is evaluated exactly; the report records the instantiated constants.

    A JohnsonGraph input is lifted to its invariant function on [n]^l
    (distinct-coordinate tuples) and the report carries the measured
    Johnson-vs-Cayley bridge discrepancies rather than hiding them.
    """
    if isinstance(dom, JohnsonGraph):
        g = dom
        dom, lifted = lift_from_johnson(g, F)
        rep = expansion_certificate(dom, lifted, r, gamma, tol=tol)
        rep["bridge"] = bridge_report(g, F)
        return rep
    if np.min(F) < -1e-12 or np.max(F) > 1 + 1e-12:
        raise ValueError("certificate applies to [0,1]-valued F")
    if not is_invariant(F):
        raise NotInvariantError("certificate applies to permutation-invariant F")
    if r + 1 > dom.ell:
        raise ValueError("need r + 1 <= l")
    dec = level_decompose(dom, F)
    delta = float(np.mean(F))
    lam_r1 = dom.eigenvalue(r + 1)
    FCF = sum(dom.eigenvalue(d) * float(dec.eta[d]) for d in range(dom.ell + 1))
    FLF = float(np.mean(F ** 2)) - FCF

    F2 = F ** 2
    main_factor = 0.0
    B = -float(np.mean(F - F2))
    c_norm: dict[int, float] = {}
    W: dict[tuple, float] = {}
    consts = {}
    for i in range(r + 1):
        Mi, K = fourth_moment_constants(dom.ell, i)
        consts[i] = {"M": Mi, "K": list(K)}
        eps_i = (Mi * gamma) ** (1 / 3.0)
        main_factor += eps_i / gamma ** (1 / 3.0)  # = M_i^{1/3}
        B -= (1 - lam_r1) * ((4 / 3.0) * float(np.mean((F - F ** 3) * dec.parts[i]))
                             + eps_i * float(np.mean(F ** 4 - F)))
        fi = f_i_fourier(dom, F, i)
        for s in range(i + 1):
            Kt = K[s] / (3 * Mi)
            c_norm[s] = c_norm.get(s, 0.0) + (1 - lam_r1) * Kt * _qa_norm_bound(dom.ell, i, s)
            for a in itertools.product(range(dom.n), repeat=s):
                sub = np.asarray(fi[a]) if s > 0 else np.asarray(fi)
                e = float(np.mean(sub ** 2))
                W[(s, a)] = W.get((s, a), 0.0) + (1 - lam_r1) * Kt * e

    qa_min, qa_max = np.inf, -np.inf
    correction = 0.0
    for s, cj in sorted(c_norm.items()):
        acc = 0.0
        for a in itertools.product(range(dom.n), repeat=s):
            qa = W[(s, a)] / cj if cj > 0 else 0.0
            qa_min, qa_max = min(qa_min, qa), max(qa_max, qa)
            acc += qa * (restriction_density(F2, a) - gamma)
        correction += (cj / gamma) * (acc / dom.n ** s)

    gamma_r = main_factor
    rhs = delta * (1 - lam_r1) * (1 - gamma_r * gamma ** (1 / 3.0)) - correction + B
    slack = FLF - rhs
    return {
        "laplacian_form": FLF,
        "rhs": rhs,
        "slack": slack,
        "ok": slack >= -tol,
        "qa_min": qa_min, "qa_max": qa_max,
        "qa_in_range": -tol <= qa_min and qa_max <= 1 + tol,
        "main_term": delta * (1 - lam_r1) * (1 - gamma_r * gamma ** (1 / 3.0)),
        "correction_term": correction,
        "booleanity_term": B,
        "instantiated": {"Gamma_r": gamma_r, "c_j": dict(sorted(c_norm.items())),
                         "per_level": consts, "lambda_r1": lam_r1},
        "r": r, "gamma": gamma,
    }


# ---------------------------------------------------------------------------
# Johnson <-> Cayley bridge


def lift_from_johnson(g: JohnsonGraph, F: np.ndarray) -> tuple[CayleyDomain, np.ndarray]:
    """Lift F on V(J) to a permutation-invariant function on [n]^l.

    Distinct-coordinate tuples take the value of the corresponding subset;
    tuples with a repeated coordinate take 0.  Densities on the two domains
    then differ by O(l^2/n) collision terms, which callers must report.
    """
    dom = CayleyDomain(g.n, g.ell, g.t)
    out = np.zeros(dom.shape)
    for v in range(g.num_vertices):
        subset = g.vertex_subset(v)
        val = float(F[v])
        if val == 0.0:
            continue
        for perm in itertools.permutations(subset):
            out[perm] = val
    return dom, out


def bridge_report(g: JohnsonGraph, F: np.ndarray) -> dict:
    """Measured Johnson-vs-Cayley discrepancies for F (density and Laplacian form)."""
    from .johnson import density as jdensity, laplacian_form as jlap
    dom, lifted = lift_from_johnson(g, F)
    dec = level_decompose(dom, lifted)
    d_j = jdensity(g, F)
    d_c = float(np.mean(lifted))
    lap_j = jlap(g, F)
    lap_c = float(np.mean(lifted ** 2)) - sum(
        dom.eigenvalue(d) * float(dec.eta[d]) for d in range(dom.ell + 1))
    return {
        "density_johnson": d_j, "density_cayley": d_c,
        "density_gap": abs(d_j - d_c),
        "laplacian_johnson": lap_j, "laplacian_cayley": lap_c,
        "laplacian_gap": abs(lap_j - lap_c),
        "collision_fraction": 1.0 - factorial(g.ell) * comb(g.n, g.ell) / g.n ** g.ell,
    }
