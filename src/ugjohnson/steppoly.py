"""Low-degree polynomial approximations p_{beta,nu} of the step 1[x >= beta].

Construction: a single smoothed-step profile per nu (error-function shape of
width nu/4 centered at the middle of the transition window) is fit once in the
Chebyshev basis on a window wide enough to cover [0, 1] for every beta, then
squeezed affinely into [nu/2, 1 - nu/2] and verified on a dense grid.  Any
polynomial passing the verified invariants is interchangeable.

Two consequences of this construction are used downstream: the family is
translation-consistent (p_{beta-s,nu}(x-s) == p_{beta,nu}(x) exactly), and the
profile is monotone on the whole window, not just the transition.

Coefficients are stored in the Chebyshev basis: monomial-basis coefficients of
these polynomials overflow float64 (their magnitude is exponential in
deg * log(1/nu), which the report records in log2 form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import erf, log2

import numpy as np
from numpy.polynomial import chebyshev as cheb

GRID_POINTS = 10_000
DEGREE_CONST = 16.0  # recorded C in d_max = C * (1/nu) * log^2(1/nu)
WINDOW = 2.0  # x-halfwidth of the fitted window around the transition center


class StepPolyConstructionError(RuntimeError):
    pass


@lru_cache(maxsize=32)
def _profile(nu: float, degree: int) -> tuple[float, ...]:
    """Chebyshev coefficients of the smoothed step on x in [center-W, center+W].

    Target: (1 + erf(4u)) / 2 with u = (x - center) / nu, an error-function
    ramp of width ~nu/4 in x-units.  Interpolation at Chebyshev points, which
    is near-best and fast at high degree.  The window halfwidth W covers every
    shifted threshold needed downstream without extrapolation.
    """
    scale = WINDOW / nu
    verf = np.vectorize(erf)

    def target(nodes):
        return 0.5 * (1.0 + verf(4.0 * nodes * scale))

    coeffs = cheb.chebinterpolate(target, degree)
    return tuple(coeffs)


@dataclass(frozen=True)
class StepPoly:
    beta: float
    nu: float
    coeffs: tuple[float, ...]     # Chebyshev basis on the window below
    meta: dict

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def center(self) -> float:
        return self.beta + self.nu / 2.0

    @property
    def degenerate(self) -> bool:
        return False

    def _to_node(self, x: np.ndarray) -> np.ndarray:
        node = (np.asarray(x, dtype=float) - self.center) / WINDOW
        if np.any(np.abs(node) > 1 + 1e-12):
            raise ValueError("evaluation outside the fitted window")
        return node

    def __call__(self, x):
        raw = cheb.chebval(self._to_node(x), list(self.coeffs))
        out = self.nu / 2.0 + (1.0 - self.nu) * raw
        return float(out) if np.isscalar(x) else np.asarray(out)

    def complement(self):
        """p_{<beta,nu} = 1 - p_{beta,nu}, the approximate indicator of x < beta."""
        return lambda x: 1.0 - self(x)

    def shifted(self, s: float):
        """p_{beta-s,nu}; by construction p_{beta-s,nu}(x-s) == p_{beta,nu}(x).

        When the shifted threshold leaves (0, 1) the indicator is constant on
        [0, 1] and the degenerate constant step is returned (monotone, and
        still pointwise >= the unshifted polynomial for s >= 0).
        """
        if self.beta - s <= 0.0:
            return ConstantStep(self.beta - s, self.nu, 1.0)
        if self.beta - s >= 1.0:
            return ConstantStep(self.beta - s, self.nu, 0.0)
        return StepPoly(self.beta - s, self.nu, self.coeffs, dict(self.meta))


@dataclass(frozen=True)
class ConstantStep:
    """Degenerate step whose threshold lies outside (0,1): constant on [0,1]."""
    beta: float
    nu: float
    level: float

    @property
    def degenerate(self) -> bool:
        return True

    def __call__(self, x):
        out = np.full_like(np.asarray(x, dtype=float), self.level)
        return float(self.level) if np.isscalar(x) else out


def _grid(beta: float, nu: float) -> np.ndarray:
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    k = 2048
    chebnodes = 0.5 * (1 + np.cos(np.pi * (np.arange(k) + 0.5) / k))
    extra = np.linspace(max(0.0, beta - 2 * nu), min(1.0, beta + 3 * nu), 2000)
    return np.unique(np.concatenate([xs, chebnodes, extra, [0.0, beta, beta + nu, 1.0]]))


def verify(p: StepPoly, tol: float = 1e-9) -> dict:
    """Grid verification of the step-approximation invariants."""
    beta, nu = p.beta, p.nu
    xs = _grid(beta, nu)
    vals = p(xs)
    # the transition lives on (beta, beta+nu): p approximates 0 up to beta
    # and 1 from beta+nu on (in particular p(beta) <= nu, p(beta+nu) >= 1-nu)
    low, high = xs <= beta, xs >= beta + nu
    approx_err = max(float(np.max(vals[low])), float(np.max(1.0 - vals[high])))
    report = {
        "range_ok": bool(vals.min() >= -tol and vals.max() <= 1 + tol),
        "approx_ok": bool(approx_err <= nu + tol),
        "approx_err": approx_err,
    }
    trans = (xs >= beta) & (xs <= beta + nu)
    tv = vals[trans]
    report["monotone_transition_ok"] = bool(np.all(np.diff(tv) >= -tol))
    report["monotone_global_ok"] = bool(np.all(np.diff(vals) >= -5e-9))
    comp = vals + beta + 3 * nu - xs
    report["composition_ok"] = bool(comp.min() >= -tol)
    report["composition_margin"] = float(comp.min())
    report.update(markov_bounds_check(p, tol=tol))
    report["ok"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report


def markov_bounds_check(p: StepPoly, tol: float = 1e-9) -> dict:
    """Grid residuals of p(x) >= 1 - (1-x)/(1-beta-nu) - nu and p(x) <= x/(beta-nu) + nu."""
    beta, nu = p.beta, p.nu
    xs = _grid(beta, nu)
    vals = p(xs)
    lower = 1.0 - (1.0 - xs) / (1.0 - beta - nu) - nu
    upper = xs / (beta - nu) + nu
    return {
        "markov_lower_ok": bool(np.min(vals - lower) >= -tol),
        "markov_lower_margin": float(np.min(vals - lower)),
        "markov_upper_ok": bool(np.min(upper - vals) >= -tol),
        "markov_upper_margin": float(np.min(upper - vals)),
    }


def build(beta: float, nu: float) -> StepPoly:
    """Construct a verified p_{beta,nu}; retries at higher degree up to the cap."""
    if not (0.0 < nu < beta < 1.0 and beta + nu < 1.0):
        raise ValueError("need 0 < nu < beta and beta + nu < 1")
    d_max = int(DEGREE_CONST * (1.0 / nu) * np.log(1.0 / nu) ** 2) + 32
    d = max(64, int(8.0 / nu))
    last_report = None
    tried_cap = False
    while d <= d_max or not tried_cap:
        if d > d_max:
            d, tried_cap = d_max, True
        coeffs = _profile(nu, d)
        meta = {
            "degree": d,
            "degree_cap": d_max,
            "degree_const": DEGREE_CONST,
            "max_cheb_coeff": float(np.max(np.abs(coeffs))),
            # monomial-basis magnitude estimate, recorded but not asserted
            "log2_monomial_coeff_bound": float(d * log2(max(2.0, 2.0 / nu))),
        }
        cand = StepPoly(beta, nu, coeffs, meta)
        report = verify(cand)
        if report["ok"]:
            cand.meta["verification"] = report
            return cand
        last_report = report
        d *= 2
    raise StepPolyConstructionError(
        f"no verified polynomial up to degree {d_max}: {last_report}")

