"""The rounding pipeline: Condition&Round, global-correlation reduction,
event/subcube search, SubRound, and the iterated main algorithm.

Where the analysis conditions on degree-heavy polynomial events, the
implementation conditions on the closest within-budget surrogate (density
polynomials built from Z-monomials), records the surrogate, and verifies the
downstream inequalities with measured rather than asymptotic constants.
The event search reads every candidate's numbers as Z-moments of the
product's joints and builds a polynomial only for the event it chooses.
All tie-breaking is lexicographic on canonical indices; every run is
deterministic given (instance, config, seeds).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict
from math import log, sqrt
from typing import Optional, Sequence

import numpy as np

from . import potentials as pot
from . import sos
from .johnson import Subcube
from .monomials import EventPoly, mul, poly_mul, var
from .potentials import LocalDistributionCollection, tv_distance
from .sos import (DegreeExhausted, NearZeroEvent, ProductPE, PseudoExpectation,
                  condition, density_poly, product, shift_symmetrize)
from .ug_core import (UGInstance, edges_inside, randomize_edges, satisfied_mask,
                      value as ug_value)

TV_EXCEEDANCE_CONST = 16.0   # instantiated O(.) constant in the TV-exceedance bound
THETA = 1.0                  # generic Theta(.) constant of the event-search thresholds
ROUND_J_CONST = 2.0          # instantiated O(delta + zeta) constant in the rounding guarantee
ANCHOR_FLOOR = 1e-9          # Condition&Round skips an anchor u with pE[X_u = 0] below this
# SubRound's fixed parameters: beta and nu of the step function (nu < beta), the MI
# target tau, the TV threshold delta, and the implementation's sampling budgets
BETA = 0.3
NU = 0.1
TAU = 0.01
DELTA = 0.2
THR_SCALE = 0.5              # density threshold = THR_SCALE * exp(-r); below 1 so the
                             # whole-graph part can fire at r = 0
ANCHOR_BUDGET = 32           # Condition&Round anchors per copy
TUPLE_BUDGET = 8             # rt_reduce conditioning steps
MI_PAIR_BUDGET = 30          # disjoint pairs of pairs each average MI samples
TV_PAIR_BUDGET = 30          # pairs the TV check samples


class NoDenseSubcube(RuntimeError):
    pass


@dataclass
class RoundingConfig:
    """What varies between runs: the regime and its completeness, the
    restriction size r, the coverage target, the relaxation degree and the
    seed.  SubRound's own parameters are the module constants above."""
    regime: str = "close_to_1"       # or "low_completeness"
    eps: float = 0.0                 # completeness 1 - eps (close_to_1)
    c: float = 0.5                   # completeness floor (low_completeness)
    r: int = 0
    gamma: float = 0.05              # coverage target fraction (while-loop)
    degree: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.regime not in ("close_to_1", "low_completeness"):
            raise ValueError(f"unknown regime {self.regime}")
        if self.r < 0 or self.degree < 2 or self.gamma <= 0:
            raise ValueError("need r >= 0, degree >= 2, gamma > 0")

    @staticmethod
    def for_instance(inst: UGInstance, eps: float = 0.0, degree: int = 4,
                     seed: int = 0) -> "RoundingConfig":
        g = inst.graph_tag
        if g is None:
            raise ValueError("RoundingConfig.for_instance needs a Johnson graph tag")
        r = int(32 * sqrt(max(eps, 0.0)) / g.alpha)
        r = min(r, max(0, int(np.ceil(g.ell / 4)) - 1), g.ell - 1)
        return RoundingConfig(regime="close_to_1", eps=eps, r=r, degree=degree,
                              seed=seed, gamma=max(eps, 0.05))

    @staticmethod
    def low_completeness(inst: UGInstance, c: float, degree: int = 4,
                         seed: int = 0) -> "RoundingConfig":
        g = inst.graph_tag
        if g is None:
            raise ValueError("RoundingConfig.low_completeness needs a Johnson graph tag")
        r = min(max(1, int(np.ceil(log(c) / log(1 - g.alpha)))), g.ell - 1)
        return RoundingConfig(regime="low_completeness", c=c, r=r, degree=degree,
                              seed=seed, gamma=max(c * c, 0.05))


@dataclass
class RoundingTrace:
    records: list = field(default_factory=list)
    final_value: float = 0.0
    assignment: Optional[list] = None
    config: Optional[dict] = None

    def to_json(self) -> str:
        return json.dumps({"records": self.records, "final_value": self.final_value,
                           "assignment": self.assignment, "config": self.config},
                          sort_keys=True, default=float)

    def to_json_lines(self) -> str:
        """One JSON record per iteration plus a final summary line."""
        lines = [json.dumps(rec, sort_keys=True, default=float)
                 for rec in self.records]
        lines.append(json.dumps({"final_value": self.final_value,
                                 "assignment": self.assignment,
                                 "config": self.config},
                                sort_keys=True, default=float))
        return "\n".join(lines) + "\n"

    def could_fail(self) -> tuple[int, int]:
        """How many of the SubRound inequality checks recorded could have
        failed on their own numbers, and how many were recorded."""
        checks = [rec[key] for rec in self.records
                  for key in ("tv_check", "rounding_guarantee", "potential_relation")
                  if key in rec]
        return sum(c["could_fail"] for c in checks), len(checks)


# ---------------------------------------------------------------------------
# Condition & Round


def condition_and_round(pe: PseudoExpectation, inst: UGInstance,
                        scope: Optional[Sequence[int]] = None) -> tuple[np.ndarray, dict]:
    """Derandomized Condition&Round: for each of the first ANCHOR_BUDGET anchors
    u condition on X_u = 0 and give every vertex the argmax label of its
    conditional marginal; return the best assignment over anchors (max >= mean
    of the randomized variant)."""
    pe = shift_symmetrize(pe)
    verts = list(scope) if scope is not None else list(range(pe.n_vertices))
    within = set(verts) if scope is not None else None
    anchors = verts[:ANCHOR_BUDGET]
    if not anchors:
        raise NearZeroEvent("no anchor to condition on")
    best_x, best_v, rows, failures = None, -1.0, [], 0
    z = pe.label_moments(1)[1][anchors, 0]  # pE[X_{u,0}]
    # marg[k, i, b] = pE[X_{v_i,b} X_{u_k,0}] over every anchor u_k and v_i in verts
    marg = pe.tuple_moments([(v, u) for u in anchors for v in verts])[..., 0]
    marg = marg.reshape(len(anchors), len(verts), pe.q)
    for k, u in enumerate(anchors):
        if z[k] < ANCHOR_FLOOR:
            failures += 1
            continue
        x = np.zeros(inst.vertex_count, dtype=np.int64)
        x[verts] = np.argmax(np.round(marg[k] / z[k], 12), axis=1)  # lexicographic tie-break
        x[u] = 0
        val = _scoped_value(inst, x, within)
        rows.append({"anchor": int(u), "value": val})
        if val > best_v + 1e-15:
            best_v, best_x = val, x
    if best_x is None:
        raise NearZeroEvent("every anchor's conditioning event was near zero")
    mean_v = float(np.mean([r["value"] for r in rows]))
    return best_x, {"anchors": rows, "best_value": best_v, "mean_value": mean_v,
                    "skipped_anchors": failures}


def _scoped_value(inst: UGInstance, x: np.ndarray, within: Optional[set]) -> float:
    if within is None:
        return ug_value(inst, x)
    inside = edges_inside(inst, within)
    if not inside.any():
        return 0.0
    w = inst.weight_array()[inside]
    return float(np.dot(satisfied_mask(inst, x)[inside], w) / np.sum(w))


# ---------------------------------------------------------------------------
# density events over subcubes


def find_event_subcube(inst: UGInstance, prod: ProductPE, cfg: RoundingConfig
                       ) -> tuple[tuple, int, EventPoly, dict]:
    """Enumerate restrictions |a| <= r and shifts s; score each candidate event
    and return the argmax (ties broken lexicographically on (|a|, a, s)).

    close-to-1 regime: event = density delta of G_s in J|_a (a within-budget
    stand-in for the step-thresholded density event); score = pE[P (delta -
    thr)] with thr = THR_SCALE * exp(-r).  low-completeness: score from the
    both-satisfied density with the maximality filter on proper
    sub-restrictions.  Every number is a mean of Z-moments of the product's
    joints; only the chosen event is built as a polynomial.
    """
    g = inst.graph_tag
    if g is None:
        raise ValueError("subcube search needs a Johnson graph tag")
    q, low = inst.q, cfg.regime == "low_completeness"
    eps_sched = pot.default_eps_schedule(max(cfg.r, 1), cfg.c if low else 1.0)
    Z2 = pot.z_pair_moments(prod, range(inst.vertex_count))
    ids = {a: Subcube(g, a).vertex_ids() if a else list(range(g.num_vertices))
           for j in range(cfg.r + 1) for a in itertools.combinations(range(g.n), j)}
    dens = {a: Z2.diagonal()[:, S].sum(1) / len(S) for a, S in ids.items()}  # pE[delta] per s
    rows = []
    for a, S in ids.items():
        j = len(a)
        # maximality filter: not maximal if G_s is already dense in a proper sub-restriction
        maximal = np.ones(q, dtype=bool)
        for b in itertools.chain.from_iterable(itertools.combinations(a, jj) for jj in range(j)):
            maximal &= dens[b] < eps_sched[len(b)]
        kind, p_event = "density", dens[a]
        if low:
            thr = THETA * cfg.c ** 2 * eps_sched[j] ** 2 / (20 * max(cfg.r, 1))
            score = _both_sat_moment(inst, prod, S) - thr * p_event
            floor = THETA * cfg.c ** 2 / (8 * max(cfg.r, 1) * g.ell ** j * q)
        else:
            thr = THR_SCALE * np.exp(-cfg.r)
            sq = Z2[np.ix_(S, S)].sum((0, 1)) / len(S) ** 2  # pE[delta^2]
            score = sq - thr * p_event
            if prod.degree >= 4 and (len(S) * q) ** 2 <= 2500:
                # the sharper soft-threshold event; its square stays
                # affordable as a conditioning weight only at this size
                V = list(itertools.product(S, repeat=3))
                cube = pot.shift_diagonal(prod.joint(V, V), 3).sum((0, 2)) / len(S) ** 3
                kind, p_event, score = "density_squared", sq, cube - thr * sq
            floor = float(THETA * sqrt(max(cfg.eps, 0.0)) / (q * g.ell ** j * np.exp(cfg.r)))
        rows += [{"a": list(a), "s": s, "score": float(score[s]) if maximal[s] else -np.inf,
                  "p_event": float(p_event[s]), "floor": floor, "maximal": bool(maximal[s]),
                  "event": kind} for s in range(q)]
    best = min((r for r in rows if r["maximal"]), default=None,
               key=lambda r: (-np.round(r["score"], 12), len(r["a"]), r["a"], r["s"]))
    if best is None or best["score"] <= 0.0:
        raise NoDenseSubcube("no candidate scored above zero")
    a, s = tuple(best["a"]), best["s"]
    event_poly = density_poly(inst, ids[a], s)
    if best["event"] == "density_squared":
        event_poly = poly_mul(event_poly, event_poly)
    chosen = {k: v for k, v in best.items() if k != "maximal"}
    chosen["floor_ok"] = best["p_event"] >= best["floor"] - 1e-12
    ev = EventPoly(event_poly, description=f"{best['event']}(G_{s}|{list(a)})")
    return a, s, ev, {"rows": rows, "chosen": chosen}


def _both_sat_moment(inst: UGInstance, prod: ProductPE, S: Sequence[int]) -> np.ndarray:
    """pE[delta(G_s) E_{u in S}[Z_{u,s} val^S_u(X and X')]] per shift s from the
    joints of (v, u, w), v in S and (u, w) an edge inside S: with Z_{u,s} and the
    edge satisfied on both copies, Z_{w,s} holds too."""
    q, L = inst.q, np.indices((inst.q,) * 3).reshape(3, -1)  # labels of (v, u, w)
    terms = [(u, x + y - u, c * ((L[1] - L[2] - (b if u == x else -b)) % q == 0))
             for u in S for k, c in inst.scoped_edges(u, set(S)) for x, y, b in [inst.edges[k]]]
    if not terms:
        return np.zeros(q)
    V = [(v, u, w) for v in S for u, w, _ in terms]
    D = pot.shift_diagonal(prod.joint(V, V), 3).reshape(len(S), len(terms), q, -1)
    return np.einsum("vesl,el->s", D, np.asarray([m for *_, m in terms])) / len(S) ** 2


# ---------------------------------------------------------------------------
# Raghavendra-Tan style global-correlation reduction


def rt_reduce(pe: PseudoExpectation, S: Sequence[int], E: EventPoly,
              cfg: RoundingConfig, p_floor: float
              ) -> tuple[PseudoExpectation, PseudoExpectation, dict]:
    """Greedy realization of the global-correlation reduction at finite degree.

    Repeatedly (deterministic seeded order) condition one copy on a vertex-pair
    value tuple, accepting a tuple iff the copy's average pairwise MI drops and
    the event keeps pE[E] >= p_floor / 2; the record's stop says why it ended:
    "tau", "degree" (a pair would leave the copy below degree 4), "no_gain",
    "budget" or "no_pairs".  Its mi_pairs counts the disjoint pairs each
    average runs over; with none (|S| < 4) nothing is measured: the stop is
    "no_pairs" and tau is not reached.  The MI reads four-vertex joints of one
    copy, so a copy of degree < 4 raises DegreeExhausted.  A copy that no
    tuple conditions is returned as pe itself.
    """
    S = [int(u) for u in S]
    mu = [pe, pe]
    p0 = ProductPE(mu[0], mu[1]).pE(E.poly)
    if p0 < p_floor * (1 - 1e-9) - 1e-12:
        raise NearZeroEvent(f"pE[E] = {p0} below the floor {p_floor}")
    chosen: list[dict] = []

    def mi_stats(side: int, prod: ProductPE) -> pot.MIStats:
        return pot.pairwise_mi(LocalDistributionCollection(prod), S, primed=side == 1,
                               max_pairs=MI_PAIR_BUDGET, seed=cfg.seed)

    # both copies are pe, and the primed average of ProductPE(pe, pe) is the
    # unprimed one, so the starting MI is measured once
    first = mi_stats(0, ProductPE(pe, pe))
    mis = [first.average] * 2
    mi_pairs = len(first.values)
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(TUPLE_BUDGET):
        side = 0 if mis[0] >= mis[1] else 1
        if max(mis) <= TAU:
            stop = "tau"
            break
        if mu[side].degree - 2 < 4:
            # conditioning on a pair would leave no headroom to even measure
            # the pairwise mutual information afterwards
            stop = "degree"
            break
        # candidate tuples: seeded vertex pair order, values by marginal mass
        pairs = list(itertools.combinations(S, 2))
        order = rng.permutation(len(pairs))
        cand = [pairs[int(t)] for t in order[:max(4, len(pairs) // 2)]]
        accepted = False
        for (u, v), joint in zip(cand, mu[side].tuple_moments(cand)):
            cells = sorted(((float(joint[a, b]), a, b) for a in range(pe.q)
                            for b in range(pe.q)), key=lambda c: (-round(c[0], 12),
                                                                  c[1], c[2]))
            for (mass, a, b) in cells[:2]:
                if mass < 10 * sos.FLOOR_COND:
                    continue
                ev = EventPoly({mul(var(u, a), var(v, b)): 1.0},
                               description=f"X_{u}={a} & X_{v}={b}")
                try:
                    cand = condition(mu[side], ev)
                except (NearZeroEvent, DegreeExhausted):
                    continue
                mu_try = list(mu)
                mu_try[side] = cand
                prod_try = ProductPE(mu_try[0], mu_try[1])
                p_now = prod_try.pE(E.poly)
                if p_now < p_floor / 2:
                    continue
                mi_new = mi_stats(side, prod_try).average
                if mi_new < mis[side] - 1e-12:
                    mu = mu_try
                    mis[side] = mi_new
                    chosen.append({"side": side, "u": int(u), "v": int(v),
                                   "values": [int(a), int(b)], "mi": mi_new,
                                   "p_event": p_now})
                    accepted = True
                    break
            if accepted:
                break
        if not accepted:
            stop = "no_gain"
            break
    else:
        stop = "tau" if max(mis) <= TAU else "budget"
    if mi_pairs == 0:
        stop = "no_pairs"   # both averages are empty and read 0.0, which passed the tau test
    p_final = ProductPE(mu[0], mu[1]).pE(E.poly)
    record = {"tuples": chosen, "mi_x": mis[0], "mi_xp": mis[1], "mi_pairs": mi_pairs,
              "p_event_before": p0, "p_event_after": p_final,
              "p_floor": p_floor, "floor_kept": p_final >= p_floor / 2 - 1e-12,
              "stop": stop, "budget_exhausted": stop == "budget", "tau": TAU,
              "reached_tau": stop == "tau"}
    return mu[0], mu[1], record


# ---------------------------------------------------------------------------
# conditioning keeps most local distributions intact (measured)


def tv_conditioning_check(prod: ProductPE, cond: ProductPE, S: Sequence[int],
                          cfg: RoundingConfig, tau_bar: float) -> dict:
    """Measured fraction of pairs (u,v) in S whose (Y_{u,v}, Y'_{u,v}) joint
    moves by >= delta in TV from prod to cond, its conditioning on an event,
    against the instantiated correlation bound 16 (sqrt(tau_bar) + 1/|S|) /
    (p_bar delta^2), where p_bar = cond.z is the event's mass under prod and
    tau_bar the average pairwise MI the reduction left on prod."""
    S = [int(u) for u in S]
    p_bar = cond.z
    pairs = list(itertools.combinations(S, 2))
    rng = np.random.default_rng(cfg.seed + 2)
    if len(pairs) > TV_PAIR_BUDGET:
        take = rng.choice(len(pairs), size=TV_PAIR_BUDGET, replace=False)
        pairs = [pairs[int(t)] for t in take]
    before, after = (pot.y_pair_joints(pe, S, pairs) for pe in (prod, cond))
    tvs = np.asarray([tv_distance(b, a) for b, a in zip(before, after)])
    frac = float(np.mean(tvs >= DELTA)) if len(tvs) else 0.0
    bound = TV_EXCEEDANCE_CONST * (sqrt(max(tau_bar, 0.0)) + 1.0 / len(S)) / (
        max(p_bar, 1e-12) * DELTA ** 2)
    return {"fraction_exceeding": frac, "tvs": [float(t) for t in tvs],
            "delta": DELTA, "tau_bar": tau_bar, "p_bar": p_bar,
            "bound": bound, "bound_ok": frac <= bound + 1e-9,
            "could_fail": bool(bound < 1.0),  # the fraction is at most 1
            "constant": TV_EXCEEDANCE_CONST}


# ---------------------------------------------------------------------------
# SubRound


def subround(inst: UGInstance, pe: PseudoExpectation,
             cfg: RoundingConfig) -> tuple[np.ndarray, dict]:
    """Pipeline: product -> find event/subcube -> rt_reduce -> condition on
    the event -> TV check -> symmetrize -> Condition&Round on each copy inside
    the subcube; returns the better assignment and the full record.  A
    solved table is shift-invariant and symmetrising it returns it, so when
    the reduction conditions neither copy (every D = 4 run) the two copies
    are one object: Condition&Round and Psi run once and fill both copies'
    entries."""
    g = inst.graph_tag
    if pe.degree < 4:
        raise ValueError("SubRound needs a degree >= 4 pseudoexpectation")
    record: dict = {}
    pe_sym = shift_symmetrize(pe)
    prod0 = product(pe_sym)
    try:
        a, _, P, diag = find_event_subcube(inst, prod0, cfg)
    except NoDenseSubcube as err:
        record["no_dense_subcube"] = str(err)
        x = np.zeros(inst.vertex_count, dtype=np.int64)
        record["value"] = ug_value(inst, x)
        record["subcube"] = []
        return x, record
    S = Subcube(g, a).vertex_ids() if len(a) else list(range(g.num_vertices))
    record["subcube"] = [int(u) for u in S]
    record["chosen"] = diag["chosen"]
    # the floor handed to the reduction is the measured event mass (the regime
    # floor is recorded separately in the search diagnostics)
    p_floor = max(diag["chosen"]["p_event"] * (1 - 1e-9), sos.FLOOR_COND)

    mu1, mu2, rt_rec = rt_reduce(pe_sym, S, P, cfg, p_floor)
    record["rt_reduce"] = rt_rec
    prod12 = ProductPE(mu1, mu2)
    cond12 = prod12.condition(P)
    tv_rec = tv_conditioning_check(prod12, cond12, S, cfg, max(rt_rec["mi_x"], rt_rec["mi_xp"]))
    record["tv_check"] = tv_rec

    record["phi_before"] = {"phi": pot.phi_potential(prod12, S)}
    record["phi_conditioned"] = {"phi": pot.phi_potential(cond12, S)}

    mu1s, mu2s = shift_symmetrize(mu1), shift_symmetrize(mu2)
    x1, rec1 = condition_and_round(mu1s, inst, scope=S)
    x2, rec2 = (x1, rec1) if mu2s is mu1s else condition_and_round(mu2s, inst, scope=S)
    v1, v2 = rec1["best_value"], rec2["best_value"]
    x, rec, v = (x1, rec1, v1) if v1 >= v2 else (x2, rec2, v2)
    record["round_copy"] = 0 if v1 >= v2 else 1
    record["cr_records"] = [{"best": rec1["best_value"], "mean": rec1["mean_value"]},
                            {"best": rec2["best_value"], "mean": rec2["mean_value"]}]
    record["value"] = v

    # measured guarantee components (round-j) and the potential-relation check
    gamma_m = record["phi_conditioned"]["phi"]
    delta_m, zeta_m = DELTA, tv_rec["fraction_exceeding"]
    guarantee = (BETA - NU) ** 2 * (
        gamma_m - ROUND_J_CONST * (delta_m + zeta_m) - 1.0 / len(S)) \
        - 3 * NU * (BETA - NU)
    record["rounding_guarantee"] = {"phi": gamma_m, "delta": delta_m, "zeta": zeta_m,
                         "guarantee": guarantee, "achieved": v,
                         "constant": ROUND_J_CONST,
                         "ok": v >= guarantee - 1e-6,
                         "could_fail": bool(guarantee > 0.0)}  # the value is at least 0
    psi1 = pot.psi_potential(mu1s, inst, scope=S)
    psi2 = psi1 if mu2s is mu1s else pot.psi_potential(mu2s, inst, scope=S)
    bn = BETA - NU
    rel_rhs = psi1 / (2 * bn ** 2) + psi2 / (2 * bn ** 2) + 3 * NU / bn \
        + 2 * delta_m + 2 * zeta_m + 1.0 / len(S)
    record["potential_relation"] = {"phi": gamma_m, "psi1": psi1, "psi2": psi2,
                              "rhs": rel_rhs, "slack": rel_rhs - gamma_m,
                              "ok": gamma_m <= rel_rhs + 1e-6,
                              "could_fail": bool(rel_rhs < 1.0)}  # Phi is at most 1
    return x, record


# ---------------------------------------------------------------------------
# the iterated main algorithm


def main_algorithm(inst: UGInstance, cfg: RoundingConfig,
                   witness: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, RoundingTrace]:
    """Iterate: solve the relaxation, SubRound a subcube, freeze its new
    vertices, randomize the edges it touches, repeat until gamma/2 coverage or
    n iterations; output the completion with label 0 on unassigned."""
    g = inst.graph_tag
    if g is None:
        raise ValueError("main_algorithm needs a Johnson graph tag")
    n = inst.vertex_count
    # the trace echoes the fixed parameters with the config: it says what it ran with
    trace = RoundingTrace(config=asdict(cfg) | {
        "beta": BETA, "nu": NU, "tau": TAU, "delta": DELTA, "thr_scale": THR_SCALE,
        "anchor_budget": ANCHOR_BUDGET, "tuple_budget": TUPLE_BUDGET,
        "mi_pair_budget": MI_PAIR_BUDGET, "tv_pair_budget": TV_PAIR_BUDGET})
    current = inst
    covered: set[int] = set()
    labels = np.full(n, -1, dtype=np.int64)
    rng = np.random.default_rng(cfg.seed + 1000)
    j = 0
    while len(covered) < cfg.gamma / 2 * n and j < n:
        j += 1
        rel = sos.relax(current, cfg.degree)
        pe = sos.solve(rel, seed=cfg.seed + j)
        x_sub, rec = subround(current, pe, cfg)
        rec["iteration"] = j
        rec["solver"] = pe.solve_info
        if rec.get("no_dense_subcube"):
            rec["assigned_new"] = []
            rec["stalled"] = True
            trace.records.append(rec)
            break
        C = set(rec["subcube"]) if rec.get("subcube") else set(range(n))
        S_new = sorted(C - covered)
        if not S_new:
            rec["assigned_new"] = []
            rec["stalled"] = True
            trace.records.append(rec)
            break
        for u in S_new:
            labels[u] = x_sub[u]
        before = set(covered)
        covered |= C
        rec["assigned_new"] = [int(u) for u in S_new]
        rec["disjoint_ok"] = not (set(S_new) & before)
        new_inst = randomize_edges(current, sorted(covered), seed=cfg.seed + 7000 + j)

        # per-iteration value-drop bound, measured with the best available witness
        drop_rec = {}
        if witness is not None:
            v_orig = ug_value(inst, witness)
            v_now = ug_value(new_inst, witness)
            bound = v_orig - 2 * len(covered) / n
            drop_rec = {"witness_value_original": v_orig, "witness_value_now": v_now,
                        "bound": bound, "ok": v_now >= bound - 1e-12}
        rec["value_drop"] = drop_rec

        # randomized-edge satisfaction ceiling, spot-checked on sampled assignments
        # edges with an endpoint in `covered`: those not inside the uncovered rest
        rand = ~edges_inside(new_inst, set(range(n)) - covered)
        ceiling_rec = {"edges_randomized": int(np.count_nonzero(rand))}
        if rand.any():
            w = new_inst.weight_array()[rand]
            w = w / w.sum()
            worst = 0.0
            for _ in range(100):
                xr = rng.integers(0, inst.q, size=n)
                sat = satisfied_mask(new_inst, xr)[rand]
                worst = max(worst, float(np.dot(sat.astype(float), w)))
            ceiling_rec.update({"max_sampled_value": worst,
                                "ceiling": 2.0 / inst.q + 0.1,
                                "ok": worst <= 2.0 / inst.q + 0.1})
        rec["chernoff"] = ceiling_rec

        # per-iteration satisfied-fraction accounting, measured components
        e_new = edges_inside(current, S_new)
        n_sub = int(np.count_nonzero(edges_inside(current, C)))
        sat_new = int(np.count_nonzero(satisfied_mask(current, x_sub) & e_new))
        rec["iteration_value"] = {
            "sat_on_new": sat_new, "edges_new": int(np.count_nonzero(e_new)),
            "edges_subcube": n_sub, "global_fraction": sat_new / current.num_edges,
            "analytic_rhs": (rec["value"] * (1 - g.alpha) ** cfg.r * len(C) / (2 * n))
            if n_sub else 0.0,
        }
        # cumulative fraction of original edges satisfied by frozen labels
        # (both endpoints assigned); nondecreasing since labels only accrue
        completed = labels.copy()
        completed[completed < 0] = 0
        done = edges_inside(inst, np.flatnonzero(labels >= 0)) & satisfied_mask(inst, completed)
        cum = sum(inst.weight_array()[done].tolist())
        prev = trace.records[-1]["cumulative_fraction"] if trace.records else 0.0
        rec["cumulative_fraction"] = cum
        rec["cumulative_nondecreasing"] = cum >= prev - 1e-12
        trace.records.append(rec)
        current = new_inst
        if len(C) >= n:
            break
    labels[labels < 0] = 0
    final_v = ug_value(inst, labels)
    trace.final_value = final_v
    trace.assignment = [int(v) for v in labels]
    return labels, trace
