"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and runtime ceiling is pinned here; nothing is deferred.
"""

import itertools
import time

import numpy as np
import pytest

from ugjohnson import (cayley, johnson, potentials as pot, sos, steppoly, ug_core,
                       verify)
from ugjohnson.monomials import ONE, EventPoly, poly_mul
from ugjohnson.rounding import RoundingConfig, main_algorithm, rt_reduce


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# 1. spectral oracle


def test_criterion_01_spectral_oracle():
    t0 = time.time()
    rep = verify.suite_spectra(limit=30_000)
    dt = time.time() - t0
    _report(1, rep["ok"] and dt < 10.0,
            f"{rep['domains']} domains, max residual {rep['max_residual']:.2e}, "
            f"{dt:.1f}s")


# --------------------------------------------------------------------------
# 2. Fourier calculus


def test_criterion_02_fourier_calculus():
    t0 = time.time()
    rep = verify.suite_parseval(seed=0, trials=100)
    dt = time.time() - t0
    worst = max(rep["worst"].values())
    _report(2, rep["ok"] and dt < 30.0,
            f"{rep['trials']} invariant functions, worst residual {worst:.2e}, "
            f"{dt:.1f}s")


# --------------------------------------------------------------------------
# 3. expansion theorem (numeric)


def test_criterion_03_expansion_theorem():
    t0 = time.time()
    rng = np.random.default_rng(3)
    configs = [(3, 2, 1), (3, 3, 1), (3, 3, 2), (4, 2, 1)]
    checked = pseudorandom_count = 0
    worst_slack = np.inf
    ok = True
    while checked < 50:
        n, ell, t = configs[checked % len(configs)]
        dom = cayley.CayleyDomain(n, ell, t)
        F = cayley.symmetrize_perm(dom, (rng.random(dom.shape) <
                                         rng.uniform(0.05, 0.6)).astype(float))
        F = (F > 0.5).astype(float)
        r = int(rng.integers(0, ell))
        gamma = float(rng.choice([0.05, 0.2, 0.5, 0.8]))
        rep = cayley.expansion_certificate(dom, F, r, gamma)
        ok &= rep["ok"] and rep["qa_in_range"]
        worst_slack = min(worst_slack, rep["slack"])
        if cayley.pseudorandomness(dom, F, r, gamma).passed:
            pseudorandom_count += 1
            ok &= rep["correction_term"] <= 1e-9
        checked += 1
    dt = time.time() - t0
    _report(3, ok and dt < 60.0 and pseudorandom_count >= 5,
            f"{checked} Boolean invariant functions ({pseudorandom_count} "
            f"pseudorandom), min slack {worst_slack:.3e}, {dt:.1f}s")


# --------------------------------------------------------------------------
# 4. step polynomial suite


def test_criterion_04_step_polynomials():
    t0 = time.time()
    rep = verify.suite_steppoly()
    dt = time.time() - t0
    margins = [min(r["markov_lower_margin"], r["markov_upper_margin"])
               for r in rep["rows"]]
    _report(4, rep["ok"] and dt < 10.0 and min(margins) >= -1e-9,
            f"6 polynomials, min markov margin {min(margins):.3e}, {dt:.1f}s")


# --------------------------------------------------------------------------
# 5. pseudoexpectation validity


POOL_D2 = [
    (4, 2, 2, 0.0, 1), (4, 2, 2, 0.5, 2), (4, 2, 3, 0.3, 3), (4, 2, 4, 0.6, 4),
    (5, 2, 2, 0.2, 5), (5, 2, 2, 1.0, 6), (5, 2, 3, 0.4, 7), (6, 2, 2, 0.3, 8),
    (6, 2, 2, 0.7, 9), (6, 2, 2, 0.0, 10),
]
POOL_D4 = [
    (4, 2, 2, 0.4, 11), (4, 2, 2, 1.0, 12), (4, 2, 3, 0.25, 13),
    (4, 2, 3, 0.6, 14), (4, 2, 4, 0.5, 15), (5, 2, 2, 0.3, 16),
    (5, 2, 2, 0.8, 17), (6, 2, 2, 0.5, 18), (6, 2, 2, 0.9, 19),
    (4, 2, 3, 1.0, 20),
]


def test_criterion_05_pseudoexpectation_validity():
    t0 = time.time()
    rng = np.random.default_rng(5)
    solved = 0
    ok = True
    details = []
    for D, pool in ((2, POOL_D2), (4, POOL_D4)):
        for (n, ell, q, eps, seed) in pool:
            g = johnson.build(n, ell, 0.5)
            inst, A = ug_core.plant(g, q, ug_core.PlantedSpec(eps, seed))
            pe = sos.solve(sos.relax(inst, D))
            rep = sos.validate(pe)
            _, opt = ug_core.brute_force_opt(inst)
            dominance = pe.solve_info["objective"] >= opt - 1e-6
            resid_ok = (rep["scaling_residual"] <= 1e-6
                        and rep["partition_residual"] <= 1e-6
                        and rep["booleanity_residual"] <= 1e-6
                        and rep["min_eig"] >= -sos.TOL_PSD)
            # pseudo-Cauchy-Schwarz on random low-degree pairs (5 per instance)
            from ugjohnson.monomials import var
            monos = [ONE] + [var(u, a) for u in range(inst.vertex_count)
                             for a in range(q)]
            cs_ok = True
            for _ in range(5):
                f = {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
                     for _ in range(3)}
                h = {monos[int(rng.integers(len(monos)))]: float(rng.standard_normal())
                     for _ in range(3)}
                cs_ok &= pe.pE(poly_mul(f, h)) ** 2 <= \
                    pe.pE(poly_mul(f, f)) * pe.pE(poly_mul(h, h)) + 1e-9
            # product val-intersection
            prod = sos.product(pe)
            lhs = sum(float(w) * prod.pE(poly_mul(sos.edge_sat_poly(inst, k, 0),
                                                  sos.edge_sat_poly(inst, k, 1)))
                      for k, w in enumerate(inst.weight_array()))
            inter_ok = lhs >= pe.value(inst) ** 2 - 1e-9
            inst_ok = dominance and resid_ok and cs_ok and inter_ok
            ok &= inst_ok
            solved += 1
            if not inst_ok:
                details.append((n, ell, q, eps, D, rep, opt,
                                pe.solve_info["objective"]))
    dt = time.time() - t0
    _report(5, ok and solved >= 20 and dt < 300.0,
            f"{solved} instances solved (D in {{2,4}}), {dt:.0f}s"
            + (f"; failures: {details}" if details else ""))


# --------------------------------------------------------------------------
# 6. shift machinery


def test_criterion_06_shift_machinery():
    t0 = time.time()
    ok = True
    # z-variable identities: exact on integral pairs
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 3, ug_core.PlantedSpec(0.2, 6))
    rng = np.random.default_rng(6)
    xp = rng.integers(0, 3, g.num_vertices)
    prod_i = sos.ProductPE(sos.from_assignment(A, 3), sos.from_assignment(xp, 3))
    rep_i = sos.z_identities_report(prod_i, inst)
    ok &= max(rep_i.values()) <= 1e-12
    # ... and to 1e-9 on solver outputs
    pe = sos.solve(sos.relax(inst, 4))
    rep_s = sos.z_identities_report(sos.product(pe), inst)
    ok &= max(rep_s.values()) <= 1e-9
    # Claim potentials on every 1-restriction of J(8,4,2) with r = 1
    g8 = johnson.build(8, 4, 0.5)
    inst8, A8 = ug_core.plant(g8, 2, ug_core.PlantedSpec(0.15, 8))
    eps = (1 / 50) ** 2            # 32 sqrt(eps) / alpha floors to r = 1
    r = int(32 * np.sqrt(eps) / g8.alpha)
    assert r == 1
    base = steppoly.build(0.3, 0.1)
    base_hi = steppoly.build(0.7, 0.1)
    boundary = 1 - 3 / 6
    worst = np.inf
    for a in itertools.combinations(range(8), r):
        sub = johnson.subcube(g8, a)
        for xp8 in (A8, (A8 + 1) % 2, rng.integers(0, 2, g8.num_vertices)):
            rep = pot.potential_restriction_check(inst8, A8, np.asarray(xp8), sub,
                                             base, shift=200 * np.sqrt(eps))
            ok &= rep["ok"]
            worst = min(worst, rep["slack"])
            rep2 = pot.potential_restriction_check(inst8, A8, np.asarray(xp8), sub,
                                              base_hi, shift=boundary)
            ok &= rep2["ok"]
            worst = min(worst, rep2["slack"])
    dt = time.time() - t0
    _report(6, ok, f"z-identities exact/1e-9; potential-restriction over all "
                   f"{8} subcubes, worst slack {worst:.3e}, {dt:.0f}s")


# --------------------------------------------------------------------------
# 7. information suite


def test_criterion_07_information_suite():
    t0 = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for k in range(1000):
        dims = tuple(rng.integers(2, 5, size=2))
        j = rng.random(dims) ** 2
        j /= j.sum()
        mi = pot.mutual_information(j, (0,), (1,))
        ok &= mi >= -1e-9
        ok &= pot.pinsker_check(j, (0,), (1,))["residual"] >= -1e-9
        gmap = rng.integers(0, 2, dims[0])
        hmap = rng.integers(0, 2, dims[1])
        ok &= pot.data_processing_check(j, gmap, hmap)["residual"] >= -1e-9
    # rt_reduce drives a two-cluster mixture below tau while keeping the event
    g = johnson.build(5, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, 70))
    B = rng.integers(0, 2, 10)
    pe = sos.shift_symmetrize(sos.mixture(
        [(sos.from_assignment(A, 2), 0.5), (sos.from_assignment(B, 2), 0.5)]))
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, tau=0.01,
                                      tuple_budget=8)
    mu1, mu2, rec = rt_reduce(pe, inst, range(10), EventPoly({ONE: 1.0}),
                              cfg, p_floor=1.0)
    rt_ok = (rec["reached_tau"] and max(rec["mi_x"], rec["mi_xp"]) <= 0.01
             and rec["p_event_after"] >= 0.5 - 1e-9)
    dt = time.time() - t0
    _report(7, ok and rt_ok,
            f"1000 joints clean; rt_reduce MI ({rec['mi_x']:.4f}, "
            f"{rec['mi_xp']:.4f}) <= 0.01 with event kept, {dt:.0f}s")


# --------------------------------------------------------------------------
# 8. edge covering


def test_criterion_08_edge_covering():
    t0 = time.time()
    rng = np.random.default_rng(8)
    pairs = 0
    ok = True
    worst = np.inf
    for (n, seed) in ((8, 81), (10, 82)):
        g = johnson.build(n, 2, 0.5)
        inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, seed))
        N = g.num_vertices
        for k in range(50):
            kind = k % 3
            if kind == 0:
                x, xp = A, (A + rng.integers(0, 2)) % 2
            elif kind == 1:
                x, xp = A, (A + (rng.random(N) < 0.2)) % 2
            else:
                x, xp = rng.integers(0, 2, N), rng.integers(0, 2, N)
            dec = pot.edge_cover_decompose(g, inst, np.asarray(x, dtype=int),
                                           np.asarray(xp, dtype=int), 1)
            ok &= dec["slack"] >= -1e-9
            ok &= all(r["count_mean"] <= r["bound"] + r["bridge_excess"] + 1e-12
                      for r in dec["count_report"])
            worst = min(worst, dec["slack"])
            pairs += 1
    dt = time.time() - t0
    _report(8, ok and pairs >= 100 and dt < 120.0,
            f"{pairs} integral pairs on J(8,2,1)+J(10,2,1), worst slack "
            f"{worst:.4f}, {dt:.0f}s")


# --------------------------------------------------------------------------
# 9-11. end-to-end runs (shared fixture)


@pytest.fixture(scope="module")
def e2e_runs():
    runs = {}
    g = johnson.build(8, 2, 0.5)
    t_close = time.time()
    for q in (2, 3):
        for eps in (0.0, 0.05):
            inst, A = ug_core.plant(g, q, ug_core.PlantedSpec(eps, 100 + q))
            cfg = RoundingConfig.for_instance(inst, eps=eps, degree=4,
                                              seed=10 * q + int(eps * 100))
            x, trace = main_algorithm(inst, cfg, witness=A)
            runs[("close", q, eps)] = (inst, A, trace)
    t_close = time.time() - t_close
    t_rand = time.time()
    for q in (2, 3):
        inst, A = ug_core.plant(g, q, ug_core.PlantedSpec(1.0, 200 + q))
        cfg = RoundingConfig.for_instance(inst, eps=1.0, degree=4, seed=30 + q)
        x, trace = main_algorithm(inst, cfg, witness=A)
        runs[("random", q, 1.0)] = (inst, A, trace)
    t_rand = time.time() - t_rand
    runs["_timing"] = (t_close, t_rand)
    return runs


def test_criterion_09_end_to_end_close_to_1(e2e_runs):
    t_close, _ = e2e_runs["_timing"]
    ok = True
    lines = []
    for q in (2, 3):
        v0 = e2e_runs[("close", q, 0.0)][2].final_value
        v5 = e2e_runs[("close", q, 0.05)][2].final_value
        ok &= v0 >= 0.9 and v5 >= 0.5
        lines.append(f"q={q}: eps=0 -> {v0:.3f}, eps=.05 -> {v5:.3f}")
    # determinism: rerun the cheapest configuration and compare traces
    inst, A, trace = e2e_runs[("close", 2, 0.0)]
    cfg = RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=20)
    _, ta = main_algorithm(inst, cfg, witness=A)
    _, tb = main_algorithm(inst, cfg, witness=A)
    ok &= ta.to_json() == tb.to_json()
    ok &= t_close < 600.0
    _report(9, ok, "; ".join(lines) + f"; deterministic; {t_close:.0f}s")


def test_criterion_10_sanity_floors(e2e_runs):
    _, t_rand = e2e_runs["_timing"]
    ok = True
    lines = []
    for q in (2, 3):
        v = e2e_runs[("random", q, 1.0)][2].final_value
        ok &= v >= 1.0 / q - 0.05
        lines.append(f"q={q}: {v:.3f} >= {1/q - 0.05:.3f}")
    # measured relating-ent-j and round-j inequalities on every SubRound call
    checked = 0
    for key, val in e2e_runs.items():
        if key == "_timing":
            continue
        for rec in val[2].records:
            if "potential_relation" in rec:
                ok &= rec["potential_relation"]["ok"] and rec["rounding_guarantee"]["ok"]
                checked += 1
    _report(10, ok and checked >= 6,
            "; ".join(lines) + f"; {checked} SubRound invocations clean "
            f"({t_rand:.0f}s)")


def test_criterion_11_iteration_accounting(e2e_runs):
    ok = True
    runs = drops = ceilings = 0
    for key, val in e2e_runs.items():
        if key == "_timing":
            continue
        inst, A, trace = val
        seen = set()
        for rec in trace.records:
            new = set(rec["assigned_new"])
            ok &= not (new & seen) and rec["disjoint_ok"]
            seen |= new
            if rec["value_drop"]:
                ok &= rec["value_drop"]["ok"]
                drops += 1
            if rec["chernoff"].get("edges_randomized"):
                ok &= rec["chernoff"]["max_sampled_value"] <= 2.0 / inst.q + 0.1
                ceilings += 1
        runs += 1
    _report(11, ok and drops >= 6 and ceilings >= 6,
            f"{runs} runs: value-drop bounds and disjointness exact, "
            f"{ceilings} randomized-edge ceilings within 2/q + 0.1")
