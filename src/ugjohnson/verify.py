"""Named invariant suites behind `ugjohnson verify --suite ...`.

Each suite returns a JSON-ready report with an overall `ok` flag; the CLI
exit code is 0 iff the flag is set.  The pytest acceptance tests drive the
same entry points at their stated tolerances.
"""

from __future__ import annotations

import itertools
import numpy as np

from . import cayley, johnson, potentials as pot, rounding, sos, steppoly, ug_core


def _spectra_domains(limit: int = 30_000):
    out = []
    for ell in range(2, 8):
        for n in range(ell + 1, 200):
            if n ** ell > limit:
                break
            for t in range(1, ell):
                out.append((n, ell, t))
    return out


def suite_spectra(seed: int = 0, limit: int = 30_000) -> dict:
    """Eigenvalue formula vs the numeric spectrum of the explicit walk, for
    every (n, l, alpha) with n^l <= limit, plus lambda(d) <= (1-alpha)^d."""
    worst = 0.0
    worst_dom = None
    count = 0
    mono_ok = True
    for (n, ell, t) in _spectra_domains(limit):
        dom = cayley.CayleyDomain(n, ell, t)
        spec = dom.numeric_spectrum()
        deg = dom.degree_index()
        lam = np.asarray([dom.eigenvalue(d) for d in range(ell + 1)])
        resid = float(np.abs(spec - lam[deg]).max())
        if resid > worst:
            worst, worst_dom = resid, (n, ell, t)
        for d in range(ell + 1):
            if lam[d] > (1 - dom.alpha) ** d + 1e-12:
                mono_ok = False
        count += 1
    # literal dense-matrix eigendecomposition cross-check at tiny scale
    dense_ok = True
    for (n, ell, t) in [(3, 2, 1), (4, 2, 1), (3, 3, 1), (3, 3, 2)]:
        dom = cayley.CayleyDomain(n, ell, t)
        P = dom.dense_transition_matrix()
        ev_num = np.sort(np.linalg.eigvalsh((P + P.T) / 2))
        deg = dom.degree_index().reshape(-1)
        ev_formula = np.sort(np.asarray([dom.eigenvalue(int(d)) for d in deg]))
        dense_ok &= bool(np.abs(ev_num - ev_formula).max() <= 1e-9)
    ok = worst <= 1e-9 and mono_ok and dense_ok
    return {"ok": ok, "domains": count, "max_residual": worst,
            "worst_domain": worst_dom, "monotone_ok": mono_ok,
            "dense_crosscheck_ok": dense_ok,
            "summary": f"{count} domains, max residual {worst:.2e}"}


def _random_invariant(dom: cayley.CayleyDomain, rng, boolean: bool = False):
    F = rng.random(dom.shape)
    F = cayley.symmetrize_perm(dom, F)
    if boolean:
        F = (F > rng.uniform(0.2, 0.8)).astype(float)
    return F


def suite_parseval(seed: int = 0, trials: int = 100) -> dict:
    """Parseval, the second-moment identity, and both restriction identities on
    random permutation-invariant functions over n=3, l in {2,3}."""
    rng = np.random.default_rng(seed)
    worst = {"parseval": 0.0, "reconstruction": 0.0, "second_moment": 0.0,
             "recursion": 0.0, "inclusion_exclusion": 0.0}
    per_domain = max(1, trials // 2)
    for ell in (2, 3):
        dom = cayley.CayleyDomain(3, ell, 1)
        for _ in range(per_domain):
            F = _random_invariant(dom, rng)
            dec = cayley.level_decompose(dom, F)
            worst["parseval"] = max(worst["parseval"], dec.parseval_residual())
            worst["reconstruction"] = max(worst["reconstruction"],
                                          dec.reconstruction_residual())
            for i in range(ell + 1):
                worst["second_moment"] = max(worst["second_moment"],
                                             cayley.second_moment_identity(dom, F, i))
                fa = cayley.f_i_fourier(dom, F, i)
                fb = cayley.f_i_restriction(dom, F, i)
                worst["inclusion_exclusion"] = max(
                    worst["inclusion_exclusion"], float(np.abs(fa - fb).max()))
            for i in range(ell - 1):
                worst["recursion"] = max(
                    worst["recursion"], cayley.restriction_recursion_residual(dom, F, i))
    ok = all(v <= 1e-9 for v in worst.values())
    return {"ok": ok, "worst": worst, "trials": 2 * per_domain,
            "summary": "max residual "
                       f"{max(worst.values()):.2e} over {2 * per_domain} functions"}


def suite_steppoly(seed: int = 0) -> dict:
    rows = []
    ok = True
    for beta in (0.3, 0.5, 0.7):
        for nu in (0.05, 0.1):
            p = steppoly.build(beta, nu)
            rep = p.meta["verification"]
            rows.append({"beta": beta, "nu": nu, "degree": p.degree,
                         "ok": rep["ok"], "approx_err": rep["approx_err"],
                         "markov_lower_margin": rep["markov_lower_margin"],
                         "markov_upper_margin": rep["markov_upper_margin"]})
            ok &= rep["ok"]
    return {"ok": ok, "rows": rows, "summary": f"{len(rows)} polynomials verified"}


def suite_potentials(seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    checks = {}
    g = johnson.build(8, 4, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.1, seed + 1))
    base = steppoly.build(0.7, 0.1)
    ok = True
    worst_slack = np.inf
    for a in itertools.combinations(range(8), 1):
        sub = johnson.subcube(g, a)
        for trial in range(3):
            xp = (A + (rng.random(g.num_vertices) < 0.3 * trial)) % 2
            rep = pot.potential_restriction_check(inst, A, xp.astype(int), sub, base, shift=0.5)
            ok &= rep["ok"]
            worst_slack = min(worst_slack, rep["slack"])
    checks["potential_restriction"] = {"ok": ok, "worst_slack": worst_slack}
    # shift-variable identities on a solved product
    g4 = johnson.build(4, 2, 0.5)
    inst4, _ = ug_core.plant(g4, 2, ug_core.PlantedSpec(0.3, seed + 2))
    pe = sos.solve(sos.relax(inst4, 4))
    prod = sos.product(pe)
    zrep = sos.z_identities_report(prod, inst4, seed=seed)
    checks["z_identities"] = zrep | {"ok": max(zrep.values()) <= 1e-9}
    # psi on a uniform table has the closed form
    n, q = inst4.vertex_count, 2
    peU = sos.SolvedPE(n, q, 4, sos.uniform_reduced_table(n, q, 4))
    psi = pot.psi_potential(peU, inst4)
    expected = (1 / n) * (1 / q) + (1 - 1 / n) * (1 / q ** 2)
    checks["psi_uniform"] = {"value": psi, "expected": expected,
                             "ok": abs(psi - expected) <= 1e-9}
    all_ok = all(c["ok"] for c in checks.values())
    return {"ok": all_ok, "checks": checks,
            "summary": f"potential-restriction worst slack {worst_slack:.3f}"}


def suite_edgecover(seed: int = 0, pairs: int = 30) -> dict:
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for (n, ell) in ((8, 2), (10, 2)):
        g = johnson.build(n, ell, 0.5)
        inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, seed + n))
        N = g.num_vertices
        for k in range(pairs):
            kind = k % 3
            if kind == 0:
                x, xp = A, (A + rng.integers(0, 2)) % 2
            elif kind == 1:
                flip = rng.random(N) < 0.15
                x, xp = A, (A + flip) % 2
            else:
                x, xp = rng.integers(0, 2, N), rng.integers(0, 2, N)
            dec = pot.edge_cover_decompose(g, inst, np.asarray(x), np.asarray(xp), 1)
            count_ok = all(r["bridge_excess"] <= 1e-9 for r in dec["count_report"])
            rows.append({"n": n, "kind": kind, "slack": dec["slack"],
                         "bridge": dec["bridge_excess"], "count_ok": count_ok})
            ok &= dec["slack"] >= -1e-9 and count_ok
    worst = min(r["slack"] for r in rows)
    return {"ok": ok, "pairs": len(rows), "worst_slack": worst,
            "summary": f"{len(rows)} pairs, worst covering slack {worst:.4f}"}


def suite_pipeline(seed: int = 0) -> dict:
    g = johnson.build(4, 2, 0.5)
    inst, A = ug_core.plant(g, 2, ug_core.PlantedSpec(0.0, seed))
    cfg = rounding.RoundingConfig.for_instance(inst, eps=0.0, degree=4, seed=seed)
    x, trace = rounding.main_algorithm(inst, cfg, witness=A)
    _, opt = ug_core.brute_force_opt(inst)
    rec = trace.records[0]
    checks = {
        "value": {"achieved": trace.final_value, "opt": opt,
                  "ok": trace.final_value >= 0.9 * opt},
        "rounding_guarantee": {"ok": rec["rounding_guarantee"]["ok"]},
        "potential_relation": {"ok": rec["potential_relation"]["ok"]},
        "tv_bound": {"ok": rec["tv_check"]["bound_ok"]},
        "disjoint": {"ok": rec["disjoint_ok"]},
    }
    ok = all(c["ok"] for c in checks.values())
    return {"ok": ok, "checks": checks,
            "summary": f"achieved {trace.final_value:.3f} vs OPT {opt:.3f}"}
