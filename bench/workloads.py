"""The benchmark's workloads: instances made from a seed, one operation per
instance through the public API, and a check of every operation's output.

Import this module only after the BLAS thread variables are set: it imports
numpy through `ugjohnson`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

from ugjohnson import johnson, rounding, sos, ug_core

# every record's trace and every solve's report must meet these
ROUND_VALUE_FLOOR = {0.0: 0.9, 0.05: 0.5}   # acceptance criterion 9
OBJECTIVE_SLACK = 1e-6
# planted noise for the solve workloads: high enough that the planted instance
# is reliably unsatisfiable, so the SDP solver runs instead of the warm certificate
SOLVE_EPS = 0.5


@dataclass
class Case:
    label: str
    inst: ug_core.UGInstance
    planted: object          # the planted assignment
    eps: float
    seed: int


@dataclass
class Outcome:
    problems: list = field(default_factory=list)  # failed output checks
    solves: int = 0
    uncertified: int = 0
    gaps: list = field(default_factory=list)
    value: float = 0.0
    digest: bytes = b""      # deterministic output bytes, hashed by the runner


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]     # seed -> cases (johnson.build + ug_core.plant)
    run: Callable[[Case], Outcome]   # one closed-loop operation


def _plant_all(specs, eps: float, seed: int) -> list[Case]:
    graphs: dict = {}
    cases = []
    for k, (n, ell, q) in enumerate(specs):
        if (n, ell) not in graphs:
            graphs[(n, ell)] = johnson.build(n, ell, 0.5)
        plant_seed = 1000 * seed + k
        inst, planted = ug_core.plant(graphs[(n, ell)], q, ug_core.PlantedSpec(eps, plant_seed))
        cases.append(Case(f"J({n},{ell},{ell // 2}) q={q}", inst, planted, eps, plant_seed))
    return cases


def _round(case: Case) -> Outcome:
    cfg = rounding.RoundingConfig.for_instance(case.inst, eps=case.eps, degree=4,
                                               seed=case.seed)
    _, trace = rounding.main_algorithm(case.inst, cfg, witness=case.planted)
    out = Outcome(value=trace.final_value, digest=trace.to_json().encode())
    floor = ROUND_VALUE_FLOOR[case.eps]
    if not trace.final_value >= floor:
        out.problems.append(f"final_value {trace.final_value} < {floor}")
    for rec in trace.records:
        info = rec["solver"]
        out.solves += 1
        out.uncertified += not info["certified"]
        if math.isfinite(info["gap"]):
            out.gaps.append(info["gap"])
        if "potential_relation" in rec:
            for key in ("potential_relation", "rounding_guarantee"):
                if not rec[key]["ok"]:
                    out.problems.append(f"iteration {rec['iteration']}: {key} not ok")
    return out


def _solve(D: int) -> Callable[[Case], Outcome]:
    def op(case: Case) -> Outcome:
        pe = sos.solve(sos.relax(case.inst, D))
        rep = sos.validate(pe)
        info = pe.solve_info
        out = Outcome(solves=1, uncertified=int(not info["certified"]),
                      value=info["objective"])
        if math.isfinite(info["gap"]):
            out.gaps.append(info["gap"])
        out.digest = json.dumps({k: info.get(k) for k in ("method", "objective", "gap", "status")},
                                sort_keys=True).encode()
        # rep["ok"]: scaling, partition, Booleanity and pair-marginal residuals
        # <= 1e-6, no negative pair-marginal entry below -1e-6, min_eig >= -TOL_PSD
        if not rep["ok"]:
            out.problems.append("validate not ok: " + json.dumps(
                {k: v for k, v in rep.items() if k.endswith(("residual", "min_entry"))}))
        # rep["ok"] also holds when no moment matrix could be built; that fails here
        if rep["min_eig"] is None:
            out.problems.append("validate built no moment matrix")
        if not info["objective"] >= info["warm_value"] - OBJECTIVE_SLACK:
            out.problems.append(f"objective {info['objective']} below warm start "
                                f"{info['warm_value']}")
        return out
    return op


WORKLOADS = {w.name: w for w in (
    # warm start is integral-optimal: no SDP iteration, the moment oracle does the work.
    # Left out of BENCHMARK.json: its one 30-40 s operation fills a whole run, so a run
    # holds one pass, batch_s is one sample and the pass-to-pass output check never runs
    Workload("round_warm", lambda seed: _plant_all([(8, 2, 3)], 0.0, seed), _round),
    # moment side 407 is over the Schur budget, so the budgeted ADMM runs
    Workload("round_admm", lambda seed: _plant_all([(8, 2, 2)], 0.05, seed), _round),
    # interior-point solves at degree 4 on sides 56 and 73, about 1 s each, so a run
    # holds several passes; about one solve in nine raises (and runs longer), and six
    # instances a pass dilute how much a seed's count of raising solves moves its time.
    # The sides-121/154 instances take 12-24 s each
    Workload("solve_d4", lambda seed: _plant_all([(5, 2, 2), (4, 2, 3)] * 3, SOLVE_EPS, seed),
             _solve(4)),
    # small PSD block plus 420-1512 pair-nonnegativity rows at degree 2, about 7 s a
    # pass; J(6,2,1) q=4 (1680 rows) takes 15 s alone
    Workload("solve_d2", lambda seed: _plant_all([(6, 2, 2), (6, 2, 3), (8, 2, 2)],
                                                 SOLVE_EPS, seed), _solve(2)),
)}


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()
