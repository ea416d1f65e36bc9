"""``plan-batch``: cold one-shot plans through ``repro.solve``.

One pass plans every estate below once, in an order the run seed sets,
in a fresh interpreter.  A run is a fixed number of whole passes, so
every run times the same mix of operations.

* Monolithic MILP (``backend="branch_bound"``, builtin relaxations) on
  case-study-shaped estates picked for similar search trees (tens of
  nodes each).  Node counts jump by 40x across generator seeds, so the
  seeds are fixed rather than drawn.
* Decomposition (``jobs=1``) on the three full-size case studies: the
  Dantzig-Wolfe master on enterprise1 and florida, subgradient
  coordination on federal.

Here the repository's own LP stack and ``core.decomposition`` do nearly
all the work; neither runs in the other two workloads.
"""

from __future__ import annotations

import random
import time

import common
import gates

#: (dataset, generator seed, scale) planned by branch-and-bound; each
#: explores roughly 20-140 nodes (README.md lists the measured counts).
MILP_ESTATES = (
    ("enterprise1", 1, 0.2),
    ("enterprise1", 2, 0.2),
    ("enterprise1", 4, 0.2),
    ("enterprise1", 2, 0.3),
    ("enterprise1", 3, 0.3),
    ("enterprise1", 4, 0.3),
    ("enterprise1", 6, 0.3),
    ("enterprise1", 10, 0.3),
    ("florida", 2, 0.3),
    ("florida", 4, 0.3),
    ("florida", 6, 0.3),
    ("florida", 8, 0.3),
    ("florida", 9, 0.3),
)
DECOMP_ESTATES = ("enterprise1", "florida", "federal")

#: Measured length of one pass on a 2-CPU host; sets passes per run.
NOMINAL_PASS_S = 17.0
MIN_PASSES = 2


def _loader(name: str):
    from repro.datasets import load_enterprise1, load_federal, load_florida

    return {"enterprise1": load_enterprise1, "florida": load_florida,
            "federal": load_federal}[name]


def operation_keys() -> list[str]:
    keys = [f"milp:{n}:s{seed}:x{scale}" for n, seed, scale in MILP_ESTATES]
    keys += [f"decomposition:{n}" for n in DECOMP_ESTATES]
    return keys


def build_inputs() -> dict:
    """Every estate a pass plans, keyed as in :func:`operation_keys`."""
    states = {}
    for name, seed, scale in MILP_ESTATES:
        states[f"milp:{name}:s{seed}:x{scale}"] = _loader(name)(seed=seed, scale=scale)
    for name in DECOMP_ESTATES:
        states[f"decomposition:{name}"] = _loader(name)()
    return states


def _options(method: str):
    from repro import PlannerOptions, SolveOptions

    if method == "milp":
        return PlannerOptions(
            backend="branch_bound",
            solve_options=SolveOptions(relaxation_engine="builtin"),
        )
    return PlannerOptions(jobs=1)


# -- child side ---------------------------------------------------------------


def child_pass(args: dict, phase) -> dict:
    """Plan every estate once in ``args["order"]``; gate; report."""
    from repro import solve

    start = time.perf_counter()
    states = build_inputs()
    build_s = time.perf_counter() - start
    phase.ready()

    highs = args["highs"]
    ops, failures, calibration = [], [], []
    peak_kb = 0
    for key in args["order"]:
        method = key.split(":", 1)[0]
        before = common.calibrate()
        common.reset_peak_rss()
        phase.resume()
        begin = time.perf_counter()
        result = solve(states[key], method=method, options=_options(method))
        elapsed = time.perf_counter() - begin
        phase.pause()
        peak_kb = max(peak_kb, common.vm_hwm_kb())
        after = common.calibrate()
        calibration += [before, after]
        # Gate at once, untimed, so no plan outlives its operation.
        reason = gates.plan_valid(states[key], result.plan)
        if method == "decomposition":
            reference = result.lower_bound
            reason = reason or gates.decomposition_above_bound(result.objective, reference)
        else:
            reference = highs[key][0]
            reason = reason or gates.bb_within_highs(result.objective, *highs[key])
        if reason is not None:
            failures.append(f"{key}: {reason}")
        ops.append({"key": key, "seconds": elapsed, "objective": result.objective,
                    "reference": reference, "failed": reason is not None,
                    "slowdown": (before + after) / 2 / common.CAL_REF_S})
    phase.done()
    return {"ops": ops, "wall_s": sum(op["seconds"] for op in ops),
            "peak_rss_kb": peak_kb, "build_s": build_s,
            "failures": failures, "calibration": calibration}


def child_reference(args: dict, phase) -> dict:
    """HiGHS's [proven bound, incumbent] for every branch-and-bound estate."""
    from repro import PlannerOptions, solve

    states = build_inputs()
    phase.ready()
    highs = {}
    for key, state in states.items():
        if key.startswith("milp:"):
            ref = solve(state, method="milp", options=PlannerOptions(backend="highs"))
            highs[key] = [ref.lower_bound, ref.objective]
    return {"highs": highs}


# -- parent side --------------------------------------------------------------


def run(seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(seed)
    passes = common.units_for(seconds, NOMINAL_PASS_S, MIN_PASSES)
    highs = common.load_reference("plan-batch-highs")
    if highs is None or set(highs) != {k for k in operation_keys() if k.startswith("milp:")}:
        highs = common.run_child("plan-batch-reference", {})["highs"]
        common.store_reference("plan-batch-highs", highs)
    reports = []
    for _ in range(passes):
        order = operation_keys()
        rng.shuffle(order)
        reports.append(common.run_child(
            "plan-batch", {"order": order, "highs": highs, "trace": trace}
        ))
    probes = [common.run_child("probe", {"workload": "plan-batch"}) for _ in range(2)]

    failures = [f for r in reports for f in r["failures"]]
    first = {op["key"]: op["objective"] for op in reports[0]["ops"]}
    for again in reports[1:]:
        reason = gates.repeats_agree(first, {op["key"]: op["objective"] for op in again["ops"]})
        if reason is not None:
            failures.append(f"repeat solve: {reason}")
    ratios = [op["objective"] / op["reference"] for r in reports for op in r["ops"]]
    failed_ops = sum(op["failed"] for r in reports for op in r["ops"])
    failed_ops += len(failures) - sum(len(r["failures"]) for r in reports)
    return {
        "reports": reports,
        "setups": [r["setup_s"] for r in reports + probes],
        "calibration": [c for r in reports for c in r["calibration"]],
        "latencies": [op["seconds"] for r in reports for op in r["ops"]],
        "op_slowdowns": [op["slowdown"] for r in reports for op in r["ops"]],
        "throughput_s": sum(r["wall_s"] for r in reports),
        "cost_ratios": ratios,
        "peak_rss_kb": max(r["peak_rss_kb"] for r in reports),
        "attempted": sum(len(r["ops"]) for r in reports),
        "failed": failed_ops,
        "failures": failures,
        "notes": {"passes": passes},
    }


def build_probe_inputs() -> None:
    import repro  # noqa: F401

    build_inputs()
