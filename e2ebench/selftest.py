"""Gate self-test: every correctness gate passes a real result and fails
perturbed copies of it.

    python3 e2ebench/selftest.py

Exits 0 when each gate accepts its real result and rejects every
perturbation, 1 otherwise.  Takes about half a minute (it boots the
service once).
"""

from __future__ import annotations

import copy
import dataclasses
import sys

import common
import gates

common.apply_thread_caps()


class Checks:
    def __init__(self) -> None:
        self.bad = 0

    def expect(self, gate: str, case: str, reason: str | None, should_pass: bool) -> None:
        ok = (reason is None) == should_pass
        self.bad += not ok
        verdict = "passes" if reason is None else f"fails ({reason})"
        print(f"{'ok ' if ok else 'BAD'} {gate}: {case} {verdict}")


def plan_gates(checks: Checks) -> None:
    from repro import PlannerOptions, SolveOptions, solve
    from repro.datasets import load_enterprise1

    state = load_enterprise1(seed=3, scale=0.3)
    bb_options = PlannerOptions(
        backend="branch_bound", solve_options=SolveOptions(relaxation_engine="builtin")
    )
    bb = solve(state, method="milp", options=bb_options)
    highs = solve(state, method="milp", options=PlannerOptions(backend="highs"))
    bound, incumbent = highs.lower_bound, highs.objective

    g = "bb_within_highs"
    checks.expect(g, "real plan", gates.bb_within_highs(bb.objective, bound, incumbent), True)
    checks.expect(g, "objective -0.1%",
                  gates.bb_within_highs(bb.objective * 0.999, bound, incumbent), False)
    checks.expect(g, "objective +0.1%",
                  gates.bb_within_highs(bb.objective * 1.001, bound, incumbent), False)

    dec = solve(state, method="decomposition", options=PlannerOptions(jobs=1))
    g = "decomposition_above_bound"
    checks.expect(g, "real plan",
                  gates.decomposition_above_bound(dec.objective, dec.lower_bound), True)
    checks.expect(g, "objective 1% under its bound",
                  gates.decomposition_above_bound(dec.lower_bound * 0.99, dec.lower_bound),
                  False)

    g = "plan_valid"
    for name, result in (("branch-and-bound", bb), ("decomposition", dec)):
        checks.expect(g, f"real {name} plan", gates.plan_valid(state, result.plan), True)
    group = state.app_groups[0].name
    moved = dataclasses.replace(bb.plan, placement={**bb.plan.placement, group: "nowhere"})
    checks.expect(g, "group placed in an unknown site", gates.plan_valid(state, moved), False)
    dropped = dict(bb.plan.placement)
    del dropped[group]
    checks.expect(g, "group left unassigned",
                  gates.plan_valid(state, dataclasses.replace(bb.plan, placement=dropped)),
                  False)

    again = solve(state, method="milp", options=bb_options)
    g = "repeats_agree"
    checks.expect(g, "same estate solved twice",
                  gates.repeats_agree({"e": bb.objective}, {"e": again.objective}), True)
    checks.expect(g, "second objective +0.01%",
                  gates.repeats_agree({"e": bb.objective}, {"e": again.objective * 1.0001}),
                  False)


def online_gate(checks: Checks) -> None:
    from repro import PlannerOptions
    from repro.datasets import online_line_scenario, online_line_trace
    from repro.online import ReplayConfig, run_replay

    import online_mixed

    state = online_line_scenario(**online_mixed.SCENARIO)
    horizon = 48.0
    load, outages = online_line_trace(state, profile="mixed", horizon_hours=horizon, seed=0)
    arms = {
        inc: online_mixed.signature(run_replay(
            state, load, outages, ReplayConfig(horizon_hours=horizon, incremental=inc),
            PlannerOptions(backend="branch_bound"),
        ).deltas)
        for inc in (True, False)
    }
    g = "deltas_equal"
    if not arms[True]:
        checks.expect(g, "real replay emitted no delta", "nothing to compare", True)
        return
    checks.expect(g, "real replay vs full arm", gates.deltas_equal(arms[True], arms[False]), True)
    rerouted = copy.deepcopy(arms[True])
    rerouted[0][4][0][2] = "elsewhere"
    checks.expect(g, "one move sent elsewhere", gates.deltas_equal(rerouted, arms[False]), False)
    checks.expect(g, "last delta missing",
                  gates.deltas_equal(arms[True][:-1], arms[False]), False)


def service_gates(checks: Checks) -> None:
    from repro import PlannerOptions, solve
    from repro.io import state_from_dict

    import service_open

    payloads = service_open.build_payloads()
    key = service_open.payload_key(service_open.POOL[0])
    server = service_open.Server(payloads[service_open.payload_key(service_open.WARMUP)])
    try:
        client = server.client
        first = client.wait(client.submit_plan(payloads[key])["id"])
        hit = client.wait(client.submit_plan(payloads[key])["id"])
    finally:
        server.stop()
    reference = solve(state_from_dict(payloads[key]),
                      options=PlannerOptions.from_wire({})).objective

    g = "service_job_ok"
    checks.expect(g, "real job", gates.service_job_ok(first, reference), True)
    checks.expect(g, "in-process objective +0.1%",
                  gates.service_job_ok(first, reference * 1.001), False)
    failed = {**first, "state": "failed", "error": "worker died"}
    checks.expect(g, "job that failed", gates.service_job_ok(failed, reference), False)
    other = copy.deepcopy(first)
    other["result"]["summary"]["solver"] = "branch-and-bound"
    checks.expect(g, "job solved by another engine", gates.service_job_ok(other, reference),
                  False)

    g = "cache_hit_identical"
    checks.expect(g, "real cache hit", gates.cache_hit_identical(hit, first), True)
    altered = copy.deepcopy(hit)
    altered["result"]["summary"]["total_cost"] *= 1.001
    checks.expect(g, "hit with another cost", gates.cache_hit_identical(altered, first), False)
    checks.expect(g, "repeat that was solved again",
                  gates.cache_hit_identical({**hit, "via": "solve"}, first), False)


def main() -> int:
    common.require_program()
    checks = Checks()
    plan_gates(checks)
    online_gate(checks)
    service_gates(checks)
    print("gate self-test", "passed" if checks.bad == 0 else f"FAILED ({checks.bad} checks)")
    return 0 if checks.bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
