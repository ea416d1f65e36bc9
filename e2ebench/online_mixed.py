"""``online-mixed``: the online controller replays fixed ``mixed`` traces.

Each trace is diurnal load plus a flash crowd plus a day-long site
outage over an ``online_line_scenario`` estate, replayed through
``OnlineController`` with ``backend="branch_bound"`` and the default
(HiGHS) relaxations.  The same solver as ``plan-batch`` runs warm here:
``core.incremental`` deltas, ``lp.solvers.SolveCache`` (fingerprint
hits, context reuse, row-append extension), ``core.hint_repair`` and
``online.controller`` carry the work, and ``core.decomposition`` none.

An operation is one re-plan step: a batch of same-time events observed,
the controller deciding to re-plan, and the delta (or its suppression)
decided.  Steps that only observe are not operations.  Each replay runs
in a fresh interpreter.  Its deltas must equal those of the same trace
replayed with a full model rebuild per re-plan; that reference arm is
untimed and kept per program digest (``common.load_reference``).

The builtin relaxations are not used: with them the first re-plan
diverges from the full arm (README.md, "Known defect").
"""

from __future__ import annotations

import random
import time

import common
import gates

SCENARIO = dict(n_groups=16, total_servers=400, n_datacenters=5, capacity=220, seed=11)
HORIZON_HOURS = 96.0
TRACE_SEEDS = (0, 1, 2, 3, 4, 5)

#: Measured length of one round (every trace once) on a 2-CPU host.
NOMINAL_ROUND_S = 30.0
MIN_ROUNDS = 1


def build_inputs(trace_seed: int):
    from repro.datasets import online_line_scenario, online_line_trace

    state = online_line_scenario(**SCENARIO)
    load, outages = online_line_trace(
        state, profile="mixed", horizon_hours=HORIZON_HOURS, seed=trace_seed
    )
    return state, load, outages


def signature(deltas) -> list:
    return [
        [d.time_hours, d.reason, round(d.cost_before, 6), round(d.cost_after, 6),
         [[m.group, m.from_site, m.to_site] for m in d.moves]]
        for d in deltas
    ]


def _options():
    from repro import PlannerOptions

    return PlannerOptions(backend="branch_bound")


# -- child side ---------------------------------------------------------------


def child_replay(args: dict, phase) -> dict:
    from repro.online import OnlineController, ReplayConfig, run_replay
    from repro.online.replay import build_queue
    from repro.telemetry import metrics

    start = time.perf_counter()
    state, load, outages = build_inputs(args["trace_seed"])
    build_s = time.perf_counter() - start
    phase.ready()

    def replans() -> float:
        return metrics.snapshot().get("online.replans_triggered", 0.0)

    common.reset_peak_rss()
    peak_kb = 0
    wall_start = time.perf_counter()
    controller = OnlineController(state, planner_options=_options(), incremental=True)
    controller.initial_plan()
    queue = build_queue(load, outages, HORIZON_HOURS)
    steps, calibration = [], []
    while queue:
        batch = [queue.pop()]
        now = batch[0].time_hours
        while queue and queue.peek().time_hours == now:
            batch.append(queue.pop())
        before = replans()
        begin = time.perf_counter()
        controller.step(now, batch)
        elapsed = time.perf_counter() - begin
        if replans() > before:
            steps.append(elapsed)
            peak_kb = max(peak_kb, common.vm_hwm_kb())
            calibration.append(common.calibrate())
            common.reset_peak_rss()
    wall_s = time.perf_counter() - wall_start - sum(calibration)
    peak_kb = max(peak_kb, common.vm_hwm_kb())
    incremental = signature(controller.deltas)
    final_cost = controller.incumbent.breakdown.total

    phase.done()
    reference = args["reference"]
    if reference is None:
        full = run_replay(
            state, load, outages,
            ReplayConfig(horizon_hours=HORIZON_HOURS, incremental=False), _options(),
        )
        reference = {"deltas": signature(full.deltas), "final_cost": full.final_cost}
    reason = gates.deltas_equal(incremental, reference["deltas"])
    ratios = [a[3] / b[3] for a, b in zip(incremental, reference["deltas"])]
    ratios.append(final_cost / reference["final_cost"])
    return {"steps": steps, "wall_s": wall_s, "peak_rss_kb": peak_kb,
            "calibration": calibration,
            "build_s": build_s, "deltas": len(incremental), "cost_ratios": ratios,
            "reference": reference,
            "failures": [] if reason is None else [f"trace {args['trace_seed']}: {reason}"]}


# -- parent side --------------------------------------------------------------


def run(seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(seed)
    rounds = common.units_for(seconds, NOMINAL_ROUND_S, MIN_ROUNDS)
    order = [s for _ in range(rounds) for s in TRACE_SEEDS]
    rng.shuffle(order)
    references = {s: common.load_reference(f"online-mixed-trace{s}") for s in TRACE_SEEDS}
    reports = []
    for s in order:
        report = common.run_child(
            "online-mixed", {"trace_seed": s, "trace": trace, "reference": references[s]}
        )
        if references[s] is None:
            references[s] = report["reference"]
            common.store_reference(f"online-mixed-trace{s}", references[s])
        reports.append(report)
    failed = 0
    for r in reports:
        # A diverged replay fails every re-plan step it timed.
        if r["failures"]:
            failed += len(r["steps"])
    return {
        "reports": reports,
        "setups": [r["setup_s"] for r in reports],
        "calibration": [c for r in reports for c in r["calibration"]],
        "latencies": [s for r in reports for s in r["steps"]],
        # The kernel timed right after each step gauges the host's
        # speed during it.
        "op_slowdowns": [c / common.CAL_REF_S for r in reports for c in r["calibration"]],
        "throughput_s": sum(r["wall_s"] for r in reports),
        "cost_ratios": [x for r in reports for x in r["cost_ratios"]],
        "peak_rss_kb": max(r["peak_rss_kb"] for r in reports),
        "attempted": sum(len(r["steps"]) for r in reports),
        "failed": failed,
        "failures": [f for r in reports for f in r["failures"]],
        "notes": {"rounds": rounds, "replays": order},
    }


def build_probe_inputs() -> None:
    import repro  # noqa: F401

    build_inputs(TRACE_SEEDS[0])
