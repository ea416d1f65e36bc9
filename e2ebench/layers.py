"""Per-layer metrics of a traced run, and the layer-coverage check.

Times are seconds summed over the run's timed phases (the work of a run
is fixed, so sums compare across runs); ``*_self_s`` is a span's time
minus the time its traced children cover.  Counts come from the span
calls, from the ``SolveStats`` a branch-and-bound returns, and from the
program's own ``repro.telemetry.metrics`` counters, read before and
after the timed phase.
"""

from __future__ import annotations

#: Every per-layer metric, in BENCHMARK.json order: name → unit.
UNITS = {
    "datasets.build_s": "s",
    "formulation.build_s": "s",
    "lp.to_matrix_form_s": "s",
    "lp.presolve_s": "s",
    "lp.presolve_rows_removed": "count",
    "lp.bb_s": "s",
    "lp.bb_self_s": "s",
    "lp.nodes": "count",
    "lp.relax_s": "s",
    "lp.relax_calls": "count",
    "lp.warm_hit_ratio": "ratio",
    "lp.factor_s": "s",
    "lp.factor_calls": "count",
    "lp.factor_share": "ratio",
    "lp.refactor_per_node": "ratio",
    "lp.lp_iterations": "count",
    "lp.dual_fallback_ratio": "ratio",
    "master.solve_s": "s",
    "master.solve_calls": "count",
    "master.columns": "count",
    "decomp.solve_s": "s",
    "decomp.self_s": "s",
    "decomp.blocks_s": "s",
    "highs.solve_s": "s",
    "highs.calls": "count",
    "cache.solve_s": "s",
    "cache.hits": "count",
    "cache.context_reuses": "count",
    "cache.extensions": "count",
    "cache.rebuilds": "count",
    "cache.reuse_ratio": "ratio",
    "incremental.sync_s": "s",
    "hint.repair_s": "s",
    "cache.hints_repaired": "count",
    "online.replan_s": "s",
    "online.observe_s": "s",
    "online.replans": "count",
    "online.delta_ratio": "ratio",
    "plan.finish_s": "s",
    "plan.validate_s": "s",
    "service.post_s": "s",
    "service.queue_wait_s": "s",
    "service.worker_s": "s",
    "service.notice_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.retries": "count",
    "service.rejected": "count",
    "generator.late_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Spans that must fire where the workload is meant to load their layer,
#: and spans that must not.  A workload that silently leaves its layer
#: (``method="auto"`` switching engines, say) fails the traced run.
REQUIRED = {
    "plan-batch": ("formulation", "lp.to_matrix_form", "lp.presolve", "lp.bb",
                   "lp.relax", "lp.factor", "master.solve", "decomp.solve",
                   "decomp.blocks", "plan.finish", "plan.validate"),
    "online-mixed": ("formulation", "lp.bb", "lp.relax", "highs.linprog",
                     "cache.solve", "incremental.sync", "hint.repair",
                     "online.replan", "online.observe", "plan.finish",
                     "plan.validate"),
    # The service's solves run in its worker; what is checked in this
    # process is the in-process reference solve of the same payloads.
    "service-open": ("formulation", "highs.milp", "plan.finish", "plan.validate"),
}
FORBIDDEN = {
    "plan-batch": ("cache.solve", "incremental.sync", "hint.repair",
                   "online.replan", "online.observe"),
    "online-mixed": ("lp.factor", "master.solve", "decomp.solve", "decomp.blocks"),
    "service-open": ("lp.factor", "lp.bb", "lp.relax", "master.solve",
                     "decomp.solve", "decomp.blocks"),
}


def coverage_failures(workload: str, calls: dict[str, int]) -> list[str]:
    problems = [f"span {s} never fired" for s in REQUIRED[workload] if not calls.get(s)]
    problems += [f"span {s} fired {calls[s]} times" for s in FORBIDDEN[workload]
                 if calls.get(s)]
    return problems


def _sum(dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_reports(reports: list[dict], per_call_overhead_s: float) -> tuple[dict, dict]:
    """Per-layer values and summed span calls from traced child reports."""
    traces = [r["trace"] for r in reports]
    total = _sum(t["total"] for t in traces)
    self_s = _sum(t["self"] for t in traces)
    calls = _sum(t["calls"] for t in traces)
    counters = _sum(t["counters"] for t in traces)
    bb = _sum(t["bb"] for t in traces)
    wall = sum(r["wall_s"] for r in reports)
    spans = sum(t["spans"] for t in traces)
    c = counters.get
    hits = c("incremental.fingerprint_hits", 0)
    reuses = c("incremental.context_reuses", 0)
    extensions = c("incremental.context_extended", 0)
    nodes = bb.get("nodes_explored", 0)
    values = {
        "datasets.build_s": sum(r["build_s"] for r in reports),
        "formulation.build_s": total.get("formulation", 0.0),
        "lp.to_matrix_form_s": total.get("lp.to_matrix_form", 0.0),
        "lp.presolve_s": total.get("lp.presolve", 0.0),
        "lp.presolve_rows_removed": c("relaxation.presolve_rows_dropped", 0),
        "lp.bb_s": total.get("lp.bb", 0.0),
        "lp.bb_self_s": self_s.get("lp.bb", 0.0),
        "lp.nodes": nodes,
        "lp.relax_s": total.get("lp.relax", 0.0),
        "lp.relax_calls": calls.get("lp.relax", 0),
        "lp.warm_hit_ratio": _ratio(
            c("relaxation.warm_start_hits", 0),
            c("relaxation.warm_start_hits", 0) + c("relaxation.warm_start_misses", 0),
        ),
        "lp.factor_s": total.get("lp.factor", 0.0),
        "lp.factor_calls": calls.get("lp.factor", 0),
        "lp.factor_share": _ratio(total.get("lp.factor", 0.0), total.get("lp.bb", 0.0)),
        "lp.refactor_per_node": _ratio(bb.get("refactorizations", 0), nodes),
        "lp.lp_iterations": bb.get("lp_iterations", 0),
        "lp.dual_fallback_ratio": _ratio(
            c("relaxation.dual_fallbacks", 0), c("relaxation.dual_entries", 0)
        ),
        "master.solve_s": total.get("master.solve", 0.0),
        "master.solve_calls": calls.get("master.solve", 0),
        "master.columns": sum(t["master_columns"] for t in traces),
        "decomp.solve_s": total.get("decomp.solve", 0.0),
        "decomp.self_s": self_s.get("decomp.solve", 0.0),
        "decomp.blocks_s": total.get("decomp.blocks", 0.0),
        "highs.solve_s": total.get("highs.linprog", 0.0) + total.get("highs.milp", 0.0),
        "highs.calls": calls.get("highs.linprog", 0) + calls.get("highs.milp", 0),
        "cache.solve_s": total.get("cache.solve", 0.0),
        "cache.hits": hits,
        "cache.context_reuses": reuses,
        "cache.extensions": extensions,
        "cache.rebuilds": c("incremental.context_rebuilds", 0),
        "cache.reuse_ratio": _ratio(hits + reuses + extensions, calls.get("cache.solve", 0)),
        "incremental.sync_s": total.get("incremental.sync", 0.0),
        "hint.repair_s": total.get("hint.repair", 0.0),
        "cache.hints_repaired": c("incremental.hint_repaired", 0),
        "online.replan_s": total.get("online.replan", 0.0),
        "online.observe_s": total.get("online.observe", 0.0),
        "online.replans": c("online.replans_triggered", 0),
        "online.delta_ratio": _ratio(
            c("online.deltas_emitted", 0), c("online.replans_triggered", 0)
        ),
        "plan.finish_s": total.get("plan.finish", 0.0),
        "plan.validate_s": total.get("plan.validate", 0.0),
        "trace.overhead_frac": _ratio(spans * per_call_overhead_s, wall),
    }
    return values, calls
