"""One fresh interpreter's share of a run: ``child.py <task> <json args>``.

Tasks: ``probe`` (import the program, build a workload's inputs, exit),
``plan-batch`` (one pass), ``plan-batch-reference`` (its HiGHS
references) and ``online-mixed`` (one replay).  The last
stdout line is a JSON report; ``ready_at`` is the system-wide monotonic
clock when the inputs were built, so the parent can tell the set-up
this interpreter paid.
"""

from __future__ import annotations

import json
import sys
import time

import common

common.apply_thread_caps()


class Phase:
    """Marks the timed phase; with tracing, spans and counters cover it."""

    def __init__(self, trace: bool) -> None:
        self.ready_at = None
        self.tracer = None
        self.counters_before: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.bb: dict[str, float] = {}
        self.master_columns: dict[int, int] = {}
        if trace:
            import tracer

            tracer.import_layers()
            self.tracer = tracer.Tracer()
            self.tracer.on_return["lp.bb"] = self._absorb_bb
            self.tracer.on_return["master.solve"] = self._absorb_master
            self.tracer.install()

    def _absorb_bb(self, args, solution) -> None:
        stats = getattr(solution, "stats", None)
        if stats is None:
            return
        for field in ("nodes_explored", "lp_iterations", "refactorizations",
                      "dual_entries", "dual_fallbacks", "presolve_dropped_constraints"):
            self.bb[field] = self.bb.get(field, 0) + getattr(stats, field, 0)

    def _absorb_master(self, args, result) -> None:
        master = args[0]
        self.master_columns[id(master)] = master.n_columns

    def ready(self) -> None:
        self.ready_at = time.monotonic()
        if self.tracer is not None:
            from repro.telemetry import metrics

            self.counters_before = metrics.snapshot()

    def pause(self) -> None:
        """Leave the timed work for untimed bookkeeping (gates)."""
        if self.tracer is not None:
            self.tracer.enabled = False

    def resume(self) -> None:
        if self.tracer is not None:
            self.tracer.enabled = True

    def done(self) -> None:
        if self.tracer is None:
            return
        from repro.telemetry import metrics

        self.tracer.enabled = False
        after = metrics.snapshot()
        self.counters = {
            k: v - self.counters_before.get(k, 0.0)
            for k, v in after.items()
            if v != self.counters_before.get(k, 0.0)
        }

    def trace_report(self) -> dict:
        return self.tracer.report(
            self.counters, self.bb, sum(self.master_columns.values())
        )


def main(argv: list[str]) -> int:
    task, args = argv[0], json.loads(argv[1])
    phase = Phase(bool(args.get("trace")))
    if task == "probe":
        import workloads

        workloads.build_probe_inputs(args["workload"])
        phase.ready()
        report: dict = {}
    elif task == "plan-batch":
        import plan_batch

        report = plan_batch.child_pass(args, phase)
    elif task == "plan-batch-reference":
        import plan_batch

        report = plan_batch.child_reference(args, phase)
    elif task == "online-mixed":
        import online_mixed

        report = online_mixed.child_replay(args, phase)
    else:
        raise SystemExit(f"unknown task {task!r}")
    report["ready_at"] = phase.ready_at
    if phase.tracer is not None:
        report["trace"] = phase.trace_report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
