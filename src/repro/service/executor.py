"""Job execution — the code that runs *inside* a worker process.

One worker executes one job at a time.  Everything here takes plain
JSON-able payloads and returns plain JSON-able results, because results
cross a process boundary and may have been served from the result cache
or the journal rather than a live object.

Refine jobs are **idempotent**: the payload always carries the full
state and the *cumulative* directive list.  The worker keeps an
:class:`~repro.core.iterative.IterativeSession` per session id; when the
request's state + options fingerprint matches the session's and the new
directive list extends the session's current one, only the suffix is
applied and the re-solve goes through the warm
:class:`~repro.core.incremental.RevisionedModel` + ``SolveCache`` path.
When the base fingerprint or directive prefix does not match (or the
session died with a killed worker), the session is rebuilt from the
payload — slower, same answer.  That is what makes retry-after-worker-
death safe for every job kind.
"""

from __future__ import annotations

import math
import time
from typing import Any

from ..core.incremental import directive_from_dict
from ..core.iterative import IterativeSession
from ..core.planner import ETransformPlanner, PlannerOptions
from ..io.serialization import plan_to_dict, state_from_dict
from ..lp.fingerprint import payload_fingerprint
from .jobs import JobKind


class PayloadError(ValueError):
    """The job payload is malformed (maps to HTTP 400 at submit time)."""


def _require_state(payload: dict[str, Any]):
    data = payload.get("state")
    if not isinstance(data, dict):
        raise PayloadError("payload field 'state' must be an as-is state object")
    try:
        return state_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        field = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise PayloadError(f"invalid state in payload: {field}") from exc


def _planner_options(payload: dict[str, Any]) -> PlannerOptions:
    try:
        return PlannerOptions.from_wire(payload.get("options"))
    except (TypeError, ValueError) as exc:
        raise PayloadError(f"invalid planner options: {exc}") from exc


def validate_payload(kind: JobKind, payload: dict[str, Any]) -> None:
    """Reject malformed payloads at submit time (before queueing).

    Parses the state, options and directives exactly as the worker
    will, so a bad request fails fast with HTTP 400 instead of
    occupying a worker and failing there.
    """
    if not isinstance(payload, dict):
        raise PayloadError("job payload must be a JSON object")
    _require_state(payload)
    _planner_options(payload)
    if kind is JobKind.REFINE:
        _parse_directives(payload)
        if not isinstance(payload.get("session", "default"), str):
            raise PayloadError("payload field 'session' must be a string")


def _parse_directives(payload: dict[str, Any]):
    raw = payload.get("directives", [])
    if not isinstance(raw, list):
        raise PayloadError("payload field 'directives' must be a list")
    try:
        return [directive_from_dict(d) for d in raw]
    except (TypeError, ValueError, AttributeError) as exc:
        raise PayloadError(f"invalid directive: {exc}") from exc


def _summary(plan) -> dict[str, Any]:
    return {
        "total_cost": plan.breakdown.total,
        "operational_cost": plan.breakdown.operational,
        "latency_penalty": plan.breakdown.latency_penalty,
        "latency_violations": plan.latency_violations,
        "datacenters_used": plan.datacenters_used,
        "solver": plan.solver,
    }


def _execute_plan(payload: dict[str, Any]) -> dict[str, Any]:
    from ..api import solve as plan_solve

    state = _require_state(payload)
    options = _planner_options(payload)
    # Route through the unified entry point so the wire `method` field
    # (auto/milp/decomposition/greedy) actually selects the engine.
    result = plan_solve(state, options=options)
    summary = _summary(result.plan)
    summary["method"] = result.method
    if math.isfinite(result.gap):
        summary["gap"] = result.gap
    return {"plan": plan_to_dict(result.plan), "summary": summary}


def _apply_directive(session: IterativeSession, directive) -> None:
    if directive.kind == "pin":
        session.pin(directive.group, directive.datacenter)
    elif directive.kind == "forbid":
        session.forbid(directive.group, directive.datacenter)
    elif directive.kind == "retire_site":
        session.retire_site(directive.datacenter)
    elif directive.kind == "cap_groups":
        session.cap_groups(directive.datacenter, directive.limit)
    else:  # directive_from_dict already screens kinds; belt and braces
        raise PayloadError(f"unknown directive kind {directive.kind!r}")


def _execute_refine(
    payload: dict[str, Any], sessions: dict[str, "_SessionEntry"]
) -> dict[str, Any]:
    session_id = payload.get("session", "default")
    directives = _parse_directives(payload)
    entry = sessions.get(session_id)

    # Warm only when the *whole* request prefix matches: same base
    # state and options (by canonical fingerprint) and a directive list
    # that extends the session's.  A client reusing a session id with a
    # different state or options gets a rebuild, not a silently stale
    # plan against the old model.
    base_fp = payload_fingerprint([payload.get("state"), payload.get("options")])
    warm = (
        entry is not None
        and entry.base_fingerprint == base_fp
        and entry.session.directives == directives[: len(entry.session.directives)]
    )
    if warm:
        session = entry.session
    else:
        session = IterativeSession(
            _require_state(payload), _planner_options(payload), incremental=True
        )
        sessions[session_id] = _SessionEntry(base_fp, session)
    for directive in directives[len(session.directives):]:
        _apply_directive(session, directive)

    plan = session.plan()
    cache = session.solve_cache
    return {
        "plan": plan_to_dict(plan),
        "summary": _summary(plan),
        "session": session_id,
        "warm": warm,
        "directives_applied": len(session.directives),
        "solve_cache": cache.stats() if cache is not None else None,
    }


class _SessionEntry:
    """A worker's warm refine session plus the request base it answers.

    ``base_fingerprint`` hashes the payload's state + options; a refine
    request only reuses the warm session when it matches, so a session
    id recycled with different inputs rebuilds instead of silently
    planning against the old model.
    """

    __slots__ = ("base_fingerprint", "session")

    def __init__(self, base_fingerprint: str, session: IterativeSession) -> None:
        self.base_fingerprint = base_fingerprint
        self.session = session


def _execute_compare(payload: dict[str, Any]) -> dict[str, Any]:
    from ..experiments.comparison import run_comparison

    state = _require_state(payload)
    options = _planner_options(payload)
    result = run_comparison(
        state,
        enable_dr=options.enable_dr,
        backend=options.backend,
        wan_model=options.wan_model,
        solve_options=options.solve_options,
    )
    algorithms = {}
    for algo in [result.asis, result.manual, result.greedy, result.etransform]:
        algorithms[algo.algorithm] = {
            "total_cost": algo.total_cost,
            "operational_cost": algo.operational_cost,
            "latency_penalty": algo.latency_penalty,
            "latency_violations": algo.latency_violations,
            "datacenters_used": algo.datacenters_used,
            "runtime_seconds": algo.runtime_seconds,
        }
    return {
        "dataset": result.dataset,
        "algorithms": algorithms,
        "reductions": {
            name: result.reduction(name) for name in ("manual", "greedy", "etransform")
        },
    }


def _execute_simulate(payload: dict[str, Any]) -> dict[str, Any]:
    from ..sim import FailureModelConfig, SimulatorConfig, simulate_plan

    state = _require_state(payload)
    options = _planner_options(payload)
    sim = payload.get("simulation", {})
    if not isinstance(sim, dict):
        raise PayloadError("payload field 'simulation' must be an object")
    plan = ETransformPlanner(state, options).build_plan()
    config = SimulatorConfig(
        horizon_months=float(sim.get("horizon_months", 60.0)),
        failure=FailureModelConfig(
            mtbf_hours=float(sim.get("mtbf_hours", 10 * 8760.0)),
            mttr_hours=float(sim.get("mttr_hours", 96.0)),
            seed=int(sim.get("seed", 0)),
        ),
    )
    report = simulate_plan(state, plan, config)
    return {
        "plan_summary": _summary(plan),
        "outages": report.outages,
        "failovers": report.total_failovers,
        "mean_availability": report.mean_availability,
        "total_downtime_hours": report.total_downtime_hours,
        "pool_shortfalls": len(report.shortfalls),
        "summary": report.summary(),
    }


def execute_job(
    kind: JobKind,
    payload: dict[str, Any],
    sessions: dict[str, _SessionEntry] | None = None,
) -> tuple[dict[str, Any], float]:
    """Run one job; returns ``(result, elapsed_seconds)``.

    ``sessions`` is the worker's session registry (refine affinity);
    pass ``None`` for one-shot execution (the sequential benchmark
    baseline does).
    """
    start = time.monotonic()
    if kind is JobKind.PLAN:
        result = _execute_plan(payload)
    elif kind is JobKind.REFINE:
        result = _execute_refine(payload, sessions if sessions is not None else {})
    elif kind is JobKind.COMPARE:
        result = _execute_compare(payload)
    elif kind is JobKind.SIMULATE:
        result = _execute_simulate(payload)
    else:
        raise PayloadError(f"unknown job kind {kind!r}")
    elapsed = time.monotonic() - start
    result["backend"] = (payload.get("options") or {}).get("backend", "auto")
    return result, elapsed
