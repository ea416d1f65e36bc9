"""Correctness gates.  Each returns ``None`` when the result passes and a
one-line reason when it does not; a failing gate counts its operation as
failed.  ``selftest.py`` feeds each gate real results and perturbed
copies of them.
"""

from __future__ import annotations

import math

#: Relative slack for objective comparisons: the branch-and-bound stops
#: at ``gap_tolerance=1e-6`` and HiGHS reports its bound to round-off.
REL_TOL = 1e-6


def _slack(value: float) -> float:
    return REL_TOL * max(1.0, abs(value))


def bb_within_highs(objective: float, highs_bound: float, highs_incumbent: float) -> str | None:
    """A branch-and-bound optimum lies inside HiGHS's [proven bound, incumbent]."""
    if not (math.isfinite(objective) and math.isfinite(highs_bound)):
        return f"non-finite objective {objective} or HiGHS bound {highs_bound}"
    if objective < highs_bound - _slack(highs_bound):
        return f"objective {objective:.6f} below HiGHS proven bound {highs_bound:.6f}"
    if objective > highs_incumbent + _slack(highs_incumbent):
        return f"objective {objective:.6f} above HiGHS incumbent {highs_incumbent:.6f}"
    return None


def decomposition_above_bound(objective: float, lower_bound: float) -> str | None:
    """A decomposition plan costs at least its certified lower bound."""
    if not (math.isfinite(objective) and math.isfinite(lower_bound)):
        return f"non-finite objective {objective} or bound {lower_bound}"
    if objective < lower_bound - _slack(lower_bound):
        return f"objective {objective:.6f} below certified bound {lower_bound:.6f}"
    return None


def plan_valid(state, plan) -> str | None:
    """``validate_plan`` accepts the plan for its estate."""
    from repro.core.validation import PlanValidationError, validate_plan

    try:
        validate_plan(state, plan)
    except PlanValidationError as exc:
        return f"invalid plan: {exc}"
    return None


def repeats_agree(first: dict[str, float], again: dict[str, float]) -> str | None:
    """Solving the same estates again gives the same objectives."""
    if set(first) != set(again):
        return f"different operations: {sorted(set(first) ^ set(again))}"
    for key in sorted(first):
        a, b = first[key], again[key]
        if abs(a - b) > _slack(a):
            return f"{key}: objective {a:.6f} then {b:.6f}"
    return None


def deltas_equal(incremental: list, full: list) -> str | None:
    """The incremental replay emits the full re-plan arm's delta sequence."""
    if incremental == full:
        return None
    for i, (a, b) in enumerate(zip(incremental, full)):
        if a != b:
            return f"delta {i} differs: incremental {a} vs full {b}"
    return f"{len(incremental)} incremental deltas vs {len(full)} full"


def service_job_ok(record: dict, reference_objective: float) -> str | None:
    """An accepted job succeeded, by HiGHS, with the in-process objective."""
    if record.get("state") != "succeeded":
        return f"job {record.get('id')} ended {record.get('state')}: {record.get('error')}"
    summary = (record.get("result") or {}).get("summary") or {}
    if summary.get("solver") != "highs-milp":
        return f"job {record.get('id')} solved by {summary.get('solver')!r}, not highs-milp"
    total = summary.get("total_cost")
    if not isinstance(total, (int, float)) or abs(total - reference_objective) > _slack(
        reference_objective
    ):
        return f"job {record.get('id')} cost {total} vs in-process {reference_objective}"
    return None


def cache_hit_identical(hit: dict, original: dict) -> str | None:
    """A result-cache answer carries the original job's summary unchanged."""
    if hit.get("via") != "cache":
        return f"repeat job {hit.get('id')} was not served from the cache ({hit.get('via')})"
    a = (hit.get("result") or {}).get("summary")
    b = (original.get("result") or {}).get("summary")
    if a != b:
        return f"cache hit {hit.get('id')} summary {a} differs from {b}"
    return None
