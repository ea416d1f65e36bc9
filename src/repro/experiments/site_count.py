"""Capacity planning: how many target sites does the estate need?

The transformations that motivate the paper pick a target-site count up
front (US federal: 2100 → "less than 1000"; UK: 120 → 10; HP: 85 → 8).
This study sweeps the number of candidate sites offered to the
optimizer and reports the cost curve — diminishing returns appear where
extra sites stop buying latency or price diversity — plus how many of
the offered sites the optimizer actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.entities import AsIsState
from ..core.formulation import InfeasibleModelError
from ..core.planner import ETransformPlanner, PlannerOptions, PlanningError
from ..core.validation import StateValidationError
from ..lp import SolveOptions
from .harness import fill_unset


@dataclass
class SiteCountPoint:
    """Plan outcome when only the first ``offered`` sites are available."""

    offered: int
    used: int
    total_cost: float
    latency_violations: int
    feasible: bool = True


@dataclass
class SiteCountResult:
    """The sweep; infeasible prefixes are recorded, not skipped."""

    points: list[SiteCountPoint] = field(default_factory=list)

    def feasible_points(self) -> list[SiteCountPoint]:
        return [p for p in self.points if p.feasible]

    @property
    def knee(self) -> SiteCountPoint:
        """First point within 5 % of the best achievable cost."""
        feasible = self.feasible_points()
        if not feasible:
            raise ValueError("no feasible sweep point")
        best = min(p.total_cost for p in feasible)
        for p in feasible:
            if p.total_cost <= best * 1.05:
                return p
        return feasible[-1]

    def render(self) -> str:
        lines = ["Site-count sweep — cost of offering the first k candidate sites"]
        lines.append(f"{'offered':>8} {'used':>5} {'total':>14} {'viol':>5}")
        for p in self.points:
            if not p.feasible:
                lines.append(f"{p.offered:>8d} {'—':>5} {'infeasible':>14} {'—':>5}")
                continue
            lines.append(
                f"{p.offered:>8d} {p.used:>5d} ${p.total_cost:>13,.0f} "
                f"{p.latency_violations:>5d}"
            )
        knee = self.knee
        lines.append(
            f"knee: {knee.offered} offered sites reach within 5% of the best cost"
        )
        return "\n".join(lines)


def run_site_count(
    state: AsIsState,
    counts: tuple[int, ...] | None = None,
    backend: str = "auto",
    solve_options: SolveOptions | None = None,
) -> SiteCountResult:
    """Sweep prefixes of the candidate-site list (cheapest-diverse order
    as generated) and re-optimize for each."""
    solve_options = fill_unset(solve_options, mip_rel_gap=0.01)
    total = len(state.target_datacenters)
    if counts is None:
        counts = tuple(range(1, total + 1))
    if any(c < 1 or c > total for c in counts):
        raise ValueError(f"counts must lie in [1, {total}]")

    result = SiteCountResult()
    for count in sorted(counts):
        subset = replace(
            state, target_datacenters=state.target_datacenters[:count]
        )
        options = PlannerOptions(backend=backend, solve_options=solve_options)
        try:
            plan = ETransformPlanner(subset, options).build_plan()
        except (PlanningError, StateValidationError, InfeasibleModelError):
            result.points.append(
                SiteCountPoint(
                    offered=count, used=0, total_cost=float("inf"),
                    latency_violations=0, feasible=False,
                )
            )
            continue
        result.points.append(
            SiteCountPoint(
                offered=count,
                used=len(plan.datacenters_used),
                total_cost=plan.total_cost,
                latency_violations=plan.latency_violations,
            )
        )
    return result
