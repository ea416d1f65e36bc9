"""Resilience study: what the DR plan buys when disasters actually hit.

Extends the paper's static DR analysis (Section IV) with the dynamic
question it implies: replay identical sampled disasters against three
designs — no DR, eTransform's shared single-failure pools, and dedicated
per-group backups — and compare monthly cost, availability, failovers
and shared-pool shortfalls (double failures outrunning a shared pool).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.entities import AsIsState
from ..core.planner import ETransformPlanner, PlannerOptions
from ..lp import SolveOptions
from ..sim import (
    FailureModelConfig,
    SimulationReport,
    SimulatorConfig,
    compare_resilience,
)
from .harness import fill_unset


@dataclass
class ResilienceRow:
    """One design's outcome."""

    variant: str
    monthly_cost: float
    availability: float
    failovers: int
    shortfalls: int
    downtime_hours: float


@dataclass
class ResilienceResult:
    """All three designs under the same disasters."""

    horizon_months: float
    rows: list[ResilienceRow] = field(default_factory=list)

    def row(self, variant: str) -> ResilienceRow:
        for r in self.rows:
            if r.variant == variant:
                return r
        raise KeyError(f"no variant {variant!r}")

    def render(self) -> str:
        lines = [
            f"Resilience over {self.horizon_months:.0f} months of sampled disasters"
        ]
        lines.append(
            f"{'variant':<14} {'monthly cost':>14} {'availability':>13} "
            f"{'failovers':>10} {'shortfalls':>11} {'downtime':>10}"
        )
        for r in self.rows:
            lines.append(
                f"{r.variant:<14} ${r.monthly_cost:>13,.0f} {r.availability:>13.5f} "
                f"{r.failovers:>10d} {r.shortfalls:>11d} {r.downtime_hours:>9.1f}h"
            )
        return "\n".join(lines)


def run_resilience(
    state: AsIsState,
    horizon_months: float = 240.0,
    mtbf_hours: float = 3 * 8760.0,
    mttr_hours: float = 120.0,
    seed: int = 7,
    backend: str = "auto",
    solve_options: SolveOptions | None = None,
) -> ResilienceResult:
    """Plan the three designs and simulate them under shared outages."""
    solve_options = fill_unset(solve_options, mip_rel_gap=0.02, time_limit=120)

    def planner(**kw) -> ETransformPlanner:
        return ETransformPlanner(
            state,
            PlannerOptions(backend=backend, solve_options=solve_options, **kw),
        )

    plans = {
        "no-dr": planner().build_plan(),
        "shared-pools": planner(enable_dr=True).build_plan(),
        "dedicated": planner(enable_dr=True, dedicated_backups=True).build_plan(),
    }
    config = SimulatorConfig(
        horizon_months=horizon_months,
        failure=FailureModelConfig(
            mtbf_hours=mtbf_hours, mttr_hours=mttr_hours, seed=seed
        ),
    )
    reports: dict[str, SimulationReport] = compare_resilience(state, plans, config)

    result = ResilienceResult(horizon_months=horizon_months)
    for variant, plan in plans.items():
        report = reports[variant]
        result.rows.append(
            ResilienceRow(
                variant=variant,
                monthly_cost=plan.total_cost,
                availability=report.mean_availability,
                failovers=report.total_failovers,
                shortfalls=len(report.shortfalls),
                downtime_hours=report.total_downtime_hours,
            )
        )
    return result
