"""Fig. 8: influence of the DR server cost ζ.

Sweeps ζ over decades (the paper uses 10⁰–10⁴) on the line scenario with
latency penalties off, planning consolidation + DR jointly, and records
the number of data centers used and the total number of DR servers
purchased.  Expected shape: cheap backups → concentrate everything in
two sites and mirror in full; expensive backups → spread primaries so a
small shared pool covers the worst single failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..api import solve as unified_solve
from ..core.planner import PlannerOptions
from ..datasets.scenarios import latency_line_scenario
from ..lp import SolveOptions
from ..parallel import parallel_map
from .harness import SweepPoint, fill_unset

#: The paper's decade sweep of ζ.
DEFAULT_DR_COSTS = (1.0, 10.0, 100.0, 1000.0, 10_000.0)


def _dr_point(
    zeta: float,
    backend: str,
    n_groups: int,
    total_servers: int,
    solve_options: SolveOptions,
) -> SweepPoint:
    """Solve one ζ point (module-level so it can cross a process boundary)."""
    state = latency_line_scenario(
        penalty_per_band=0.0,
        fraction_at_west=1.0,
        n_groups=n_groups,
        total_servers=total_servers,
        space_growth=0.8,
        space_step_per_location=0.0,
    )
    state.params.dr_server_cost = zeta
    plan = unified_solve(
        state,
        method="milp",
        options=PlannerOptions(
            enable_dr=True, backend=backend, solve_options=solve_options
        ),
    ).plan
    return SweepPoint(
        parameter=zeta,
        values={
            "datacenters_used": float(len(plan.datacenters_used)),
            "primary_datacenters": float(len(set(plan.placement.values()))),
            "dr_servers": float(sum(plan.backup_servers.values())),
            "total_cost": plan.breakdown.total,
        },
    )


@dataclass
class DRCostSweepResult:
    """The two curves of Fig. 8."""

    points: list[SweepPoint] = field(default_factory=list)

    def dr_costs(self) -> list[float]:
        return [p.parameter for p in self.points]

    def datacenters_used(self) -> list[int]:
        return [int(p.values["datacenters_used"]) for p in self.points]

    def dr_servers(self) -> list[int]:
        return [int(p.values["dr_servers"]) for p in self.points]


def run_dr_cost_sweep(
    dr_costs: tuple[float, ...] = DEFAULT_DR_COSTS,
    backend: str = "auto",
    n_groups: int = 80,
    total_servers: int = 450,
    solve_options: SolveOptions | None = None,
    jobs: int = 1,
) -> DRCostSweepResult:
    """Reproduce Fig. 8.

    The default group count is reduced from enterprise1's 190 (the joint
    DR MILP at 190×10 needs minutes per ζ point); the pool-sharing
    economics that drive the curve are size-independent.  The space ramp
    is convex (geometric) so that concentrating in two sites is optimal
    when backups are nearly free — see EXPERIMENTS.md.

    Each ζ point is an independent solve; ``jobs > 1`` fans them out
    across worker processes.
    """
    solve_options = fill_unset(solve_options, mip_rel_gap=0.02, time_limit=60)
    points = parallel_map(
        partial(
            _dr_point,
            backend=backend,
            n_groups=n_groups,
            total_servers=total_servers,
            solve_options=solve_options,
        ),
        dr_costs,
        jobs=jobs,
    )
    return DRCostSweepResult(points=points)
