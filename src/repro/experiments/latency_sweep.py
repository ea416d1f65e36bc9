"""Fig. 7: influence of the latency penalty on the plan.

Sweeps the per-band latency penalty for five user distributions between
location 0 (cheap end of the line) and location 9 (costly end), and
records for each solve the three quantities of Fig. 7's panels:
total cost (a), space cost (b) and user-weighted mean latency (c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..core.entities import AsIsState
from ..core.plan import TransformationPlan
from ..api import solve as unified_solve
from ..core.planner import PlannerOptions
from ..datasets.scenarios import latency_line_scenario
from ..lp import SolveOptions
from ..parallel import parallel_map
from .harness import SweepPoint, SweepSeries, fill_unset

#: The paper's five user splits, as fraction of users at location 0
#: (west end).  1.0 = "All users in location 0".
DEFAULT_USER_SPLITS = (1.0, 0.75, 0.5, 0.25, 0.0)

#: Default penalty sweep, $ per user per 10 ms band.
DEFAULT_PENALTIES = (0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)


def split_label(fraction_at_west: float) -> str:
    """Legend label matching the paper's wording."""
    if fraction_at_west == 1.0:
        return "All users in location 0"
    if fraction_at_west == 0.0:
        return "All users in location 9"
    if fraction_at_west == 0.5:
        return "All users equally distributed in 0 and 9"
    return f"{fraction_at_west:.0%} users in location 0"


def mean_user_latency(state: AsIsState, plan: TransformationPlan) -> float:
    """User-weighted mean latency over every group's placement (ms)."""
    by_name = {dc.name: dc for dc in state.target_datacenters}
    weighted = 0.0
    users = 0.0
    for group in state.app_groups:
        if group.total_users == 0:
            continue
        dc = by_name[plan.placement[group.name]]
        weighted += group.mean_latency(dc.latency_to_users) * group.total_users
        users += group.total_users
    return weighted / users if users else 0.0


@dataclass
class LatencySweepResult:
    """All series of Fig. 7; each point carries total/space/latency."""

    series: list[SweepSeries] = field(default_factory=list)

    def by_split(self, fraction_at_west: float) -> SweepSeries:
        label = split_label(fraction_at_west)
        for s in self.series:
            if s.name == label:
                return s
        raise KeyError(f"no series {label!r}")


def _latency_point(
    task: tuple[float, float],
    backend: str,
    n_groups: int,
    total_servers: int,
    solve_options: SolveOptions,
) -> SweepPoint:
    """Solve one (split, penalty) point (module-level for process fan-out)."""
    split, penalty = task
    state = latency_line_scenario(
        penalty_per_band=penalty,
        fraction_at_west=split,
        n_groups=n_groups,
        total_servers=total_servers,
    )
    plan = unified_solve(
        state,
        method="milp",
        options=PlannerOptions(backend=backend, solve_options=solve_options),
    ).plan
    return SweepPoint(
        parameter=penalty,
        values={
            "total_cost": plan.breakdown.total,
            "space_cost": plan.breakdown.space,
            "mean_latency_ms": mean_user_latency(state, plan),
            "latency_penalty": plan.breakdown.latency_penalty,
        },
    )


def run_latency_sweep(
    penalties: tuple[float, ...] = DEFAULT_PENALTIES,
    user_splits: tuple[float, ...] = DEFAULT_USER_SPLITS,
    backend: str = "auto",
    n_groups: int = 190,
    total_servers: int = 1070,
    solve_options: SolveOptions | None = None,
    jobs: int = 1,
) -> LatencySweepResult:
    """Reproduce Fig. 7 (a, b, c).

    Every (user split, penalty) point is an independent solve; ``jobs >
    1`` fans the grid out across worker processes.
    """
    solve_options = fill_unset(solve_options, mip_rel_gap=1e-4)
    tasks = [(split, penalty) for split in user_splits for penalty in penalties]
    points = parallel_map(
        partial(
            _latency_point,
            backend=backend,
            n_groups=n_groups,
            total_servers=total_servers,
            solve_options=solve_options,
        ),
        tasks,
        jobs=jobs,
    )
    result = LatencySweepResult()
    for i, split in enumerate(user_splits):
        series = SweepSeries(name=split_label(split))
        series.points = points[i * len(penalties) : (i + 1) * len(penalties)]
        result.series.append(series)
    return result
