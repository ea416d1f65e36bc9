"""Fig. 10: placement order as the estate grows.

Sweeps the number of application groups from 0 to 700 over the
space/WAN-tradeoff line (capacity 100 per site) and records which data
centers eTransform fills.  The paper's observation: the globally
cheapest location fills first, then its neighbours in increasing
total-cost order — the legend of Fig. 10 reads locations
4, 5, 3, 6, 2, 7, 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..api import solve as unified_solve
from ..core.planner import PlannerOptions
from ..datasets.scenarios import tradeoff_line_scenario
from ..lp import SolveOptions
from .harness import fill_unset
from .tradeoff import price_bundle_everywhere

#: The paper's x-axis.
DEFAULT_GROUP_COUNTS = (100, 200, 300, 400, 500, 600, 700)


@dataclass
class GrowthPoint:
    """Placement snapshot at one estate size."""

    n_groups: int
    datacenters_used: int
    fill: dict[str, int] = field(default_factory=dict)


@dataclass
class PlacementGrowthResult:
    """Fig. 10's staircase plus the cost-order ground truth."""

    points: list[GrowthPoint] = field(default_factory=list)
    cost_order: list[str] = field(default_factory=list)

    def datacenters_used(self) -> list[int]:
        return [p.datacenters_used for p in self.points]

    def first_use_order(self) -> list[str]:
        """Data centers in the order the sweep first used them."""
        seen: list[str] = []
        for point in self.points:
            for name in sorted(point.fill, key=lambda n: -point.fill[n]):
                if name not in seen:
                    seen.append(name)
        return seen


def run_placement_growth(
    group_counts: tuple[int, ...] = DEFAULT_GROUP_COUNTS,
    backend: str = "auto",
    solve_options: SolveOptions | None = None,
) -> PlacementGrowthResult:
    """Reproduce Fig. 10."""
    solve_options = fill_unset(solve_options, mip_rel_gap=1e-4)
    result = PlacementGrowthResult()

    # Ground truth: the per-bundle total-cost order of the locations.
    reference = price_bundle_everywhere(tradeoff_line_scenario(n_groups=100))
    result.cost_order = [
        loc.location
        for loc in sorted(reference.locations, key=lambda l: l.total_cost)
    ]

    for n in group_counts:
        state = tradeoff_line_scenario(n_groups=n)
        plan = unified_solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend=backend, wan_model="vpn", solve_options=solve_options
            ),
        ).plan
        fill = Counter(plan.placement.values())
        result.points.append(
            GrowthPoint(
                n_groups=n,
                datacenters_used=len(fill),
                fill=dict(fill),
            )
        )
    return result
