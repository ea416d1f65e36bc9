"""Fig. 10: placement order as the estate grows from 100 to 700 groups.

The paper's observation: eTransform fills the location with the lowest
total cost first, then pulls in further locations in increasing
total-cost order (its Fig. 10 legend reads 4, 5, 3, 6, 2, 7, 1).
"""

from __future__ import annotations

from repro import SolveOptions
from repro.experiments import run_placement_growth, tables
from repro.experiments.placement_growth import DEFAULT_GROUP_COUNTS

from .conftest import run_once


def test_bench_fig10_placement_growth(benchmark, archive):
    def run():
        return run_placement_growth(
            group_counts=DEFAULT_GROUP_COUNTS,
            backend="highs",
            solve_options=SolveOptions(mip_rel_gap=1e-4),
        )

    result = run_once(benchmark, run)

    # Staircase: one more site per 100 groups (capacity 100 each).
    assert result.datacenters_used() == [1, 2, 3, 4, 5, 6, 7]

    # The sites used at every size are exactly the cheapest-k locations.
    for point in result.points:
        k = point.datacenters_used
        assert set(point.fill) == set(result.cost_order[:k])
        assert all(count <= 100 for count in point.fill.values())

    # First site ever used is the global cost minimum.
    assert result.first_use_order()[0] == result.cost_order[0]

    text = tables.render_placement_growth(result)
    archive("fig10_placement_growth", text)
    print()
    print(text)
