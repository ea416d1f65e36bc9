"""Fig. 9: the space-cost / WAN-cost tradeoff across the line.

Prices a 100-group bundle at every location and checks the paper's
observations: space rises along the line while dedicated-VPN WAN falls
toward the users, the total is minimized strictly inside the line, and
the cheapest location is severalfold (paper: ~7×) cheaper than the most
expensive one.
"""

from __future__ import annotations

import repro
from repro import PlannerOptions, SolveOptions
from repro.experiments import run_tradeoff, tables


def test_bench_fig9_tradeoff(benchmark, archive):
    result = benchmark(run_tradeoff, 100)

    spaces = [loc.space_cost for loc in result.locations]
    wans = [loc.wan_cost for loc in result.locations]
    totals = result.totals()

    assert spaces == sorted(spaces)          # space grows along the line
    assert wans == sorted(wans, reverse=True)  # WAN falls toward users
    assert 0 < result.minimum_index < len(totals) - 1  # interior optimum
    assert result.spread > 5.0               # severalfold, paper says ~7×

    text = tables.render_tradeoff(result)
    archive("fig9_tradeoff", text)
    print()
    print(text)


def test_bench_fig9_solver_agrees_with_pricing(benchmark, archive):
    """eTransform's actual placement lands in the priced minimum."""
    from repro.datasets import tradeoff_line_scenario

    reference = run_tradeoff(100)
    state = tradeoff_line_scenario(n_groups=100)

    def run():
        return repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs",
                wan_model="vpn",
                solve_options=SolveOptions(mip_rel_gap=1e-4),
            ),
        ).plan

    plan = benchmark.pedantic(run, rounds=1, iterations=1)
    chosen = set(plan.placement.values())
    assert chosen == {reference.cheapest.location}
