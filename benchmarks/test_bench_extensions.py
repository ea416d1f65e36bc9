"""Extension benchmarks (beyond the paper's figures).

* Resilience: the DR designs' availability under replayed disasters.
* Site count: the diminishing-returns curve behind "consolidate 2100
  sites into less than 1000"-style targets.
"""

from __future__ import annotations

from repro import SolveOptions
from repro.datasets import load_enterprise1
from repro.experiments import run_resilience, run_site_count

from .conftest import run_once

SOLVER = SolveOptions(mip_rel_gap=0.02, time_limit=90)


def test_bench_resilience(benchmark, archive):
    state = load_enterprise1(scale=0.15)

    def run():
        return run_resilience(
            state, horizon_months=240, backend="highs", solve_options=SOLVER
        )

    result = run_once(benchmark, run)
    no_dr = result.row("no-dr")
    shared = result.row("shared-pools")
    dedicated = result.row("dedicated")

    # DR buys orders of magnitude less downtime for a bounded premium.
    assert shared.availability > no_dr.availability
    assert shared.downtime_hours < no_dr.downtime_hours / 5
    assert shared.monthly_cost <= dedicated.monthly_cost + 1e-6
    # Dedicated pools can never shortfall; shared ones may (rarely).
    assert dedicated.shortfalls == 0

    text = result.render()
    archive("ext_resilience", text)
    print()
    print(text)


def test_bench_site_count(benchmark, archive):
    state = load_enterprise1(scale=0.4)

    def run():
        return run_site_count(state, backend="highs", solve_options=SOLVER)

    result = run_once(benchmark, run)
    feasible = result.feasible_points()
    assert feasible, "no feasible prefix at all"
    costs = [p.total_cost for p in feasible]
    # More candidate sites never hurt (monotone up to MIP gap), and the
    # full menu is materially cheaper than the smallest feasible one.
    assert costs[-1] <= costs[0] * 1.02
    assert costs[-1] < costs[0]

    text = result.render()
    archive("ext_site_count", text)
    print()
    print(text)
