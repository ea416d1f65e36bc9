"""From optimal plan to executable project: migration waves + payback.

Run:  python examples/migration_project.py [scale]

A consolidation plan is only as good as the project that executes it.
This example computes the to-be plan for the enterprise1 estate, phases
it into change windows under an ops budget (max servers per wave, bulk
bandwidth, dual-running validation), and prints the wave timetable, the
one-off migration cost, and the month the project pays for itself.
"""

import sys

from repro import PlannerOptions, SolveOptions, load_enterprise1, solve
from repro.baselines import asis_plan
from repro.migration import MigrationConfig, plan_migration


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5
    state = load_enterprise1(scale=scale)

    current = asis_plan(state)
    options = PlannerOptions(solve_options=SolveOptions(mip_rel_gap=0.005))
    plan = solve(state, options=options).plan
    print(
        f"Monthly bill: ${current.total_cost:,.0f} (as-is) → "
        f"${plan.total_cost:,.0f} (to-be), "
        f"saving ${current.total_cost - plan.total_cost:,.0f}/month\n"
    )

    config = MigrationConfig(
        max_servers_per_wave=120,
        move_cost_per_server=150.0,
        data_gb_per_server=200.0,
        bandwidth_mbps=2000.0,
        dual_run_days=2.0,
    )
    schedule = plan_migration(state, plan, config)
    print(schedule.render())

    print("\nCumulative net position (first year):")
    for month, net in enumerate(schedule.cumulative_savings_curve(12), start=1):
        bar = "#" * max(0, int(net / max(schedule.monthly_saving, 1) * 4))
        print(f"  month {month:>2}: {net:>14,.0f}  {bar}")


if __name__ == "__main__":
    main()
