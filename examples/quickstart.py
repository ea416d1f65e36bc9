"""Quickstart: consolidate the enterprise1 case study in ~20 lines.

Run:  python examples/quickstart.py [scale]

Loads the synthetic enterprise1 estate (190 application groups, 1070
servers across 67 legacy sites), asks eTransform for a consolidation
plan into the 10 candidate sites, and prints the to-be report plus the
savings against doing nothing.
"""

import sys

from repro import PlannerOptions, SolveOptions, load_enterprise1, solve, asis_plan
from repro.io import render_plan_report


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    state = load_enterprise1(scale=scale)

    current = asis_plan(state)
    options = PlannerOptions(solve_options=SolveOptions(mip_rel_gap=0.005))
    plan = solve(state, options=options).plan

    print(render_plan_report(state, plan))
    print()
    saving = 1.0 - plan.total_cost / current.total_cost
    print(f"As-is monthly cost : ${current.total_cost:,.0f}")
    print(f"To-be monthly cost : ${plan.total_cost:,.0f}")
    print(f"Saving             : {saving:.0%}")


if __name__ == "__main__":
    main()
