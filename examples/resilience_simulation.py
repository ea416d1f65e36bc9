"""Does the DR plan actually survive disasters?  Simulate and see.

Run:  python examples/resilience_simulation.py [scale]

The planner sizes shared backup pools under a single-failure
assumption.  This example replays two decades of sampled disasters
against three alternatives — no DR, eTransform's shared-pool DR, and
dedicated per-group backups — under *identical* outage traces, and
compares availability, failovers and pool shortfalls (moments when two
simultaneous failures outran a shared pool).
"""

import sys

from repro import PlannerOptions, SolveOptions, load_enterprise1, solve
from repro.sim import FailureModelConfig, SimulatorConfig, compare_resilience


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    state = load_enterprise1(scale=scale)
    solver = SolveOptions(mip_rel_gap=0.02, time_limit=120)

    plans = {
        "no-dr": solve(
            state, options=PlannerOptions(solve_options=solver)
        ).plan,
        "shared-pools": solve(
            state, options=PlannerOptions(enable_dr=True, solve_options=solver)
        ).plan,
        "dedicated": solve(
            state,
            options=PlannerOptions(
                enable_dr=True, dedicated_backups=True, solve_options=solver
            ),
        ).plan,
    }

    config = SimulatorConfig(
        horizon_months=240.0,  # twenty years of disasters
        failover_hours=0.5,
        failure=FailureModelConfig(mtbf_hours=3 * 8760.0, mttr_hours=120.0, seed=7),
    )
    reports = compare_resilience(state, plans, config)

    print(f"{'variant':<14} {'monthly cost':>14} {'availability':>13} "
          f"{'failovers':>10} {'shortfalls':>11}")
    for name, plan in plans.items():
        report = reports[name]
        print(
            f"{name:<14} ${plan.total_cost:>13,.0f} "
            f"{report.mean_availability:>13.5f} "
            f"{report.total_failovers:>10d} {len(report.shortfalls):>11d}"
        )

    print("\nDetail — shared pools:")
    print(reports["shared-pools"].summary())


if __name__ == "__main__":
    main()
