"""Joint consolidation + disaster-recovery planning (paper Section IV).

Run:  python examples/disaster_recovery_planning.py [scale]

Plans primary AND secondary sites for every application group under the
single-failure model, shows how backup pools are shared across sites,
and sweeps the backup-server price ζ to show the consolidation/DR
tension of the paper's Fig. 8: cheap backups → concentrate and mirror;
expensive backups → spread primaries so one small pool covers the worst
single failure.
"""

import sys

from repro import PlannerOptions, SolveOptions, load_enterprise1, solve
from repro.baselines import asis_with_dr_plan


def dr_options(time_limit: float) -> PlannerOptions:
    return PlannerOptions(
        enable_dr=True,
        solve_options=SolveOptions(mip_rel_gap=0.02, time_limit=time_limit),
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.3
    state = load_enterprise1(scale=scale)

    baseline = asis_with_dr_plan(state)
    print(f"As-is + single backup site: ${baseline.total_cost:,.0f} "
          f"({sum(baseline.backup_servers.values())} backup servers)\n")

    plan = solve(state, options=dr_options(120)).plan
    print(f"eTransform joint plan: ${plan.total_cost:,.0f} "
          f"({(plan.total_cost / baseline.total_cost - 1):+.0%} vs as-is+DR)")
    print(f"  primary sites  : {sorted(set(plan.placement.values()))}")
    print(f"  backup pools   : {plan.backup_servers}")
    print(f"  latency breaks : {plan.latency_violations}\n")

    print("Sensitivity to the backup-server price ζ:")
    print(f"{'zeta':>8} {'sites used':>11} {'DR servers':>11} {'total':>14}")
    for zeta in (10.0, 1000.0, 20000.0):
        state.params.dr_server_cost = zeta
        swept = solve(state, options=dr_options(60)).plan
        print(
            f"{zeta:>8,.0f} {len(swept.datacenters_used):>11d} "
            f"{sum(swept.backup_servers.values()):>11d} {swept.total_cost:>14,.0f}"
        )


if __name__ == "__main__":
    main()
