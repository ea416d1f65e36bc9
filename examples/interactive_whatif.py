"""The admin interface for iterative modification (paper Fig. 5).

Run:  python examples/interactive_whatif.py

An administrator rarely accepts the first optimal plan: compliance pins
an application group to a specific site, a candidate site falls through
in contract negotiation, a site must not host too many groups.  This
example drives the IterativeSession API through such a refinement loop
and shows the cost of each directive.
"""

from repro import IterativeSession, PlannerOptions, SolveOptions, load_enterprise1


def main() -> None:
    state = load_enterprise1(scale=0.3)
    session = IterativeSession(
        state,
        PlannerOptions(backend="auto", solve_options=SolveOptions(mip_rel_gap=0.005)),
    )

    plan = session.plan()
    print(f"Initial optimal plan: ${plan.total_cost:,.0f} "
          f"into {plan.datacenters_used}")

    # Compliance: the first group must stay in the site it is in today's
    # jurisdiction — pin it to a specific candidate.
    group = state.app_groups[0].name
    pinned_site = sorted(set(plan.placement.values()))[0]
    other_site = next(
        dc.name for dc in state.target_datacenters if dc.name != pinned_site
    )
    session.pin(group, other_site)
    plan = session.plan()
    print(f"After pinning {group} to {other_site}: ${plan.total_cost:,.0f}")

    # Procurement: one of the chosen sites fell through — retire it.
    session.retire_site(pinned_site)
    plan = session.plan()
    print(f"After retiring {pinned_site}: ${plan.total_cost:,.0f} "
          f"into {plan.datacenters_used}")

    # Risk: cap how many groups any surviving site may host.
    busiest = max(
        set(plan.placement.values()),
        key=lambda site: sum(1 for s in plan.placement.values() if s == site),
    )
    count = sum(1 for s in plan.placement.values() if s == busiest)
    session.cap_groups(busiest, max(1, count // 2))
    plan = session.plan()
    print(f"After capping {busiest} at {max(1, count // 2)} groups: "
          f"${plan.total_cost:,.0f}")

    print("\nDirectives applied, in order:")
    for line in session.describe():
        print(f"  - {line}")
    print(f"\nCost trajectory: "
          + " → ".join(f"${p.total_cost:,.0f}" for p in session.history))


if __name__ == "__main__":
    main()
