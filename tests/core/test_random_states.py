"""Property-based integration tests over random small enterprises.

For any random (feasible) state the library must uphold:

* the LP plan is never costlier than greedy (LP optimality),
* every emitted plan passes hard-constraint validation,
* the solver objective equals the independent plan evaluation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import PlannerOptions, SolveOptions
from repro.core import (
    ApplicationGroup,
    AsIsState,
    StepCostFunction,
    UserLocation,
    evaluate_plan,
    validate_plan,
)
from repro.core.entities import DataCenter
from repro.core.latency import LatencyPenaltyFunction, NO_PENALTY

LOCATIONS = ["east", "west"]


@st.composite
def random_state(draw):
    n_sites = draw(st.integers(min_value=2, max_value=4))
    n_groups = draw(st.integers(min_value=2, max_value=6))

    sites = []
    for j in range(n_sites):
        base = draw(st.floats(min_value=40, max_value=200))
        discount = draw(st.booleans())
        space = (
            StepCostFunction.volume_discount(base, step=20, discount=base * 0.1,
                                             floor_price=base * 0.5)
            if discount
            else StepCostFunction.flat(base)
        )
        sites.append(
            DataCenter(
                name=f"dc{j}",
                capacity=draw(st.integers(min_value=40, max_value=120)),
                space_cost=space,
                power_cost_per_kw=draw(st.floats(min_value=30, max_value=150)),
                labor_cost_per_admin=draw(st.floats(min_value=3000, max_value=9000)),
                wan_cost_per_mb=draw(st.floats(min_value=0.01, max_value=0.2)),
                latency_to_users={
                    "east": draw(st.floats(min_value=1, max_value=40)),
                    "west": draw(st.floats(min_value=1, max_value=40)),
                },
                fixed_monthly_cost=draw(st.sampled_from([0.0, 2000.0, 6000.0])),
            )
        )

    groups = []
    max_group = min(s.capacity for s in sites)
    for i in range(n_groups):
        sensitive = draw(st.booleans())
        groups.append(
            ApplicationGroup(
                name=f"g{i}",
                servers=draw(st.integers(min_value=1, max_value=max_group)),
                monthly_data_mb=draw(st.floats(min_value=0, max_value=50_000)),
                users={
                    "east": draw(st.floats(min_value=0, max_value=100)),
                    "west": draw(st.floats(min_value=0, max_value=100)),
                },
                latency_penalty=(
                    LatencyPenaltyFunction.single_threshold(10.0, 100.0)
                    if sensitive
                    else NO_PENALTY
                ),
            )
        )

    state = AsIsState(
        "random",
        groups,
        sites,
        user_locations=[UserLocation(n) for n in LOCATIONS],
    )
    # Only feasible instances are interesting here.
    total = sum(g.servers for g in groups)
    if total > sum(s.capacity for s in sites):
        groups = groups[:2]
        state = AsIsState(
            "random", groups, sites,
            user_locations=[UserLocation(n) for n in LOCATIONS],
        )
    return state


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(random_state())
@SETTINGS
def test_lp_never_loses_to_greedy(state):
    from repro.baselines.greedy import GreedyPlanError
    from repro.core.planner import PlanningError

    try:
        greedy = repro.solve(state, method="greedy").plan
    except GreedyPlanError:
        return  # greedy boxed itself in; nothing to compare
    try:
        lp = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs", solve_options=SolveOptions(mip_rel_gap=1e-6)
            ),
        ).plan
    except PlanningError:
        pytest.fail("LP infeasible although greedy found a plan")
    assert lp.total_cost <= greedy.total_cost + max(1e-4, 1e-6 * greedy.total_cost)


@given(random_state())
@SETTINGS
def test_plans_validate_and_match_objective(state):
    from repro.core.planner import PlanningError

    try:
        plan = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs", solve_options=SolveOptions(mip_rel_gap=1e-6)
            ),
        ).plan
    except PlanningError:
        return  # genuinely infeasible packing
    validate_plan(state, plan)
    re_evaluated = evaluate_plan(state, plan.placement, wan_model="metered")
    assert re_evaluated.breakdown.total == pytest.approx(plan.total_cost)
    assert plan.objective == pytest.approx(plan.total_cost, rel=1e-5)


@given(random_state())
@SETTINGS
def test_dr_plans_respect_invariants(state):
    from repro.core.planner import PlanningError
    from repro.core.validation import StateValidationError, validate_state

    # DR needs headroom; skip states that cannot host it.
    try:
        validate_state(state, require_dr_headroom=True)
    except StateValidationError:
        return
    try:
        plan = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                enable_dr=True,
                backend="highs",
                solve_options=SolveOptions(mip_rel_gap=0.01, time_limit=20),
            ),
        ).plan
    except PlanningError:
        return
    validate_plan(state, plan)
    for group in plan.placement:
        assert plan.placement[group] != plan.secondary[group]
