"""Local-search plan improvement."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import PlannerOptions, SolveOptions
from repro.core import evaluate_plan, validate_plan
from repro.core.local_search import improve_plan


def worst_plan(state):
    """Deliberately bad: everything in the costliest site that fits."""
    costly = max(
        state.target_datacenters,
        key=lambda dc: dc.space_cost.unit_price(1),
    )
    placement = {g.name: costly.name for g in state.app_groups}
    return evaluate_plan(state, placement)


class TestImprovePlan:
    def test_never_worsens(self, tiny_state):
        base = repro.solve(tiny_state, method="greedy").plan
        result = improve_plan(tiny_state, base)
        assert result.plan.total_cost <= base.total_cost + 1e-6
        assert result.improvement >= -1e-6

    def test_improves_a_bad_plan(self, tiny_state):
        bad = worst_plan(tiny_state)
        result = improve_plan(tiny_state, bad)
        assert result.plan.total_cost < bad.total_cost
        assert result.relocations + result.swaps > 0

    def test_reaches_lp_quality_on_tiny(self, tiny_state):
        bad = worst_plan(tiny_state)
        result = improve_plan(tiny_state, bad)
        lp = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert result.plan.total_cost <= lp.total_cost * 1.05

    def test_result_validates(self, tiny_state):
        result = improve_plan(tiny_state, worst_plan(tiny_state))
        validate_plan(tiny_state, result.plan)

    def test_respects_forbidden_sites(self, tiny_state):
        tiny_state.app_groups[0].forbidden_datacenters = frozenset({"cheap-far", "mid"})
        placement = {g.name: "east-dc" for g in tiny_state.app_groups}
        base = evaluate_plan(tiny_state, placement)
        result = improve_plan(tiny_state, base)
        assert result.plan.placement["erp"] == "east-dc"

    def test_respects_risk_groups(self, tiny_state):
        tiny_state.app_groups[2].risk_group = "r"
        tiny_state.app_groups[3].risk_group = "r"
        placement = {"erp": "east-dc", "web": "east-dc",
                     "batch": "mid", "bi": "cheap-far"}
        base = evaluate_plan(tiny_state, placement)
        result = improve_plan(tiny_state, base)
        assert (
            result.plan.placement["batch"] != result.plan.placement["bi"]
        )
        validate_plan(tiny_state, result.plan)

    def test_rejects_dr_plans(self, tiny_state):
        placement = {g.name: "mid" for g in tiny_state.app_groups}
        secondary = {g.name: "cheap-far" for g in tiny_state.app_groups}
        dr = evaluate_plan(tiny_state, placement, secondary=secondary)
        with pytest.raises(ValueError, match="non-DR"):
            improve_plan(tiny_state, dr)

    def test_max_iterations_zero_is_noop(self, tiny_state):
        bad = worst_plan(tiny_state)
        result = improve_plan(tiny_state, bad, max_iterations=0)
        assert result.plan.placement == bad.placement
        with pytest.raises(ValueError):
            improve_plan(tiny_state, bad, max_iterations=-1)

    def test_solver_tag_extended(self, tiny_state):
        base = repro.solve(tiny_state, method="greedy").plan
        result = improve_plan(tiny_state, base)
        assert result.plan.solver == "greedy+ls"

    def test_incremental_matches_full_evaluation(self, tiny_state):
        # The final plan's cost must be exactly evaluate_plan's verdict
        # (improve_plan promises that); spot-check on a moved plan.
        result = improve_plan(tiny_state, worst_plan(tiny_state))
        re_scored = evaluate_plan(tiny_state, result.plan.placement)
        assert result.plan.total_cost == pytest.approx(re_scored.total_cost)

    def test_polishes_greedy_on_case_study(self):
        from repro.datasets import load_enterprise1

        state = load_enterprise1(scale=0.25)
        base = repro.solve(state, method="greedy").plan
        result = improve_plan(state, base)
        lp = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs", solve_options=SolveOptions(mip_rel_gap=0.005)
            ),
        ).plan
        # Polished greedy closes (at least part of) the gap to the LP.
        assert result.plan.total_cost <= base.total_cost
        assert result.plan.total_cost >= lp.total_cost - 1e-6


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_local_search_never_violates_capacity(seed, tiny_state):
    import random

    rng = random.Random(seed)
    sites = [dc.name for dc in tiny_state.target_datacenters]
    placement = {}
    load = {s: 0 for s in sites}
    for g in tiny_state.app_groups:
        candidates = [
            s for s in sites
            if load[s] + g.servers <= tiny_state.target(s).capacity
        ]
        site = rng.choice(candidates)
        placement[g.name] = site
        load[site] += g.servers
    base = evaluate_plan(tiny_state, placement)
    result = improve_plan(tiny_state, base)
    validate_plan(tiny_state, result.plan)
