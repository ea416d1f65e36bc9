"""End-to-end planner facade tests."""

from __future__ import annotations

import pytest

import repro
from repro.core import (
    ApplicationGroup,
    AsIsState,
    ETransformPlanner,
    PlannerOptions,
    PlanningError,
)
from repro.core.latency import NO_PENALTY
from repro.lp import SolveOptions

from ..conftest import make_datacenter


class TestPlanConsolidation:
    def test_basic_plan(self, tiny_state):
        plan = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert set(plan.placement) == {g.name for g in tiny_state.app_groups}
        assert plan.latency_violations == 0
        assert plan.total_cost > 0
        assert plan.objective == pytest.approx(plan.total_cost, rel=1e-6)

    def test_backends_agree(self, tiny_state):
        highs = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        bb = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="branch_bound")
        ).plan
        assert highs.total_cost == pytest.approx(bb.total_cost, rel=1e-6)

    def test_dr_plan(self, tiny_state):
        plan = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(enable_dr=True, backend="highs"),
        ).plan
        assert plan.has_dr
        assert sum(plan.backup_servers.values()) > 0
        for g in plan.placement:
            assert plan.placement[g] != plan.secondary[g]

    def test_infeasible_raises_planning_error(self, user_locations):
        # Aggregate capacity (24) covers the estate (24), so validation
        # passes — but no site can hold two groups (16 > 12), so only
        # two of the three groups are placeable: a packing infeasibility
        # only the solver can detect.
        targets = [make_datacenter("d0", capacity=12), make_datacenter("d1", capacity=12)]
        groups = [ApplicationGroup("a", 8, users={"east": 1.0}),
                  ApplicationGroup("b", 8, users={"east": 1.0}),
                  ApplicationGroup("c", 8, users={"east": 1.0})]
        state = AsIsState("t", groups, targets, user_locations=user_locations)
        with pytest.raises(PlanningError, match="infeasible"):
            repro.solve(state, method="milp", options=PlannerOptions(backend="highs"))

    def test_wan_model_forwarded(self, tiny_state):
        metered = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(backend="highs", wan_model="metered"),
        ).plan
        vpn = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(backend="highs", wan_model="vpn"),
        ).plan
        # Different pricing regimes: breakdowns must reflect each model.
        assert metered.breakdown.wan != pytest.approx(vpn.breakdown.wan)


class TestPlannerOptions:
    def test_lp_export(self, tiny_state, tmp_path):
        path = tmp_path / "model.lp"
        options = PlannerOptions(backend="highs", lp_export_path=str(path))
        ETransformPlanner(tiny_state, options).build_plan()
        text = path.read_text()
        assert "Minimize" in text
        assert "Binaries" in text

    def test_solver_options_forwarded(self, tiny_state):
        options = PlannerOptions(
            backend="highs", solve_options=SolveOptions(mip_rel_gap=0.5)
        )
        plan = ETransformPlanner(tiny_state, options).build_plan()
        assert plan.total_cost > 0  # loose gap still returns a plan

    def test_validation_can_be_disabled(self, tiny_state):
        options = PlannerOptions(backend="highs", validate_inputs=False)
        assert ETransformPlanner(tiny_state, options).build_plan().total_cost > 0

    def test_last_solution_recorded(self, tiny_state):
        planner = ETransformPlanner(tiny_state, PlannerOptions(backend="highs"))
        assert planner.last_solution is None
        planner.build_plan()
        assert planner.last_solution is not None
        assert planner.last_solution.status.has_solution

    def test_solver_stats_attached_to_plan(self, tiny_state):
        plan = ETransformPlanner(
            tiny_state, PlannerOptions(backend="branch_bound")
        ).build_plan()
        assert plan.solver_stats is not None
        assert plan.solver_stats.nodes_explored > 0
        assert plan.solver_stats.elapsed_seconds > 0.0

    def test_presolve_option_runs_and_records_reductions(self, tiny_state):
        def plan_with(presolve):
            options = PlannerOptions(
                backend="branch_bound",
                solve_options=SolveOptions(
                    relaxation_engine="builtin", presolve=presolve
                ),
            )
            return ETransformPlanner(tiny_state, options).build_plan()

        baseline, presolved = plan_with(False), plan_with(True)
        assert presolved.total_cost == pytest.approx(baseline.total_cost)
        assert baseline.solver_stats.presolve_rounds == 0
        assert presolved.solver_stats.presolve_rounds >= 1
        assert presolved.solver_stats.presolve_tightened_bounds > 0

    def test_presolve_reports_fixed_variables(self):
        from repro.datasets import load_enterprise1

        options = PlannerOptions(
            backend="branch_bound",
            solve_options=SolveOptions(relaxation_engine="builtin"),
        )
        plan = ETransformPlanner(load_enterprise1(scale=0.1), options).build_plan()
        assert plan.solver_stats.presolve_fixed_variables > 0

    def test_plan_is_validated(self, tiny_state):
        # A correct solver output always passes validate_plan; this just
        # exercises the call path end to end.
        plan = ETransformPlanner(tiny_state, PlannerOptions(backend="highs")).build_plan()
        from repro.core import validate_plan

        validate_plan(tiny_state, plan)  # should not raise
