"""Experiment plumbing: result records and timing helpers."""

from __future__ import annotations

import pytest

from repro.core import evaluate_plan
from repro.experiments.harness import (
    AlgorithmResult,
    SweepPoint,
    SweepSeries,
    state_label,
    timed_plan,
)
from repro.parallel import parallel_map


class TestAlgorithmResult:
    def test_from_plan(self, tiny_state):
        placement = {g.name: "mid" for g in tiny_state.app_groups}
        plan = evaluate_plan(tiny_state, placement)
        result = AlgorithmResult.from_plan("test", plan, 1.5)
        assert result.algorithm == "test"
        assert result.total_cost == plan.breakdown.total
        assert result.operational_cost == plan.breakdown.operational
        assert result.datacenters_used == 1
        assert result.runtime_seconds == 1.5
        assert result.plan is plan

    def test_from_plan_carries_solver_stats(self, tiny_state):
        from repro.core.planner import ETransformPlanner, PlannerOptions

        plan = ETransformPlanner(
            tiny_state, PlannerOptions(backend="branch_bound")
        ).build_plan()
        result = AlgorithmResult.from_plan("etransform", plan, 0.1)
        assert result.solve_stats is plan.solver_stats
        assert result.solve_stats is not None
        assert result.solve_stats.nodes_explored > 0

    def test_timed_plan_measures(self, tiny_state):
        placement = {g.name: "mid" for g in tiny_state.app_groups}

        def fn():
            return evaluate_plan(tiny_state, placement)

        result = timed_plan("timed", fn)
        assert result.algorithm == "timed"
        assert result.runtime_seconds >= 0.0

    def test_timed_plan_propagates_errors(self):
        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError, match="nope"):
            timed_plan("x", boom)


class TestSweepSeries:
    def make(self):
        return SweepSeries(
            name="s",
            points=[
                SweepPoint(1.0, {"cost": 10.0, "latency": 5.0}),
                SweepPoint(2.0, {"cost": 20.0, "latency": 3.0}),
            ],
        )

    def test_xs(self):
        assert self.make().xs() == [1.0, 2.0]

    def test_ys(self):
        series = self.make()
        assert series.ys("cost") == [10.0, 20.0]
        assert series.ys("latency") == [5.0, 3.0]

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            self.make().ys("unknown")


def test_state_label(tiny_state):
    assert state_label(tiny_state) == "tiny"


def _square(x: int) -> int:
    """Module-level so ProcessPoolExecutor can pickle it."""
    return x * x


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_empty_and_singleton(self):
        assert parallel_map(_square, [], jobs=4) == []
        assert parallel_map(_square, [5], jobs=4) == [25]

    def test_process_fanout_preserves_order(self):
        items = list(range(8))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]
