"""Text rendering of the paper's tables and figure series."""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.datasets import load_enterprise1
from repro.experiments import run_comparison, tables
from repro.experiments.comparison import CaseStudySuite
from repro.experiments.dr_cost_sweep import DRCostSweepResult
from repro.experiments.harness import SweepPoint, SweepSeries
from repro.experiments.latency_sweep import LatencySweepResult
from repro.experiments.placement_growth import GrowthPoint, PlacementGrowthResult
from repro.experiments.tradeoff import LocationCost, TradeoffResult


@pytest.fixture(scope="module")
def comparison():
    state = load_enterprise1(scale=0.12)
    return run_comparison(
        state,
        backend="highs",
        solve_options=SolveOptions(mip_rel_gap=0.02, time_limit=30),
    )


class TestComparisonTables:
    def test_render_comparison(self, comparison):
        text = tables.render_comparison(comparison)
        assert "Fig 4" in text
        for algorithm in ("as-is", "manual", "greedy", "etransform"):
            assert algorithm in text

    def test_render_reduction_table(self, comparison):
        suite = CaseStudySuite(enable_dr=False, results=[comparison])
        text = tables.render_reduction_table(suite)
        assert "Fig 4(d)" in text
        assert "%" in text
        assert comparison.dataset in text

    def test_render_violation_table(self, comparison):
        suite = CaseStudySuite(enable_dr=False, results=[comparison])
        text = tables.render_violation_table(suite)
        assert "Fig 4(e)" in text

    def test_dr_labels(self, comparison):
        comparison.enable_dr = True
        suite = CaseStudySuite(enable_dr=True, results=[comparison])
        assert "Fig 6(d)" in tables.render_reduction_table(suite)
        assert "Fig 6(e)" in tables.render_violation_table(suite)
        assert "Fig 6" in tables.render_comparison(comparison)
        comparison.enable_dr = False


class TestSweepTables:
    def test_render_latency_sweep(self):
        series = SweepSeries(
            name="All users in location 9",
            points=[SweepPoint(0.0, {"total_cost": 10.0, "space_cost": 5.0,
                                     "mean_latency_ms": 40.0})],
        )
        result = LatencySweepResult(series=[series])
        for key, marker in (
            ("total_cost", "7(a)"),
            ("space_cost", "7(b)"),
            ("mean_latency_ms", "7(c)"),
        ):
            text = tables.render_latency_sweep(result, key)
            assert marker in text
            assert "All users in location 9" in text

    def test_render_dr_sweep(self):
        result = DRCostSweepResult(points=[
            SweepPoint(1.0, {"datacenters_used": 2.0, "dr_servers": 100.0,
                             "primary_datacenters": 1.0, "total_cost": 1.0}),
            SweepPoint(10000.0, {"datacenters_used": 7.0, "dr_servers": 20.0,
                                 "primary_datacenters": 7.0, "total_cost": 9.0}),
        ])
        text = tables.render_dr_sweep(result)
        assert "Fig 8" in text
        assert "10,000" in text

    def test_render_tradeoff(self):
        result = TradeoffResult(locations=[
            LocationCost("location0", 10.0, 100.0, 5.0),
            LocationCost("location1", 50.0, 10.0, 5.0),
        ])
        text = tables.render_tradeoff(result)
        assert "Fig 9" in text
        assert "spread=1.8x" in text

    def test_render_placement_growth(self):
        result = PlacementGrowthResult(
            points=[GrowthPoint(100, 1, {"location4": 100})],
            cost_order=["location4", "location5"],
        )
        text = tables.render_placement_growth(result)
        assert "Fig 10" in text
        assert "location4:100" in text
        assert "location4 < location5" in text
