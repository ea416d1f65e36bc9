"""Extension experiments: resilience and site-count sweeps."""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.datasets import load_enterprise1
from repro.experiments import run_resilience, run_site_count

SOLVER = SolveOptions(mip_rel_gap=0.02, time_limit=60)


class TestResilience:
    @pytest.fixture(scope="class")
    def result(self):
        state = load_enterprise1(scale=0.1)
        return run_resilience(
            state, horizon_months=120, backend="highs", solve_options=SOLVER
        )

    def test_three_variants(self, result):
        assert {r.variant for r in result.rows} == {
            "no-dr", "shared-pools", "dedicated",
        }

    def test_dr_improves_availability(self, result):
        no_dr = result.row("no-dr")
        shared = result.row("shared-pools")
        assert shared.availability >= no_dr.availability
        assert shared.downtime_hours <= no_dr.downtime_hours

    def test_dr_costs_more(self, result):
        assert result.row("shared-pools").monthly_cost > result.row("no-dr").monthly_cost

    def test_shared_cheaper_than_dedicated(self, result):
        assert (
            result.row("shared-pools").monthly_cost
            <= result.row("dedicated").monthly_cost + 1e-6
        )

    def test_no_dr_never_fails_over(self, result):
        assert result.row("no-dr").failovers == 0

    def test_render(self, result):
        text = result.render()
        assert "availability" in text
        assert "shared-pools" in text

    def test_unknown_variant(self, result):
        with pytest.raises(KeyError):
            result.row("tape-backups")


class TestSiteCount:
    @pytest.fixture(scope="class")
    def result(self):
        state = load_enterprise1(scale=0.2)
        return run_site_count(state, backend="highs", solve_options=SOLVER)

    def test_one_point_per_count(self, result):
        offered = [p.offered for p in result.points]
        assert offered == sorted(offered)
        assert len(set(offered)) == len(offered)

    def test_feasible_costs_nonincreasing(self, result):
        costs = [p.total_cost for p in result.feasible_points()]
        for earlier, later in zip(costs, costs[1:]):
            assert later <= earlier + 1e-6 + 0.02 * earlier  # gap tolerance

    def test_used_never_exceeds_offered(self, result):
        for p in result.feasible_points():
            assert p.used <= p.offered

    def test_infeasible_prefix_recorded(self):
        state = load_enterprise1(scale=0.2)
        # Offering only the first site cannot host the whole estate.
        first = state.target_datacenters[0]
        if first.capacity < state.total_servers:
            result = run_site_count(
                state, counts=(1,), backend="highs", solve_options=SOLVER
            )
            assert not result.points[0].feasible

    def test_knee(self, result):
        knee = result.knee
        best = min(p.total_cost for p in result.feasible_points())
        assert knee.total_cost <= best * 1.05

    def test_counts_validation(self):
        state = load_enterprise1(scale=0.2)
        with pytest.raises(ValueError):
            run_site_count(state, counts=(0,))
        with pytest.raises(ValueError):
            run_site_count(state, counts=(999,))

    def test_render(self, result):
        text = result.render()
        assert "knee" in text
        assert "offered" in text
