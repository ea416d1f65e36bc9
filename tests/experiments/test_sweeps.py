"""Parameter-study harnesses (Figs. 7–10) at reduced scale."""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.experiments import (
    mean_user_latency,
    run_dr_cost_sweep,
    run_latency_sweep,
    run_placement_growth,
    run_tradeoff,
    split_label,
)


@pytest.fixture(scope="module")
def latency_sweep():
    return run_latency_sweep(
        penalties=(0.0, 40.0, 120.0),
        user_splits=(1.0, 0.0),
        backend="highs",
        n_groups=40,
        total_servers=220,
        solve_options=SolveOptions(mip_rel_gap=0.005, time_limit=30),
    )


class TestLatencySweep:
    def test_series_labels(self, latency_sweep):
        names = {s.name for s in latency_sweep.series}
        assert "All users in location 0" in names
        assert "All users in location 9" in names

    def test_concentrated_west_cost_flat(self, latency_sweep):
        series = latency_sweep.by_split(1.0)
        costs = series.ys("total_cost")
        assert costs[0] == pytest.approx(costs[-1], rel=0.02)

    def test_east_users_cost_rises_with_penalty(self, latency_sweep):
        series = latency_sweep.by_split(0.0)
        costs = series.ys("total_cost")
        assert costs[-1] > costs[0]

    def test_east_users_latency_falls_with_penalty(self, latency_sweep):
        series = latency_sweep.by_split(0.0)
        lats = series.ys("mean_latency_ms")
        assert lats[-1] < lats[0]

    def test_east_users_space_cost_rises(self, latency_sweep):
        series = latency_sweep.by_split(0.0)
        space = series.ys("space_cost")
        assert space[-1] > space[0]

    def test_unknown_split_lookup(self, latency_sweep):
        with pytest.raises(KeyError):
            latency_sweep.by_split(0.33)


class TestSplitLabels:
    def test_paper_wording(self):
        assert split_label(1.0) == "All users in location 0"
        assert split_label(0.0) == "All users in location 9"
        assert split_label(0.5) == "All users equally distributed in 0 and 9"
        assert split_label(0.75) == "75% users in location 0"


class TestDRCostSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_dr_cost_sweep(
            dr_costs=(1.0, 10_000.0),
            backend="highs",
            n_groups=30,
            total_servers=160,
            solve_options=SolveOptions(mip_rel_gap=0.02, time_limit=30),
        )

    def test_datacenters_grow_with_zeta(self, sweep):
        dcs = sweep.datacenters_used()
        assert dcs[-1] > dcs[0]

    def test_dr_servers_shrink_with_zeta(self, sweep):
        servers = sweep.dr_servers()
        assert servers[-1] < servers[0]

    def test_cheap_backups_full_mirror(self, sweep):
        # At ζ≈0 everything concentrates and the pool mirrors the estate.
        assert sweep.dr_servers()[0] == 160

    def test_accessors_aligned(self, sweep):
        assert len(sweep.dr_costs()) == len(sweep.datacenters_used()) == 2


class TestTradeoff:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tradeoff(n_groups=100)

    def test_interior_minimum(self, result):
        assert 0 < result.minimum_index < len(result.locations) - 1

    def test_severalfold_spread(self, result):
        assert result.spread > 4.0

    def test_wan_falls_space_rises(self, result):
        wans = [loc.wan_cost for loc in result.locations]
        spaces = [loc.space_cost for loc in result.locations]
        assert wans == sorted(wans, reverse=True)
        assert spaces == sorted(spaces)

    def test_cheapest_and_costliest(self, result):
        totals = result.totals()
        assert result.cheapest.total_cost == min(totals)
        assert result.costliest.total_cost == max(totals)


class TestPlacementGrowth:
    @pytest.fixture(scope="class")
    def result(self):
        return run_placement_growth(
            group_counts=(100, 300, 500),
            backend="highs",
            solve_options=SolveOptions(mip_rel_gap=1e-4),
        )

    def test_staircase_monotone(self, result):
        assert result.datacenters_used() == sorted(result.datacenters_used())

    def test_first_fill_is_cheapest_location(self, result):
        assert result.first_use_order()[0] == result.cost_order[0]

    def test_fill_respects_capacity(self, result):
        for point in result.points:
            assert all(count <= 100 for count in point.fill.values())
            assert sum(point.fill.values()) == point.n_groups

    def test_used_sites_are_cost_prefix(self, result):
        # The sites used at any sweep point are exactly the cheapest k
        # locations by bundle cost — the paper's Fig. 10 claim.
        for point in result.points:
            k = point.datacenters_used
            assert set(point.fill) == set(result.cost_order[:k])


def test_mean_user_latency_empty_users():
    from repro.datasets import tradeoff_line_scenario
    from repro.core import evaluate_plan

    state = tradeoff_line_scenario(n_groups=3)
    for g in state.app_groups:
        g.users = {}
    placement = {g.name: "location0" for g in state.app_groups}
    plan = evaluate_plan(state, placement)
    assert mean_user_latency(state, plan) == 0.0


class TestSweepProcessFanout:
    """jobs=2 must produce the same points as the serial path."""

    def test_latency_sweep_parallel_matches_serial(self, latency_sweep):
        parallel = run_latency_sweep(
            penalties=(0.0, 40.0, 120.0),
            user_splits=(1.0, 0.0),
            backend="highs",
            n_groups=40,
            total_servers=220,
            solve_options=SolveOptions(mip_rel_gap=0.005, time_limit=30),
            jobs=2,
        )
        for serial_s, parallel_s in zip(latency_sweep.series, parallel.series):
            assert serial_s.name == parallel_s.name
            assert serial_s.xs() == parallel_s.xs()
            for a, b in zip(serial_s.ys("total_cost"), parallel_s.ys("total_cost")):
                assert a == pytest.approx(b, rel=1e-6)
