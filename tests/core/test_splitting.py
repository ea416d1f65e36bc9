"""Oversized-group splitting (paper's reference-[3] pre-processing)."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions
from repro.core import ApplicationGroup, AsIsState
from repro.core.splitting import (
    SplitResult,
    merge_placement,
    split_oversized_groups,
    _fragment_sizes,
)

from ..conftest import PENALTY, make_datacenter


@pytest.fixture
def oversized_state(user_locations):
    targets = [
        make_datacenter("d0", capacity=150),
        make_datacenter("d1", capacity=140),
    ]
    groups = [
        ApplicationGroup("whale", 250, 10_000.0, {"east": 100.0}, PENALTY),
        ApplicationGroup("minnow", 10, 500.0, {"west": 5.0}),
    ]
    return AsIsState("over", groups, targets, user_locations=user_locations)


class TestFragmentSizes:
    def test_near_equal(self):
        assert _fragment_sizes(250, 100) == [84, 83, 83]

    def test_exact_fit_not_split(self):
        assert _fragment_sizes(100, 100) == [100]

    def test_sum_preserved(self):
        for servers, cap in [(7, 3), (1000, 99), (5, 5)]:
            sizes = _fragment_sizes(servers, cap)
            assert sum(sizes) == servers
            assert max(sizes) <= cap


class TestSplitOversized:
    def test_whale_split_minnow_kept(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        names = [g.name for g in result.state.app_groups]
        assert "minnow" in names
        assert "whale" not in names
        assert result.fragments_of("whale") == ["whale/0", "whale/1"]
        assert result.any_split

    def test_servers_conserved(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        assert result.state.total_servers == oversized_state.total_servers

    def test_users_distributed_by_share(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        fragments = [g for g in result.state.app_groups if g.name.startswith("whale/")]
        assert sum(g.total_users for g in fragments) == pytest.approx(100.0)

    def test_wan_overhead_applied(self, oversized_state):
        result = split_oversized_groups(oversized_state, wan_overhead_fraction=0.5)
        fragments = [g for g in result.state.app_groups if g.name.startswith("whale/")]
        total_data = sum(g.monthly_data_mb for g in fragments)
        # 2 fragments → 1 extra cut → ×(1 + 0.5×1) = ×1.5
        assert total_data == pytest.approx(10_000.0 * 1.5)

    def test_zero_overhead(self, oversized_state):
        result = split_oversized_groups(oversized_state, wan_overhead_fraction=0.0)
        fragments = [g for g in result.state.app_groups if g.name.startswith("whale/")]
        assert sum(g.monthly_data_mb for g in fragments) == pytest.approx(10_000.0)

    def test_negative_overhead_rejected(self, oversized_state):
        with pytest.raises(ValueError):
            split_oversized_groups(oversized_state, wan_overhead_fraction=-0.1)

    def test_no_split_needed_returns_same_state(self, tiny_state):
        result = split_oversized_groups(tiny_state)
        assert not result.any_split
        assert result.state is tiny_state

    def test_region_blocked_group_not_split(self, user_locations):
        # The group fits nowhere because of region rules, not size:
        # splitting would not help and must not be attempted.
        targets = [make_datacenter("d0", capacity=100)]
        groups = [
            ApplicationGroup("g", 10, users={"east": 1.0},
                             allowed_regions=frozenset({"eu"})),
        ]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        result = split_oversized_groups(state)
        assert not result.any_split

    def test_risk_isolation_tags_fragments(self, oversized_state):
        result = split_oversized_groups(oversized_state, risk_isolate_fragments=True)
        fragments = [g for g in result.state.app_groups if g.name.startswith("whale/")]
        assert {g.risk_group for g in fragments} == {"split:whale"}

    def test_fragments_of_unknown(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        with pytest.raises(KeyError):
            result.fragments_of("minnow")


class TestEndToEnd:
    def test_split_state_is_plannable(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        plan = repro.solve(
            result.state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert set(plan.placement) == {g.name for g in result.state.app_groups}

    def test_merge_placement(self, oversized_state):
        result = split_oversized_groups(oversized_state)
        plan = repro.solve(
            result.state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        merged = merge_placement(result, plan.placement)
        assert set(merged) == {"whale", "minnow"}
        assert 1 <= len(merged["whale"]) <= 2
        assert len(merged["minnow"]) == 1

    def test_risk_isolated_fragments_spread(self, user_locations):
        targets = [make_datacenter(f"d{i}", capacity=100) for i in range(3)]
        groups = [ApplicationGroup("whale", 250, 1000.0, {"east": 10.0})]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        result = split_oversized_groups(state, risk_isolate_fragments=True)
        plan = repro.solve(
            result.state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        sites = [plan.placement[f] for f in result.fragments_of("whale")]
        assert len(set(sites)) == len(sites)  # pairwise distinct


def test_merge_placement_without_splits(tiny_state):
    result = SplitResult(state=tiny_state)
    merged = merge_placement(result, {"erp": "mid"})
    assert merged == {"erp": ["mid"]}


class TestPeerRewriting:
    def test_peers_pointing_at_split_group_are_redistributed(self, user_locations):
        targets = [make_datacenter(f"d{i}", capacity=150) for i in range(3)]
        groups = [
            ApplicationGroup("whale", 250, 1000.0, {"east": 10.0}),
            ApplicationGroup("client", 5, 100.0, {"east": 1.0},
                             peers={"whale": 1000.0}),
        ]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        result = split_oversized_groups(state)
        client = result.state.app_groups[-1]
        assert client.name == "client"
        assert "whale" not in client.peers
        assert sum(client.peers.values()) == pytest.approx(1000.0)
        assert set(client.peers) == set(result.fragments_of("whale"))

    def test_split_groups_outgoing_peers_scaled(self, user_locations):
        targets = [make_datacenter(f"d{i}", capacity=150) for i in range(3)]
        groups = [
            ApplicationGroup("whale", 250, 1000.0, {"east": 10.0},
                             peers={"client": 600.0}),
            ApplicationGroup("client", 5, 100.0, {"east": 1.0}),
        ]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        result = split_oversized_groups(state)
        fragments = [g for g in result.state.app_groups if g.name.startswith("whale/")]
        assert sum(f.peers["client"] for f in fragments) == pytest.approx(600.0)

    def test_split_state_with_peers_validates(self, user_locations):
        from repro.core import validate_state

        targets = [make_datacenter(f"d{i}", capacity=150) for i in range(3)]
        groups = [
            ApplicationGroup("whale", 250, 1000.0, {"east": 10.0}),
            ApplicationGroup("client", 5, 100.0, {"east": 1.0},
                             peers={"whale": 1000.0}),
        ]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        result = split_oversized_groups(state)
        validate_state(result.state)


class TestFragmentProperties:
    """Conservation laws of splitting, over random shapes."""

    def test_conservation_over_random_sizes(self, user_locations):
        from hypothesis import given, settings, strategies as st

        @given(
            servers=st.integers(min_value=151, max_value=2000),
            cap=st.integers(min_value=150, max_value=400),
            data=st.floats(min_value=0, max_value=1e6),
        )
        @settings(max_examples=40, deadline=None)
        def check(servers, cap, data):
            targets = [make_datacenter("d0", capacity=cap)]
            groups = [ApplicationGroup("g", servers, data, {"east": 100.0})]
            state = AsIsState("s", groups, targets,
                              user_locations=user_locations)
            result = split_oversized_groups(state, wan_overhead_fraction=0.0)
            if servers <= cap:
                assert not result.any_split
                return
            fragments = result.state.app_groups
            assert sum(f.servers for f in fragments) == servers
            assert max(f.servers for f in fragments) <= cap
            assert sum(f.total_users for f in fragments) == pytest.approx(100.0)
            assert sum(f.monthly_data_mb for f in fragments) == pytest.approx(data)

        check()
