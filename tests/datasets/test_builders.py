"""Case-study dataset builders: Table II statistics and invariants."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions
from repro.core import validate_state
from repro.datasets import (
    ENTERPRISE1_USERS,
    EnterpriseSpec,
    build_enterprise_state,
    enterprise1_spec,
    federal_spec,
    florida_spec,
    load_enterprise1,
    load_federal,
    load_florida,
)


class TestTableII:
    """The generated datasets must match the paper's Table II sizes."""

    def test_enterprise1_sizes(self):
        state = load_enterprise1()
        s = state.summary()
        assert s["app_groups"] == 190
        assert s["servers"] == 1070
        assert s["current_datacenters"] == 67
        assert s["target_datacenters"] == 10
        assert s["user_locations"] == 4

    def test_florida_sizes(self):
        state = load_florida()
        s = state.summary()
        assert s["app_groups"] == 190
        assert s["servers"] == 3907
        assert s["current_datacenters"] == 43
        assert s["target_datacenters"] == 10

    def test_federal_spec_sizes(self):
        # Build at reduced scale; check the full-scale spec fields.
        spec = federal_spec()
        assert spec.app_groups == 1900
        assert spec.total_servers == 42800
        assert spec.current_datacenters == 2094
        assert spec.target_datacenters == 100

    def test_enterprise1_user_population_matches_fig2(self):
        state = load_enterprise1()
        total = sum(g.total_users for g in state.app_groups)
        assert total == pytest.approx(ENTERPRISE1_USERS, rel=1e-6)


class TestStructure:
    def test_deterministic_per_seed(self):
        a = load_enterprise1(seed=5)
        b = load_enterprise1(seed=5)
        assert [g.servers for g in a.app_groups] == [g.servers for g in b.app_groups]
        assert [d.capacity for d in a.target_datacenters] == [
            d.capacity for d in b.target_datacenters
        ]

    def test_different_seeds_differ(self):
        a = load_enterprise1(seed=1)
        b = load_enterprise1(seed=2)
        assert [g.servers for g in a.app_groups] != [g.servers for g in b.app_groups]

    def test_half_latency_sensitive(self):
        state = load_enterprise1()
        sensitive = sum(1 for g in state.app_groups if g.is_latency_sensitive)
        assert sensitive == 95

    def test_validates_cleanly(self):
        validate_state(load_enterprise1(), require_dr_headroom=True)

    def test_every_group_has_current_site(self):
        state = load_enterprise1()
        names = {dc.name for dc in state.current_datacenters}
        assert all(g.current_datacenter in names for g in state.app_groups)

    def test_asis_is_latency_clean(self):
        from repro.baselines import asis_plan

        plan = asis_plan(load_enterprise1())
        # Historic estates grew next to their users.
        assert plan.latency_violations == 0

    def test_capacity_headroom(self):
        state = load_enterprise1()
        assert state.total_target_capacity >= 1.8 * state.total_servers

    def test_target_capacities_in_paper_range_when_unscaled(self):
        # capacities start in [100, 1000] before any headroom re-scale
        spec = enterprise1_spec()
        state = build_enterprise_state(spec)
        assert all(dc.capacity >= 100 for dc in state.target_datacenters)

    def test_latency_classes_present(self):
        state = load_enterprise1()
        latency_sets = {tuple(sorted(dc.latency_to_users.values()))
                        for dc in state.target_datacenters}
        # Both the "close to one" (5/20/20/20) and "central" (10×4) class.
        assert (5.0, 20.0, 20.0, 20.0) in latency_sets
        assert (10.0, 10.0, 10.0, 10.0) in latency_sets


class TestScaling:
    def test_scaled_down_proportions(self):
        state = load_enterprise1(scale=0.1)
        s = state.summary()
        assert s["app_groups"] == 19
        assert s["servers"] == 107
        assert s["target_datacenters"] == 5  # floored to keep all latency classes

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            EnterpriseSpec("x", 10, 100, 2, 2, 100.0, scale=1.5).scaled()
        with pytest.raises(ValueError):
            EnterpriseSpec("x", 10, 100, 2, 2, 100.0, scale=0.0).scaled()

    def test_scale_one_is_identity(self):
        spec = enterprise1_spec()
        assert spec.scaled() is spec

    def test_scaled_state_still_plannable(self):
        state = load_enterprise1(scale=0.1)
        plan = repro.solve(
            state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert plan.total_cost > 0


class TestFloridaFederal:
    def test_florida_users_scaled_by_servers(self):
        spec = florida_spec()
        assert spec.total_users == pytest.approx(
            ENTERPRISE1_USERS * 3907 / 1070, rel=0.01
        )

    def test_federal_scaled_build(self):
        state = load_federal(scale=0.05)
        assert state.summary()["app_groups"] == 95
        validate_state(state)

    def test_florida_full_build(self):
        state = load_florida()
        validate_state(state)
