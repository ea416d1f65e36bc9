"""Bonus dataset presets (UK government, HP)."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions, SolveOptions
from repro.core import validate_state
from repro.datasets.presets import (
    hp_spec,
    load_hp,
    load_uk_government,
    uk_government_spec,
)


class TestUKGovernment:
    def test_published_site_counts(self):
        spec = uk_government_spec()
        assert spec.current_datacenters == 120
        assert spec.target_datacenters == 10

    def test_density_extrapolation(self):
        spec = uk_government_spec()
        assert spec.total_servers == round(120 * 1070 / 67)
        assert spec.app_groups == round(120 * 190 / 67)

    def test_builds_and_validates(self):
        state = load_uk_government(scale=0.2)
        validate_state(state, require_dr_headroom=True)

    def test_consolidation_saves(self):
        from repro.baselines import asis_plan

        state = load_uk_government(scale=0.2)
        asis = asis_plan(state)
        plan = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs", solve_options=SolveOptions(mip_rel_gap=0.01)
            ),
        ).plan
        assert plan.total_cost < asis.total_cost
        # The whole point: far fewer sites than the 24 as-is ones.
        assert len(plan.datacenters_used) <= 5


class TestHP:
    def test_published_site_counts(self):
        spec = hp_spec()
        assert spec.current_datacenters == 85
        assert spec.target_datacenters == 8

    def test_deterministic(self):
        a = load_hp(scale=0.2)
        b = load_hp(scale=0.2)
        assert [g.servers for g in a.app_groups] == [g.servers for g in b.app_groups]

    def test_distinct_from_uk(self):
        hp = load_hp(scale=0.2)
        uk = load_uk_government(scale=0.2)
        assert hp.summary() != uk.summary()
