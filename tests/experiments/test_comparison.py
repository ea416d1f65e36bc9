"""Fig. 4 / Fig. 6 comparison harness — run at reduced scale.

These tests assert the *shape* the paper reports: eTransform reduces the
most, eTransform has (near-)zero latency violations, manual violates the
most, and the violation ordering manual ≥ greedy ≥ eTransform holds.
"""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.datasets import load_enterprise1
from repro.experiments import run_case_studies, run_comparison

SOLVER_OPTIONS = SolveOptions(mip_rel_gap=0.01, time_limit=60)


@pytest.fixture(scope="module")
def nondr():
    state = load_enterprise1(scale=0.4)
    return run_comparison(state, backend="highs", solve_options=SOLVER_OPTIONS)


@pytest.fixture(scope="module")
def dr():
    state = load_enterprise1(scale=0.2)
    return run_comparison(
        state, enable_dr=True, backend="highs", solve_options=SOLVER_OPTIONS
    )


class TestNonDRShape:
    def test_etransform_reduces_most(self, nondr):
        tol = 1e-6
        assert nondr.etransform.total_cost <= nondr.greedy.total_cost + tol
        assert nondr.etransform.total_cost <= nondr.manual.total_cost + tol

    def test_etransform_reduction_substantial(self, nondr):
        assert nondr.reduction("etransform") < -0.30

    def test_violation_ordering(self, nondr):
        assert nondr.violations("manual") >= nondr.violations("greedy")
        assert nondr.violations("greedy") >= nondr.violations("etransform")

    def test_etransform_nearly_violation_free(self, nondr):
        assert nondr.violations("etransform") <= 2

    def test_manual_pays_latency(self, nondr):
        assert nondr.manual.latency_penalty > 0

    def test_all_algorithms_cover_all_groups(self, nondr):
        n = len(nondr.asis.plan.placement)
        for result in nondr.algorithms:
            assert len(result.plan.placement) == n

    def test_runtimes_recorded(self, nondr):
        assert nondr.etransform.runtime_seconds > 0

    def test_reduction_lookup_unknown(self, nondr):
        with pytest.raises(KeyError):
            nondr.reduction("cplex")


class TestDRShape:
    def test_etransform_beats_asis_dr(self, dr):
        assert dr.reduction("etransform") < 0

    def test_etransform_beats_heuristics(self, dr):
        assert dr.etransform.total_cost <= dr.greedy.total_cost + 1e-6
        assert dr.etransform.total_cost <= dr.manual.total_cost + 1e-6

    def test_every_plan_has_dr(self, dr):
        for result in dr.algorithms:
            assert result.plan.has_dr
        assert dr.asis.plan.has_dr

    def test_dr_purchase_positive(self, dr):
        for result in [dr.asis, *dr.algorithms]:
            assert result.dr_purchase > 0

    def test_violations_still_ordered(self, dr):
        assert dr.violations("manual") >= dr.violations("etransform")


class TestSuiteRunner:
    def test_run_case_studies_subset(self):
        suite = run_case_studies(
            datasets=("enterprise1",),
            scales={"enterprise1": 0.15},
            backend="highs",
            solve_options=SOLVER_OPTIONS,
        )
        assert len(suite.results) == 1
        assert suite.result("enterprise1").dataset == "enterprise1"
        with pytest.raises(KeyError):
            suite.result("florida")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            run_case_studies(datasets=("narnia",))
