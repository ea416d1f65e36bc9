"""Fig. 6 (a–e): joint consolidation + DR comparison.

Paper claims checked per dataset:

* eTransform's joint plan beats bolting a single backup site onto the
  as-is estate (the AS-IS+DR bar) — the ">25 % cheaper" headline;
* the manual and greedy DR variants cost more than eTransform (and on
  the bigger estates more than AS-IS+DR itself);
* eTransform keeps its latency violations (near-)zero under DR.

The joint DR MILP carries M·N² linking variables, so these benchmarks
run the case studies at reduced generator scale (all distributions
preserved): enterprise1 at 0.25, florida at 0.35, federal at 0.04.
EXPERIMENTS.md records a full-scale enterprise1 DR measurement.
"""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.datasets import load_enterprise1, load_federal, load_florida
from repro.experiments import run_comparison, tables
from repro.experiments.comparison import CaseStudySuite

from .conftest import run_once

SOLVER_OPTIONS = SolveOptions(mip_rel_gap=0.02, time_limit=120)

_CASES = {
    "enterprise1": lambda: load_enterprise1(scale=0.25),
    "florida": lambda: load_florida(scale=0.35),
    "federal": lambda: load_federal(scale=0.04),
}

_SUITE = CaseStudySuite(enable_dr=True)


def _assert_fig6_shape(result):
    tol = 1e-6
    # eTransform cheapest of the three algorithms, and cheaper than
    # adding DR to the as-is state.
    assert result.etransform.total_cost <= result.greedy.total_cost + tol
    assert result.etransform.total_cost <= result.manual.total_cost + tol
    assert result.reduction("etransform") < 0
    assert result.violations("etransform") <= 2
    assert result.violations("manual") >= result.violations("etransform")
    # Every algorithm produced a genuine DR plan.
    for algo in result.algorithms:
        assert algo.plan.has_dr
        assert algo.dr_purchase > 0


@pytest.mark.parametrize("dataset", list(_CASES))
def test_bench_fig6_dr_comparison(benchmark, archive, dataset):
    state = _CASES[dataset]()

    def run():
        return run_comparison(
            state, enable_dr=True, backend="highs", solve_options=SOLVER_OPTIONS
        )

    result = run_once(benchmark, run)
    _assert_fig6_shape(result)
    archive(f"fig6_{dataset}", tables.render_comparison(result))
    _SUITE.results.append(result)


def test_bench_fig6_summary_tables(benchmark, archive):
    """Fig. 6(d)/(e)."""
    assert len(_SUITE.results) == 3, "run the full benchmark module"
    reduction = benchmark(tables.render_reduction_table, _SUITE)
    violations = tables.render_violation_table(_SUITE)
    archive("fig6d_reductions", reduction)
    archive("fig6e_violations", violations)
    print()
    print(reduction)
    print(violations)
