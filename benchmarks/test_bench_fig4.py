"""Fig. 4 (a–e): non-DR consolidation comparison on the case studies.

Each benchmark runs the full four-way comparison (as-is, manual, greedy,
eTransform) on one dataset and checks the paper's qualitative claims:

* eTransform achieves the deepest cost reduction and (near-)zero
  latency violations;
* the manual heuristic's savings are eaten by latency penalties;
* violations order manual ≥ greedy ≥ eTransform.

enterprise1 and florida run at full Table II scale.  federal runs at
0.2 scale (380 groups × 20 sites) so the benchmark stays in CI budget —
see EXPERIMENTS.md for a full-scale federal measurement.
"""

from __future__ import annotations

import pytest

from repro import SolveOptions
from repro.datasets import load_enterprise1, load_federal, load_florida
from repro.experiments import run_comparison, tables
from repro.experiments.comparison import CaseStudySuite

from .conftest import run_once

SOLVER_OPTIONS = SolveOptions(mip_rel_gap=0.005, time_limit=180)

_CASES = {
    "enterprise1": lambda: load_enterprise1(),
    "florida": lambda: load_florida(),
    "federal": lambda: load_federal(scale=0.2),
}

_SUITE = CaseStudySuite(enable_dr=False)


def _assert_fig4_shape(result):
    tol = 1e-6
    assert result.etransform.total_cost <= result.greedy.total_cost + tol
    assert result.etransform.total_cost <= result.manual.total_cost + tol
    assert result.reduction("etransform") < -0.30
    assert result.violations("etransform") <= 2
    assert result.violations("manual") >= result.violations("greedy")
    assert result.violations("greedy") >= result.violations("etransform")
    assert result.manual.latency_penalty > 0


@pytest.mark.parametrize("dataset", list(_CASES))
def test_bench_fig4_comparison(benchmark, archive, dataset):
    state = _CASES[dataset]()

    def run():
        return run_comparison(
            state, backend="highs", solve_options=SOLVER_OPTIONS
        )

    result = run_once(benchmark, run)
    _assert_fig4_shape(result)
    archive(f"fig4_{dataset}", tables.render_comparison(result))
    _SUITE.results.append(result)


def test_bench_fig4_summary_tables(benchmark, archive):
    """Fig. 4(d)/(e): rendered after all three panels have run."""
    assert len(_SUITE.results) == 3, "run the full benchmark module"
    reduction = benchmark(tables.render_reduction_table, _SUITE)
    violations = tables.render_violation_table(_SUITE)
    archive("fig4d_reductions", reduction)
    archive("fig4e_violations", violations)
    print()
    print(reduction)
    print(violations)
