"""Figs. 4 and 6: four-way comparison on the three case studies.

For a dataset, runs AS-IS (or AS-IS+DR), MANUAL, GREEDY and eTRANSFORM
and reports total cost, the cost/penalty split, percentage reductions
(Fig. 4(d)/6(d)) and latency-violation counts (Fig. 4(e)/6(e)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baselines import asis_plan, asis_with_dr_plan, manual_plan, run_greedy
from ..core.entities import AsIsState
from ..core.planner import PlannerOptions, ETransformPlanner
from ..datasets import load_enterprise1, load_federal, load_florida
from ..lp import SolveOptions
from .harness import AlgorithmResult, timed_plan

#: Dataset-name → loader, in the paper's order.
CASE_STUDY_LOADERS = {
    "enterprise1": load_enterprise1,
    "florida": load_florida,
    "federal": load_federal,
}


@dataclass
class ComparisonResult:
    """All four bars of one Fig. 4 / Fig. 6 panel."""

    dataset: str
    enable_dr: bool
    asis: AlgorithmResult
    manual: AlgorithmResult
    greedy: AlgorithmResult
    etransform: AlgorithmResult

    @property
    def algorithms(self) -> list[AlgorithmResult]:
        return [self.manual, self.greedy, self.etransform]

    def reduction(self, algorithm: str) -> float:
        """Signed fractional cost change vs as-is (−0.43 = 43 % cheaper)."""
        result = self._by_name(algorithm)
        return (result.total_cost - self.asis.total_cost) / self.asis.total_cost

    def violations(self, algorithm: str) -> int:
        return self._by_name(algorithm).latency_violations

    def _by_name(self, algorithm: str) -> AlgorithmResult:
        for result in [self.asis, self.manual, self.greedy, self.etransform]:
            if result.algorithm == algorithm:
                return result
        raise KeyError(f"no algorithm named {algorithm!r}")


def run_comparison(
    state: AsIsState,
    enable_dr: bool = False,
    backend: str = "auto",
    wan_model: str = "metered",
    manual_k: int = 2,
    solve_options: SolveOptions | None = None,
) -> ComparisonResult:
    """Run the full four-way comparison on one as-is state."""
    if enable_dr:
        asis = timed_plan("as-is", lambda: asis_with_dr_plan(state, wan_model=wan_model))
    else:
        asis = timed_plan("as-is", lambda: asis_plan(state, wan_model=wan_model))

    manual = timed_plan(
        "manual",
        lambda: manual_plan(state, k=manual_k, enable_dr=enable_dr, wan_model=wan_model),
    )
    greedy = timed_plan(
        "greedy", lambda: run_greedy(state, enable_dr=enable_dr, wan_model=wan_model)
    )

    options = PlannerOptions(
        wan_model=wan_model,
        enable_dr=enable_dr,
        backend=backend,
        solve_options=solve_options or SolveOptions(),
    )
    etransform = timed_plan(
        "etransform", lambda: ETransformPlanner(state, options).build_plan()
    )

    return ComparisonResult(
        dataset=state.name,
        enable_dr=enable_dr,
        asis=asis,
        manual=manual,
        greedy=greedy,
        etransform=etransform,
    )


@dataclass
class CaseStudySuite:
    """Fig. 4 or Fig. 6 in full: one comparison per dataset."""

    enable_dr: bool
    results: list[ComparisonResult] = field(default_factory=list)

    def result(self, dataset: str) -> ComparisonResult:
        for r in self.results:
            if r.dataset == dataset:
                return r
        raise KeyError(f"no result for dataset {dataset!r}")


def run_case_studies(
    enable_dr: bool = False,
    datasets: tuple[str, ...] = ("enterprise1", "florida", "federal"),
    scales: dict[str, float] | None = None,
    backend: str = "auto",
    solve_options: SolveOptions | None = None,
) -> CaseStudySuite:
    """Run Fig. 4 (or, with ``enable_dr``, Fig. 6) across the case studies.

    ``scales`` maps dataset name → generator scale; the benchmarks pass
    reduced scales for the joint-DR federal model (see EXPERIMENTS.md).
    """
    scales = scales or {}
    suite = CaseStudySuite(enable_dr=enable_dr)
    for name in datasets:
        try:
            loader = CASE_STUDY_LOADERS[name]
        except KeyError:
            raise ValueError(
                f"unknown dataset {name!r}; choose from {sorted(CASE_STUDY_LOADERS)}"
            ) from None
        state = loader(scale=scales.get(name, 1.0))
        suite.results.append(
            run_comparison(
                state,
                enable_dr=enable_dr,
                backend=backend,
                solve_options=solve_options,
            )
        )
    return suite
