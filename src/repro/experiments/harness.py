"""Shared experiment plumbing: result records and timing.

Every experiment module returns plain dataclasses so benchmarks can both
assert the paper's qualitative shape and print the same rows/series the
paper reports (:mod:`repro.experiments.tables` renders them).
Process fan-out lives in :mod:`repro.parallel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.entities import AsIsState
from ..core.plan import TransformationPlan
from ..lp import SolveOptions
from ..telemetry import SolveStats


def fill_unset(options: SolveOptions | None, **defaults) -> SolveOptions:
    """``options`` (or the defaults) with each unset field of ``defaults`` filled.

    A field counts as unset while it is ``None``, so a caller's own
    ``time_limit`` or ``mip_rel_gap`` always wins over an experiment's.
    """
    options = options or SolveOptions()
    return options.replace(
        **{k: v for k, v in defaults.items() if getattr(options, k) is None}
    )


@dataclass
class AlgorithmResult:
    """One algorithm's outcome on one dataset (a bar in Fig. 4/6).

    ``solve_stats`` carries the optimizer's search statistics (B&B
    nodes, LP iterations, bound gap, presolve reductions) for the
    algorithms that ran a solver; heuristics leave it ``None``.
    """

    algorithm: str
    total_cost: float
    operational_cost: float
    latency_penalty: float
    dr_purchase: float
    latency_violations: int
    datacenters_used: int
    runtime_seconds: float
    plan: TransformationPlan | None = None
    solve_stats: SolveStats | None = None

    @classmethod
    def from_plan(
        cls, algorithm: str, plan: TransformationPlan, runtime_seconds: float
    ) -> "AlgorithmResult":
        return cls(
            algorithm=algorithm,
            total_cost=plan.breakdown.total,
            operational_cost=plan.breakdown.operational,
            latency_penalty=plan.breakdown.latency_penalty,
            dr_purchase=plan.breakdown.dr_purchase,
            latency_violations=plan.latency_violations,
            datacenters_used=len(plan.datacenters_used),
            runtime_seconds=runtime_seconds,
            plan=plan,
            solve_stats=plan.solver_stats,
        )


def timed_plan(
    algorithm: str, fn: Callable[[], TransformationPlan]
) -> AlgorithmResult:
    """Run a planning function under a wall-clock timer."""
    start = time.monotonic()
    plan = fn()
    elapsed = time.monotonic() - start
    return AlgorithmResult.from_plan(algorithm, plan, elapsed)


@dataclass
class SweepPoint:
    """One x-axis point of a parameter sweep."""

    parameter: float
    values: dict[str, float] = field(default_factory=dict)


@dataclass
class SweepSeries:
    """A named series over a swept parameter (one line in Fig. 7/8)."""

    name: str
    points: list[SweepPoint] = field(default_factory=list)

    def xs(self) -> list[float]:
        return [p.parameter for p in self.points]

    def ys(self, key: str) -> list[float]:
        return [p.values[key] for p in self.points]


def state_label(state: AsIsState) -> str:
    """Short dataset label for tables."""
    return state.name
