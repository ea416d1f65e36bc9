"""Case study: compare consolidation strategies on a real-shaped estate.

Run:  python examples/enterprise_consolidation.py [dataset] [scale]

Reproduces one panel of the paper's Fig. 4 on demand: evaluates the
as-is estate, the manual rule-of-thumb consolidation, the greedy
heuristic and eTransform's LP plan, then prints the cost/penalty bars
and the violation counts side by side.
"""

import sys

from repro import SolveOptions
from repro.experiments import run_comparison, tables
from repro.experiments.comparison import CASE_STUDY_LOADERS


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "enterprise1"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    loader = CASE_STUDY_LOADERS[dataset]

    state = loader(scale=scale)
    print(f"Dataset: {dataset} {state.summary()}\n")

    result = run_comparison(
        state,
        backend="auto",
        solve_options=SolveOptions(mip_rel_gap=0.005, time_limit=120),
    )
    print(tables.render_comparison(result))
    print()
    for algorithm in ("manual", "greedy", "etransform"):
        print(
            f"{algorithm:>11}: {result.reduction(algorithm):+.0%} vs as-is, "
            f"{result.violations(algorithm)} latency violations, "
            f"solved in {result._by_name(algorithm).runtime_seconds:.1f}s"
        )


if __name__ == "__main__":
    main()
