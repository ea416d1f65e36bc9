"""Fig. 7 (a, b, c): influence of the latency penalty.

Sweeps the per-band penalty over the paper's five user splits on the
10-site line and checks each panel's claim:

(a) total cost rises with the penalty unless users are fully
    concentrated at the cheap end;
(b) space cost rises with the penalty when users sit at the costly end
    (placements migrate toward location 9);
(c) user-weighted mean latency falls as the penalty grows.
"""

from __future__ import annotations

from repro import SolveOptions
from repro.experiments import run_latency_sweep, tables

from .conftest import run_once

PENALTIES = (0.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
SPLITS = (1.0, 0.75, 0.5, 0.25, 0.0)


def test_bench_fig7_latency_sweep(benchmark, archive):
    def run():
        return run_latency_sweep(
            penalties=PENALTIES,
            user_splits=SPLITS,
            backend="highs",
            solve_options=SolveOptions(mip_rel_gap=0.003, time_limit=30),
        )

    result = run_once(benchmark, run)

    # (a) cost monotone-ish up for non-concentrated splits, flat at 1.0.
    west_all = result.by_split(1.0).ys("total_cost")
    assert west_all[-1] <= west_all[0] * 1.02
    for split in (0.5, 0.0):
        costs = result.by_split(split).ys("total_cost")
        assert costs[-1] > costs[0]

    # (b) space cost rises with penalty when users are at location 9.
    space = result.by_split(0.0).ys("space_cost")
    assert space[-1] > space[0]

    # (c) mean latency non-increasing overall for the movable split, and
    # strictly better at the top of the sweep.
    lats = result.by_split(0.0).ys("mean_latency_ms")
    assert lats[-1] < lats[0]
    assert min(lats) == lats[-1] or lats[-1] <= min(lats) * 1.05

    # Concentrated-west users never pay and never move.
    west_lats = result.by_split(1.0).ys("mean_latency_ms")
    assert max(west_lats) - min(west_lats) < 1e-6

    for key, name in (
        ("total_cost", "fig7a_total_cost"),
        ("space_cost", "fig7b_space_cost"),
        ("mean_latency_ms", "fig7c_mean_latency"),
    ):
        text = tables.render_latency_sweep(result, key)
        archive(name, text)
        print()
        print(text)
