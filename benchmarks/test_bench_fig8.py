"""Fig. 8: influence of the DR server cost ζ.

Sweeps ζ over the paper's decades (10⁰ … 10⁴) while jointly planning
consolidation + DR on the line scenario, and checks the two curves:

* data centers used grows (2 sites when backups are nearly free →
  most of the line when they are precious);
* total DR servers purchased falls severalfold (full mirror → one
  small shared pool sized to the worst single failure).
"""

from __future__ import annotations

from repro import SolveOptions
from repro.experiments import run_dr_cost_sweep, tables
from repro.experiments.dr_cost_sweep import DEFAULT_DR_COSTS

from .conftest import run_once


def test_bench_fig8_dr_cost_sweep(benchmark, archive):
    def run():
        return run_dr_cost_sweep(
            dr_costs=DEFAULT_DR_COSTS,
            backend="highs",
            solve_options=SolveOptions(mip_rel_gap=0.02, time_limit=60),
        )

    result = run_once(benchmark, run)

    dcs = result.datacenters_used()
    servers = result.dr_servers()

    # Cheap backups: concentrate into two sites and mirror in full.
    assert dcs[0] == 2
    assert servers[0] == 450  # the whole estate, mirrored

    # Expensive backups: spread out, pool shrinks severalfold.
    assert dcs[-1] >= 6
    assert servers[-1] * 2 < servers[0]

    # Monotone trends across the sweep (gap/time-limit noise tolerated
    # up to one step back).
    assert dcs[-1] > dcs[0]
    assert servers[-1] < servers[0]

    text = tables.render_dr_sweep(result)
    archive("fig8_dr_cost_sweep", text)
    print()
    print(text)
