"""A tour of the bundled optimization engine (`repro.lp`).

Run:  python examples/lp_engine_tour.py

The planner's substrate is a self-contained modeling-plus-solver stack.
This example builds a small facility-location MILP by hand and walks it
through everything the engine offers: the backends, the array presolve,
cover cuts, and the LP/MPS interchange formats (write, re-parse,
re-solve).
"""

import tempfile

from repro.lp import (
    Problem,
    SolveOptions,
    parse_lp_string,
    quicksum,
    solve,
    write_lp_string,
    write_mps_string,
)


def build_model() -> Problem:
    """Mini facility location: 5 clients, 3 facilities, open+assign."""
    clients = range(5)
    facilities = range(3)
    open_cost = [120.0, 80.0, 100.0]
    assign_cost = [
        [10, 14, 20],
        [12, 9, 25],
        [25, 17, 8],
        [21, 13, 9],
        [9, 20, 24],
    ]

    p = Problem("facility")
    opened = [p.add_binary(f"open{j}") for j in facilities]
    assign = {
        (i, j): p.add_binary(f"assign{i}_{j}") for i in clients for j in facilities
    }
    for i in clients:
        p.add_constraint(
            quicksum(assign[(i, j)] for j in facilities) == 1, f"serve{i}"
        )
    for i in clients:
        for j in facilities:
            p.add_constraint(assign[(i, j)] <= opened[j], f"link{i}_{j}")
    p.set_objective(
        quicksum(open_cost[j] * opened[j] for j in facilities)
        + quicksum(
            assign_cost[i][j] * assign[(i, j)] for i in clients for j in facilities
        )
    )
    return p


def main() -> None:
    model = build_model()
    print(f"model: {model}\n")

    print("backends:")
    for backend in ("highs", "branch_bound", "rounding"):
        sol = solve(model, backend=backend)
        print(f"  {backend:<14} {sol.status.value:<10} obj={sol.objective:.1f}")
    cut = solve(model, backend="branch_bound", options=SolveOptions(cover_cut_rounds=3))
    print(f"  {'bb+cuts':<14} {cut.status.value:<10} obj={cut.objective:.1f} "
          f"({cut.iterations} nodes)")

    # branch_bound presolves the root arrays once per tree (on by default).
    stats = solve(
        model, backend="branch_bound", options=SolveOptions(relaxation_engine="builtin")
    ).stats
    print(f"  array presolve: {stats.presolve_fixed_variables} vars fixed, "
          f"{stats.presolve_dropped_constraints} rows dropped, "
          f"{stats.presolve_tightened_bounds} bounds tightened\n")

    lp_text = write_lp_string(model)
    print("LP format (head):")
    print("\n".join(lp_text.splitlines()[:6]))
    reparsed = parse_lp_string(lp_text)
    round_trip = solve(reparsed, backend="highs")
    print(f"\nre-parsed model solves to obj={round_trip.objective:.1f} "
          "(identical by construction)\n")

    mps_text, name_map = write_mps_string(model)
    with tempfile.NamedTemporaryFile("w", suffix=".mps", delete=False) as handle:
        handle.write(mps_text)
        print(f"MPS written to {handle.name} "
              f"({len(name_map)} variables, fixed-format names)")


if __name__ == "__main__":
    main()
