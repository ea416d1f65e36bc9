"""Presolve reductions on modelled problems.

The same reductions ``tests/lp/test_array_presolve.py`` checks on raw
arrays, here reached the way every solve reaches them: a
:class:`~repro.lp.Problem` goes through
:func:`~repro.lp.standard_form.to_matrix_form` into
:func:`~repro.lp.array_presolve.presolve_arrays`, and end to end through
``branch_bound``, whose relaxation context runs the presolve.
"""

from __future__ import annotations

import pytest

from repro.lp import Problem, SolveOptions, SolveStatus, solve
from repro.lp.array_presolve import presolve_arrays
from repro.lp.standard_form import to_matrix_form


def presolve(p: Problem):
    """Presolve ``p``; return the result and a name → column lookup."""
    form = to_matrix_form(p)
    res = presolve_arrays(
        form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub,
        integrality=form.integrality,
    )
    columns = {var.name: j for j, var in enumerate(form.variables)}
    return res, columns


def rows_kept(res) -> int:
    return int(res.keep_ub.sum() + res.keep_eq.sum())


class TestReductions:
    def test_empty_satisfied_constraint_dropped(self):
        p = Problem()
        x = p.add_variable("x", lb=1.0, ub=1.0)
        p.add_constraint(x <= 2, "loose")
        p.set_objective(x)
        res, _ = presolve(p)
        assert not res.infeasible
        assert rows_kept(res) == 0
        assert res.rows_dropped >= 1

    def test_empty_violated_constraint_infeasible(self):
        p = Problem()
        x = p.add_variable("x", lb=3.0, ub=3.0)
        p.add_constraint(x <= 2, "broken")
        p.set_objective(x)
        res, _ = presolve(p)
        assert res.infeasible

    def test_singleton_row_tightens_upper(self):
        p = Problem()
        x = p.add_variable("x", ub=100.0)
        p.add_constraint(2 * x <= 10, "single")
        p.set_objective(-x)
        res, col = presolve(p)
        assert rows_kept(res) == 0
        assert res.ub[col["x"]] == pytest.approx(5.0)

    def test_singleton_negative_coefficient_flips_sense(self):
        p = Problem()
        x = p.add_variable("x", ub=100.0)
        p.add_constraint(-x <= -3, "single")  # x >= 3
        p.set_objective(x)
        res, col = presolve(p)
        assert res.lb[col["x"]] == pytest.approx(3.0)

    def test_singleton_equality_fixes_and_cascades(self):
        p = Problem()
        x = p.add_variable("x", ub=10.0)
        y = p.add_variable("y", ub=10.0)
        p.add_constraint(2 * x == 4, "fix")
        p.add_constraint(x + y <= 5, "cap")
        p.set_objective(x + y)
        res, col = presolve(p)
        # 2x == 4 fixes x = 2; the next round carries the fixing through
        # x + y <= 5 onto y <= 3.
        assert not res.infeasible
        assert res.lb[col["x"]] == res.ub[col["x"]] == pytest.approx(2.0)
        assert res.ub[col["y"]] == pytest.approx(3.0)
        assert res.cols_fixed == 1

    def test_crossing_bounds_infeasible(self):
        p = Problem()
        x = p.add_variable("x", lb=0.0, ub=10.0)
        p.add_constraint(x <= 2, "hi")
        p.add_constraint(x >= 5, "lo")
        p.set_objective(x)
        res, _ = presolve(p)
        assert res.infeasible

    def test_integer_bound_gap_infeasible(self):
        p = Problem()
        x = p.add_integer("x", lb=0, ub=10)
        p.add_constraint(3 * x >= 7, "lo")   # x >= 2.33
        p.add_constraint(3 * x <= 8, "hi")   # x <= 2.67 → no integer
        p.set_objective(x)
        res, _ = presolve(p)
        assert res.infeasible

    def test_eq_singleton_outside_bounds_infeasible(self):
        # `x == 5` with `x <= 2` must not overwrite the bounds with 5.
        p = Problem()
        x = p.add_variable("x", lb=0.0, ub=2.0)
        p.add_constraint(x == 5, "pin")
        p.set_objective(x)
        res, _ = presolve(p)
        assert res.infeasible

    def test_eq_singleton_below_lower_bound_infeasible(self):
        p = Problem()
        x = p.add_variable("x", lb=3.0, ub=10.0)
        p.add_constraint(2 * x == 4, "pin")  # implies x == 2 < lb
        p.set_objective(x)
        res, _ = presolve(p)
        assert res.infeasible

    def test_eq_singleton_inside_bounds_still_fixes(self):
        p = Problem()
        x = p.add_variable("x", lb=0.0, ub=10.0)
        y = p.add_variable("y", ub=10.0)
        p.add_constraint(x == 5, "pin")
        p.add_constraint(x + y <= 8, "cap")
        p.set_objective(-(x + y))
        res, col = presolve(p)
        assert not res.infeasible
        assert res.lb[col["x"]] == res.ub[col["x"]] == pytest.approx(5.0)
        assert res.ub[col["y"]] == pytest.approx(3.0)

    def test_integer_bounds_snapped_to_hull(self):
        # Fractional implied bounds on an integer variable round to
        # ceil/floor, not survive as-is.
        p = Problem()
        x = p.add_integer("x", lb=0, ub=10)
        p.add_constraint(3 * x >= 4, "lo")   # x >= 1.33 → x >= 2
        p.add_constraint(3 * x <= 25, "hi")  # x <= 8.33 → x <= 8
        p.set_objective(x)
        res, col = presolve(p)
        assert res.lb[col["x"]] == pytest.approx(2.0)
        assert res.ub[col["x"]] == pytest.approx(8.0)

    def test_original_problem_untouched(self):
        p = Problem()
        x = p.add_variable("x", ub=100.0)
        p.add_constraint(x <= 10, "single")
        p.set_objective(x)
        presolve(p)
        assert x.ub == 100.0
        assert p.num_constraints == 1


def solve_presolved(p: Problem, engine: str = "builtin"):
    """Solve ``p`` on ``branch_bound``, whose context runs the presolve."""
    return solve(
        p, "branch_bound",
        SolveOptions(relaxation_engine=engine, presolve=True),
    )


class TestSolveWithPresolve:
    def test_matches_raw_solve(self, tiny_state):
        from repro.core import ConsolidationModel

        model = ConsolidationModel(tiny_state)
        raw = solve(model.problem, backend="highs")
        pre = solve_presolved(model.problem, engine="highs")
        assert pre.status is SolveStatus.OPTIMAL
        assert pre.objective == pytest.approx(raw.objective, rel=1e-6)
        assert pre.stats.presolve_rounds >= 1

    def test_eq_crossing_singleton_infeasible_end_to_end(self):
        # `x == 5` outside x's own bounds must not come back OPTIMAL with
        # x "fixed" at 5.
        p = Problem()
        x = p.add_variable("x", lb=0.0, ub=2.0)
        y = p.add_variable("y", ub=4.0)
        p.add_constraint(x == 5, "pin")
        p.add_constraint(x + y <= 6, "cap")
        p.set_objective(x + y)
        for engine in ("builtin", "highs"):
            sol = solve_presolved(p, engine)
            assert sol.status is SolveStatus.INFEASIBLE, engine
            assert sol.stats.lp_iterations == 0, engine

    def test_infeasible_detected_without_solver(self):
        p = Problem()
        x = p.add_variable("x", lb=1.0, ub=1.0)
        p.add_constraint(x >= 2, "broken")
        p.set_objective(x)
        sol = solve_presolved(p)
        assert sol.status is SolveStatus.INFEASIBLE
        # The presolve settles it: no simplex pivot is taken.
        assert sol.stats.presolve_rounds >= 1
        assert sol.stats.lp_iterations == 0
