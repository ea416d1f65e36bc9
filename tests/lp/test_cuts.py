"""Knapsack cover cuts: separation and cut-and-branch integration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import Problem, SolveOptions, SolveStatus, quicksum, solve
from repro.lp.branch_bound import solve_branch_and_bound
from repro.lp.cuts import (
    CoverCut,
    cuts_to_rows,
    knapsack_rows,
    separate_cover_cut,
    separate_cuts,
)


class TestCoverCut:
    def test_rhs_and_violation(self):
        cut = CoverCut(row=0, members=(0, 1, 2))
        assert cut.rhs == 2
        x = np.array([0.9, 0.9, 0.9])
        assert cut.violation(x) == pytest.approx(0.7)


def _binary_bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(n), np.ones(n)


class TestKnapsackRows:
    def test_selects_binary_nonnegative_rows(self):
        a = np.array([
            [3.0, 4.0, 2.0],   # usable
            [1.0, -1.0, 0.0],  # negative coefficient → skip
            [5.0, 0.0, 0.0],   # single support → skip
        ])
        b = np.array([6.0, 1.0, 3.0])
        integral = np.array([True, True, True])
        lb, ub = _binary_bounds(3)
        assert knapsack_rows(a, b, integral, lb, ub) == [0]

    def test_skips_continuous_support(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([1.5])
        integral = np.array([True, False])
        lb, ub = _binary_bounds(2)
        assert knapsack_rows(a, b, integral, lb, ub) == []

    def test_skips_nonpositive_rhs(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([0.0])
        lb, ub = _binary_bounds(2)
        assert knapsack_rows(a, b, np.array([True, True]), lb, ub) == []

    def test_skips_general_integer_support(self):
        # Regression: an integral variable with ub > 1 is NOT binary; a
        # cover cut over it would slice off integer-feasible points.
        a = np.array([[3.0, 4.0]])
        b = np.array([6.0])
        integral = np.array([True, True])
        lb = np.zeros(2)
        ub = np.array([1.0, 4.0])  # x1 is a general integer
        assert knapsack_rows(a, b, integral, lb, ub) == []

    def test_no_rows_without_bound_proof(self):
        # Regression: integrality alone never proves 0/1-ness.
        a = np.array([[3.0, 4.0, 2.0]])
        b = np.array([6.0])
        integral = np.array([True, True, True])
        assert knapsack_rows(a, b, integral) == []


class TestSeparation:
    def test_classic_fractional_point_is_cut(self):
        # max x1+x2+x3 s.t. 2x1+2x2+2x3 <= 3: LP optimum x=(.5,.5,.5),
        # cover {1,2,3} gives x1+x2+x3 <= 2... sum is 1.5 < 2: not
        # violated.  Use weights 3,3,3 cap 4: LP x=(4/9 each)? Construct
        # directly: x=(0.9, 0.9, 0.2), weights (3,3,3), cap 4 → cover
        # {0,1} (weight 6 > 4) cut x0+x1 <= 1 violated by 0.8.
        row = np.array([3.0, 3.0, 3.0])
        x = np.array([0.9, 0.9, 0.2])
        cut = separate_cover_cut(row, 4.0, x, row_index=0)
        assert cut is not None
        assert set(cut.members) == {0, 1}
        assert cut.violation(x) == pytest.approx(0.8)

    def test_no_cover_when_everything_fits(self):
        row = np.array([1.0, 1.0, 1.0])
        x = np.array([1.0, 1.0, 1.0])
        assert separate_cover_cut(row, 10.0, x, 0) is None

    def test_unviolated_cover_rejected(self):
        row = np.array([3.0, 3.0])
        x = np.array([0.1, 0.1])
        assert separate_cover_cut(row, 4.0, x, 0) is None

    def test_separate_cuts_orders_by_violation(self):
        a = np.array([
            [3.0, 3.0, 0.0],
            [0.0, 4.0, 4.0],
        ])
        b = np.array([4.0, 6.0])
        x = np.array([0.95, 0.95, 0.6])
        integral = np.array([True, True, True])
        lb, ub = _binary_bounds(3)
        cuts = separate_cuts(a, b, x, integral, lb=lb, ub=ub)
        assert cuts
        violations = [c.violation(x) for c in cuts]
        assert violations == sorted(violations, reverse=True)

    def test_cuts_to_rows(self):
        cuts = [CoverCut(0, (0, 2))]
        a, b = cuts_to_rows(cuts, 4)
        assert a.tolist() == [[1.0, 0.0, 1.0, 0.0]]
        assert b.tolist() == [1.0]


def hard_knapsack():
    """Equal-weight knapsack — notoriously fractional at the root."""
    p = Problem()
    n = 12
    xs = [p.add_binary(f"x{i}") for i in range(n)]
    p.add_constraint(quicksum(5 * x for x in xs) <= 23)
    p.set_objective(-quicksum((10 + i) * x for i, x in enumerate(xs)))
    return p


class TestCutAndBranch:
    def test_same_optimum_with_and_without_cuts(self):
        p = hard_knapsack()
        plain = solve_branch_and_bound(p)
        cut = solve_branch_and_bound(p, cover_cut_rounds=5)
        assert plain.status is SolveStatus.OPTIMAL
        assert cut.status is SolveStatus.OPTIMAL
        assert plain.objective == pytest.approx(cut.objective)

    def test_cuts_shrink_the_tree(self):
        p = hard_knapsack()
        plain = solve_branch_and_bound(p)
        cut = solve_branch_and_bound(p, cover_cut_rounds=5)
        assert cut.iterations <= plain.iterations

    def test_option_flows_through_registry(self):
        p = hard_knapsack()
        sol = solve(p, backend="branch_bound", options=SolveOptions(cover_cut_rounds=3))
        assert sol.status is SolveStatus.OPTIMAL

    def test_general_integer_knapsack_keeps_true_optimum(self):
        # Regression for the binary-bounds check: minimize -(3y + 2x)
        # s.t. 2y + 4x <= 5 with y integer in [0, 2] and x binary.  The
        # LP relaxation is fractional (y = 2, x = 0.25), and treating y
        # as binary separates the cover {y, x} (2 + 4 > 5), whose cut
        # ``y + x <= 1`` slices off the true optimum y=2, x=0
        # (objective -6) and leaves -3.  No cover cut may be produced on
        # a row supported by a general integer.
        p = Problem()
        y = p.add_integer("y", lb=0, ub=2)
        x = p.add_binary("x")
        p.add_constraint(2 * y + 4 * x <= 5)
        p.set_objective(-(3 * y + 2 * x))
        plain = solve_branch_and_bound(p)
        cut = solve_branch_and_bound(p, cover_cut_rounds=5)
        assert plain.status is SolveStatus.OPTIMAL
        assert cut.status is SolveStatus.OPTIMAL
        assert plain.objective == pytest.approx(-6.0)
        assert cut.objective == pytest.approx(-6.0)
        assert cut.stats.cuts_added == 0

    def test_matches_highs_on_consolidation_model(self, tiny_state):
        from repro.core import ConsolidationModel

        model = ConsolidationModel(tiny_state)
        ref = solve(model.problem, backend="highs")
        cut = solve(
            model.problem,
            backend="branch_bound",
            options=SolveOptions(cover_cut_rounds=3),
        )
        assert cut.objective == pytest.approx(ref.objective, rel=1e-6)


@given(
    weights=st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=8),
    values=st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=8),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_cut_and_branch_never_changes_the_optimum(weights, values, seed):
    n = min(len(weights), len(values))
    weights, values = weights[:n], values[:n]
    cap = max(1, sum(weights) // 2)
    p = Problem()
    xs = [p.add_binary(f"x{i}") for i in range(n)]
    p.add_constraint(quicksum(w * x for w, x in zip(weights, xs)) <= cap)
    p.set_objective(-quicksum(v * x for v, x in zip(values, xs)))
    plain = solve_branch_and_bound(p)
    cut = solve_branch_and_bound(p, cover_cut_rounds=4)
    assert plain.objective == pytest.approx(cut.objective, abs=1e-6)
