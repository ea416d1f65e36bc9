"""Unit tests for the array-level presolve.

Each reduction class gets targeted instances, and two randomized sweeps
check the global contract: presolving must never change the optimum.
A presolved instance is re-solved (bounds from the result, rows sliced
by the keep masks) and compared against the raw solve: LPs through
HiGHS and the builtin revised simplex, MILPs through HiGHS.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.lp.array_presolve import presolve_arrays
from repro.lp.matrix_lp import solve_lp_arrays
from repro.lp.sparse import CSCMatrix

NO_EQ = dict(a_eq=np.zeros((0, 2)), b_eq=np.zeros(0))


class TestSingletonRows:
    def test_le_singleton_becomes_upper_bound(self):
        # 2x <= 4 is the bound x <= 2; the row must vanish.
        lb, ub = np.zeros(2), np.full(2, 10.0)
        res = presolve_arrays(
            a_ub=np.array([[2.0, 0.0]]), b_ub=np.array([4.0]),
            lb=lb, ub=ub, **NO_EQ,
        )
        assert not res.infeasible
        assert not res.keep_ub[0]
        assert res.singleton_rows == 1
        assert res.ub[0] == pytest.approx(2.0)
        # The caller's bound arrays are left untouched.
        assert ub[0] == 10.0 and lb[0] == 0.0

    def test_negative_coefficient_flips_direction(self):
        # -3x <= -6 is the bound x >= 2.
        res = presolve_arrays(
            a_ub=np.array([[-3.0, 0.0]]), b_ub=np.array([-6.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert not res.infeasible
        assert res.lb[0] == pytest.approx(2.0)

    def test_eq_singleton_fixes_the_column(self):
        res = presolve_arrays(
            a_ub=np.zeros((0, 2)), b_ub=np.zeros(0),
            a_eq=np.array([[0.0, 2.0]]), b_eq=np.array([3.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0),
        )
        assert not res.infeasible
        assert not res.keep_eq[0]
        assert res.lb[1] == pytest.approx(1.5)
        assert res.ub[1] == pytest.approx(1.5)
        assert res.cols_fixed == 1
        # 2x == 4 fixes x = 2 inside its bounds, and the next round
        # carries the fixing through x + y <= 5 onto y <= 3.
        res = presolve_arrays(
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([5.0]),
            a_eq=np.array([[2.0, 0.0]]), b_eq=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0),
        )
        assert not res.infeasible
        assert res.lb[0] == res.ub[0] == pytest.approx(2.0)
        assert res.ub[1] == pytest.approx(3.0)
        assert res.cols_fixed == 1

    def test_eq_singleton_outside_bounds_is_infeasible(self):
        # 2x == 30 puts x above its upper bound 10; 2x == 4 puts it
        # below its lower bound 3.
        for rhs, lb in ((30.0, np.zeros(2)), (4.0, np.array([3.0, 0.0]))):
            res = presolve_arrays(
                a_ub=np.zeros((0, 2)), b_ub=np.zeros(0),
                a_eq=np.array([[2.0, 0.0]]), b_eq=np.array([rhs]),
                lb=lb, ub=np.full(2, 10.0),
            )
            assert res.infeasible, rhs


class TestRedundantRowsAndTightening:
    def test_redundant_le_row_dropped(self):
        # With x, y in [0, 1], x + y <= 5 can never bind.
        res = presolve_arrays(
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([5.0]),
            lb=np.zeros(2), ub=np.ones(2), **NO_EQ,
        )
        assert not res.keep_ub[0]
        assert res.rows_dropped == 1
        # An empty row that holds (0 <= 2) is dropped too.
        res = presolve_arrays(
            a_ub=np.zeros((1, 2)), b_ub=np.array([2.0]),
            lb=np.zeros(2), ub=np.ones(2), **NO_EQ,
        )
        assert not res.infeasible
        assert not res.keep_ub[0]
        assert res.rows_dropped == 1

    def test_activity_bound_tightening(self):
        # x + y <= 1 with y >= 0 forces x <= 1 (from ub=10).
        res = presolve_arrays(
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert res.ub[0] == pytest.approx(1.0)
        assert res.ub[1] == pytest.approx(1.0)
        assert res.bounds_tightened >= 2

    def test_min_activity_infeasibility(self):
        cases = {
            # x + y <= 1 with both lower bounds at 1: min activity 2 > 1.
            "activity": dict(
                a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
                lb=np.ones(2), ub=np.full(2, 10.0),
            ),
            # An empty row that cannot hold: 0 <= -1.
            "empty-row": dict(
                a_ub=np.zeros((1, 2)), b_ub=np.array([-1.0]),
                lb=np.zeros(2), ub=np.ones(2),
            ),
            # x <= 2 and x >= 5: the two singleton bounds cross.
            "crossing-bounds": dict(
                a_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]), b_ub=np.array([2.0, -5.0]),
                lb=np.zeros(2), ub=np.full(2, 10.0),
            ),
            # Integral x with 7/3 <= x <= 8/3: no integer in between.
            "integer-gap": dict(
                a_ub=np.array([[-3.0, 0.0], [3.0, 0.0]]), b_ub=np.array([-7.0, 8.0]),
                lb=np.zeros(2), ub=np.full(2, 10.0), integrality=np.array([1, 0]),
            ),
        }
        for name, kw in cases.items():
            assert presolve_arrays(**kw, **NO_EQ).infeasible, name

    def test_integer_bounds_snap(self):
        # 3x <= 4 tightens integral x to ub=1 (floor of 4/3).
        res = presolve_arrays(
            a_ub=np.array([[3.0, 0.0]]), b_ub=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
            integrality=np.array([1, 0]),
        )
        assert res.ub[0] == pytest.approx(1.0)
        # 4/3 <= x <= 25/3 snaps to the integer hull [2, 8].
        res = presolve_arrays(
            a_ub=np.array([[-3.0, 0.0], [3.0, 0.0]]), b_ub=np.array([-4.0, 25.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
            integrality=np.array([1, 0]),
        )
        assert res.lb[0] == pytest.approx(2.0)
        assert res.ub[0] == pytest.approx(8.0)

    def test_csc_input_accepted(self):
        a = CSCMatrix.from_dense(np.array([[2.0, 0.0]]))
        res = presolve_arrays( a_ub=a, b_ub=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert res.ub[0] == pytest.approx(2.0)

    def test_no_reduction_is_reported(self):
        res = presolve_arrays(
            a_ub=np.array([[1.0, 1.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.ones(2), **NO_EQ,
        )
        assert not res.infeasible
        assert not res.reduced


class TestOptimumPreservation:
    @pytest.mark.parametrize("seed", range(25))
    def test_presolved_solve_matches_raw(self, seed):
        rng = np.random.default_rng(8800 + seed)
        n = int(rng.integers(3, 8))
        m = int(rng.integers(2, 6))
        lb = np.round(rng.uniform(-2.0, 0.0, size=n), 3)
        ub = lb + np.round(rng.uniform(0.5, 6.0, size=n), 3)
        c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
        a_ub = np.round(rng.uniform(-2.0, 2.0, size=(m, n)), 3)
        # Plant singleton and wide-rhs rows so reductions actually fire.
        a_ub[0, 1:] = 0.0
        a_ub[0, 0] = 1.0
        x0 = rng.uniform(lb, ub)
        b_ub = a_ub @ x0 + np.round(rng.uniform(0.1, 2.0, size=m), 3)
        b_ub[-1] += 50.0  # redundant row
        kw = dict(a_ub=a_ub, b_ub=b_ub, a_eq=np.zeros((0, n)),
                  b_eq=np.zeros(0), lb=lb, ub=ub)
        raw = solve_lp_arrays(engine="highs", c=c, **kw)

        res = presolve_arrays(**kw)
        if res.infeasible:
            assert raw.status == "infeasible"
            return
        red = solve_lp_arrays(
            engine="highs", c=c,
            a_ub=a_ub[res.keep_ub], b_ub=b_ub[res.keep_ub],
            a_eq=np.zeros((0, n)), b_eq=np.zeros(0),
            lb=res.lb, ub=res.ub,
        )
        assert red.status == raw.status
        if raw.status == "optimal":
            assert red.objective == pytest.approx(
                raw.objective, rel=1e-6, abs=1e-6
            )
        # The builtin engine on the reduced arrays agrees too.
        bres = solve_lp_arrays(
            engine="builtin", c=c,
            a_ub=a_ub[res.keep_ub], b_ub=b_ub[res.keep_ub],
            a_eq=np.zeros((0, n)), b_eq=np.zeros(0),
            lb=res.lb, ub=res.ub,
        )
        assert bres.status == raw.status
        if raw.status == "optimal":
            assert bres.objective == pytest.approx(
                raw.objective, rel=1e-6, abs=1e-6
            )

    def test_empty_column_fixing_off_by_default(self):
        # A column in no row keeps its box: presolve never reads costs.
        res = presolve_arrays(
            a_ub=np.array([[1.0, 0.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 3.0), **NO_EQ,
        )
        assert res.cols_fixed == 0
        assert res.lb[1] == pytest.approx(0.0)
        assert res.ub[1] == pytest.approx(3.0)

    def test_cols_fixed_counts_collapsed_boxes(self):
        # Integral x with 3x <= 2 snaps to ub 0 == lb; y was fixed on
        # entry and is not counted; z stays open.
        res = presolve_arrays(
            a_ub=np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 1.0]]), b_ub=np.array([2.0, 9.0]),
            a_eq=np.zeros((0, 3)), b_eq=np.zeros(0),
            lb=np.array([0.0, 1.0, 0.0]), ub=np.array([5.0, 1.0, 5.0]),
            integrality=np.array([1, 0, 0]),
        )
        assert res.lb[0] == res.ub[0] == 0.0
        assert res.cols_fixed == 1


@st.composite
def random_reducible_milp(draw):
    """Small ``<=`` MILPs salted with fixed columns and singleton rows."""
    n = draw(st.integers(min_value=2, max_value=5))
    lb, ub, integral = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    for j in range(n):
        kind = draw(st.sampled_from(["fixed", "bounded", "binary"]))
        if kind == "fixed":
            lb[j] = ub[j] = draw(st.integers(min_value=0, max_value=3))
        elif kind == "binary":
            ub[j], integral[j] = 1.0, 1
        else:
            ub[j] = draw(st.integers(min_value=1, max_value=8))
    coef = st.integers(min_value=-4, max_value=4)
    rows, rhs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            row = np.zeros(n)
            row[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
            rhs.append(draw(st.integers(min_value=0, max_value=8)))
        else:
            row = np.array([draw(coef) for _ in range(n)], dtype=float)
            rhs.append(draw(st.integers(min_value=0, max_value=25)))
        rows.append(row)
    c = np.array([draw(coef) for _ in range(n)], dtype=float)
    return c, np.array(rows), np.array(rhs, dtype=float), lb, ub, integral


def _highs_milp(c, a_ub, b_ub, lb, ub, integral):
    constraints = [LinearConstraint(a_ub, -np.inf, b_ub)] if b_ub.size else []
    return milp(c, constraints=constraints, bounds=Bounds(lb, ub),
                integrality=integral)


@given(random_reducible_milp())
@settings(max_examples=40, deadline=None)
def test_presolve_preserves_the_optimum(model):
    c, a_ub, b_ub, lb, ub, integral = model
    raw = _highs_milp(c, a_ub, b_ub, lb, ub, integral)
    res = presolve_arrays(
        a_ub, b_ub, np.zeros((0, c.size)), np.zeros(0), lb, ub,
        integrality=integral,
    )
    if res.infeasible:
        assert raw.status == 2  # HiGHS: infeasible
        return
    keep = res.keep_ub
    red = _highs_milp(c, a_ub[keep], b_ub[keep], res.lb, res.ub, integral)
    assert red.status == raw.status
    if raw.status == 0:
        assert red.fun == pytest.approx(raw.fun, rel=1e-6, abs=1e-6)
        # The reduced optimum is feasible for the *original* model.
        assert (a_ub @ red.x <= b_ub + 1e-6).all()
        assert (red.x >= lb - 1e-6).all() and (red.x <= ub + 1e-6).all()


class TestSparseHelpers:
    def test_row_nnz(self):
        a = CSCMatrix.from_dense(
            np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        )
        np.testing.assert_array_equal(a.row_nnz(), [2, 0, 2])

    def test_take_rows(self):
        dense = np.array([[1.0, 0.0, 2.0], [5.0, 6.0, 0.0], [3.0, 4.0, 0.0]])
        a = CSCMatrix.from_dense(dense)
        keep = np.array([True, False, True])
        sub = a.take_rows(keep)
        assert sub.shape == (2, 3)
        np.testing.assert_allclose(sub.to_dense(), dense[keep])
