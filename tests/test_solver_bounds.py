"""Regression tests for ``Solution.bound`` semantics across backends.

History: scipy's ``linprog`` result objects carry a vestigial
``mip_dual_bound`` of 0.0 for pure-LP solves; trusting it produced bounds
unrelated to the model (caught by the differential fuzzer).  The bnb
backend also used to drop its proven dual bound whenever no incumbent
existed.  These tests pin the intended semantics: the bound lives in the
model's own sense, never lies on the wrong side of a certified objective,
and survives early LIMIT/TIMEOUT stops.
"""

from __future__ import annotations

import functools
import math

import pytest

from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers.branch_and_bound import solve_bnb
from repro.milp.solvers.scipy_backend import solve_highs


def lp_with_constant(constant: float = 5.0) -> Model:
    """min x + y + constant  s.t. x + y >= 3 — optimum 3 + constant."""
    m = Model("lp-c0")
    x = m.add_var("x", lb=0, ub=10)
    y = m.add_var("y", lb=0, ub=10)
    m.add_constraint(x + y >= 3, name="floor")
    m.set_objective(x + y + constant)
    return m


def max_lp() -> Model:
    """max 2x + y  s.t. x + y <= 4, boxes [0, 4] — optimum 8."""
    m = Model("max-lp")
    x = m.add_var("x", lb=0, ub=4)
    y = m.add_var("y", lb=0, ub=4)
    m.add_constraint(x + y <= 4, name="cap")
    m.set_objective(2 * x + y, sense="max")
    return m


def fractional_milp() -> Model:
    """Knapsack whose LP relaxation is fractional at the root."""
    m = Model("frac")
    items = [m.add_binary(f"z{i}") for i in range(6)]
    weights = [5, 4, 3, 7, 6, 2]
    values = [9, 7, 6, 12, 11, 3]
    m.add_constraint(
        sum(w * z for w, z in zip(weights, items)) <= 11, name="cap")
    m.set_objective(sum(v * z for v, z in zip(values, items)), sense="max")
    return m


class TestLpBounds:
    def test_highs_lp_bound_equals_objective(self):
        # Regression: linprog's vestigial mip_dual_bound (always 0.0) must
        # not leak into pure-LP solutions.
        sol = solve_highs(lp_with_constant(5.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(8.0)
        assert sol.bound == pytest.approx(sol.objective)

    def test_highs_lp_bound_includes_objective_constant(self):
        sol = solve_highs(lp_with_constant(-2.0))
        assert sol.bound == pytest.approx(1.0)

    def test_highs_max_lp_bound(self):
        sol = solve_highs(max_lp())
        assert sol.objective == pytest.approx(8.0)
        assert sol.bound == pytest.approx(8.0)

    def test_bnb_lp_bound_equals_objective(self):
        sol = solve_bnb(lp_with_constant(5.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.bound == pytest.approx(sol.objective)


class TestMilpBounds:
    @pytest.mark.parametrize("solver", [
        solve_highs, solve_bnb,
        pytest.param(functools.partial(solve_bnb, lp_engine="simplex"),
                     id="solve_bnb_simplex")])
    def test_optimal_bound_on_correct_side(self, solver):
        sol = solver(fractional_milp())
        assert sol.status is SolveStatus.OPTIMAL
        assert math.isfinite(sol.bound)
        # Max problem: dual bound must sit at or above the incumbent.
        assert sol.bound >= sol.objective - 1e-6 * max(1.0, abs(sol.objective))
        assert sol.bound <= sol.objective + 1e-3 * max(1.0, abs(sol.objective))

    def test_bnb_node_limit_keeps_dual_bound(self):
        # Regression: a LIMIT stop used to lose the proven dual bound when
        # no incumbent existed yet.
        sol = solve_bnb(fractional_milp(), node_limit=1)
        assert sol.status in (SolveStatus.LIMIT, SolveStatus.TIMEOUT,
                              SolveStatus.FEASIBLE, SolveStatus.OPTIMAL)
        assert math.isfinite(sol.bound)
        # The bound can never undercut the true optimum of a max problem.
        true_opt = solve_highs(fractional_milp()).objective
        assert sol.bound >= true_opt - 1e-6

    def test_bnb_timeout_keeps_bound_when_incumbent_exists(self):
        sol = solve_bnb(fractional_milp(), time_limit=0.0)
        if sol.status.has_solution:
            assert math.isfinite(sol.bound)
        # Either way an early stop must not fabricate a bound below the
        # optimum (max sense).
        if math.isfinite(sol.bound):
            true_opt = solve_highs(fractional_milp()).objective
            assert sol.bound >= true_opt - 1e-6

    def test_infeasible_has_nan_bound(self):
        m = Model("inf")
        x = m.add_var("x", lb=0, ub=1)
        m.add_constraint(x >= 2, name="impossible")
        m.set_objective(x)
        for solver in (solve_highs, solve_bnb):
            sol = solver(m)
            assert sol.status is SolveStatus.INFEASIBLE
            assert math.isnan(sol.bound)
