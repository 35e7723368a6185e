"""Unit tests for the three solver backends on known problems."""

import math
import warnings

import pytest

from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers.registry import available_backends, solve

LP_BACKENDS = ("highs", "bnb", "simplex")
MILP_BACKENDS = ("highs", "bnb")


def _lp_model() -> tuple[Model, dict]:
    """max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0; opt (4, 0) -> 12."""
    m = Model("lp")
    x = m.add_continuous("x")
    y = m.add_continuous("y")
    m.add_constraint(x + y <= 4)
    m.add_constraint(x + 3 * y <= 6)
    m.set_objective(3 * x + 2 * y, "max")
    return m, {"x": x, "y": y}


def _knapsack() -> tuple[Model, list]:
    """Classic 0-1 knapsack; optimum value 13 with items 0 and 3."""
    m = Model("knap")
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    values = [10, 7, 4, 3]
    weights = [5, 4, 3, 2]
    from repro.milp.expr import lin_sum

    m.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= 7)
    m.set_objective(lin_sum(v * x for v, x in zip(values, xs)), "max")
    return m, xs


class TestRegistry:
    def test_backends_listed(self):
        assert set(available_backends()) == {"highs", "bnb", "simplex",
                                             "smt"}

    def test_unknown_backend_rejected(self):
        m, _ = _lp_model()
        with pytest.raises(ValueError):
            solve(m, backend="cplex")


class TestLp:
    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_lp_optimum(self, backend):
        m, v = _lp_model()
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == pytest.approx(12.0)
        assert s[v["x"]] == pytest.approx(4.0)
        assert s[v["y"]] == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_lp_infeasible(self, backend):
        m = Model()
        x = m.add_continuous("x", ub=1)
        m.add_constraint(x >= 2)
        m.set_objective(x)
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", ("highs", "simplex"))
    def test_lp_unbounded(self, backend):
        m = Model()
        x = m.add_continuous("x")
        m.set_objective(-1.0 * x)
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.UNBOUNDED

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_equality_constraints(self, backend):
        m = Model()
        x = m.add_continuous("x")
        y = m.add_continuous("y")
        m.add_constraint(x + y == 5)
        m.add_constraint(x - y == 1)
        m.set_objective(x + 2 * y)
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.OPTIMAL
        assert s[x] == pytest.approx(3.0)
        assert s[y] == pytest.approx(2.0)

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_variable_bounds_respected(self, backend):
        m = Model()
        x = m.add_continuous("x", lb=2.0, ub=3.0)
        m.set_objective(x)
        s = solve(m, backend=backend)
        assert s[x] == pytest.approx(2.0)
        m2 = Model()
        y = m2.add_continuous("y", lb=2.0, ub=3.0)
        m2.set_objective(y, "max")
        s2 = solve(m2, backend=backend)
        assert s2[y] == pytest.approx(3.0)

    @pytest.mark.parametrize("backend", LP_BACKENDS)
    def test_objective_constant_included(self, backend):
        m = Model()
        x = m.add_continuous("x", lb=1.0, ub=2.0)
        m.set_objective(x + 10)
        s = solve(m, backend=backend)
        assert s.objective == pytest.approx(11.0)

    def test_simplex_rejects_milp(self):
        m, _ = _knapsack()
        with pytest.raises(ValueError):
            solve(m, backend="simplex")


class TestMilp:
    @pytest.mark.parametrize("backend", MILP_BACKENDS)
    def test_knapsack_optimum(self, backend):
        m, xs = _knapsack()
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == pytest.approx(13.0)
        assert [s.rounded(x) for x in xs] == [1, 0, 0, 1]

    @pytest.mark.parametrize("backend", MILP_BACKENDS)
    def test_integrality_enforced(self, backend):
        """LP relaxation is fractional; MILP optimum differs."""
        m = Model()
        x = m.add_var("x", 0, 10, kind=__import__("repro.milp.expr",
                                                  fromlist=["VarKind"]).VarKind.INTEGER)
        m.add_constraint(2 * x <= 7)
        m.set_objective(x, "max")
        s = solve(m, backend=backend)
        assert s.objective == pytest.approx(3.0)

    @pytest.mark.parametrize("backend", MILP_BACKENDS)
    def test_milp_infeasible(self, backend):
        m = Model()
        z = m.add_binary("z")
        m.add_constraint(z >= 0.4)
        m.add_constraint(z <= 0.6)
        m.set_objective(z)
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", MILP_BACKENDS)
    def test_disjunctive_big_m(self, backend):
        """The floorplanning pattern: two intervals must not overlap."""
        m = Model()
        x1 = m.add_continuous("x1", ub=10)
        x2 = m.add_continuous("x2", ub=10)
        p = m.add_binary("p")
        big = 20.0
        m.add_constraint(x1 + 4 <= x2 + big * p)        # 1 left of 2
        m.add_constraint(x2 + 4 <= x1 + big * (1 - p))  # 2 left of 1
        m.add_constraint(x1 + 4 <= 10)
        m.add_constraint(x2 + 4 <= 10)
        span = m.add_continuous("span", ub=20)
        m.add_constraint(span >= x1 + 4)
        m.add_constraint(span >= x2 + 4)
        m.set_objective(span)
        s = solve(m, backend=backend)
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == pytest.approx(8.0)
        left = min(s[x1], s[x2])
        right = max(s[x1], s[x2])
        assert right - left >= 4.0 - 1e-6

    def test_bnb_with_simplex_engine(self):
        m, xs = _knapsack()
        s = solve(m, backend="bnb", lp_engine="simplex")
        assert s.status is SolveStatus.OPTIMAL
        assert s.objective == pytest.approx(13.0)

    def test_bnb_node_limit_reports_feasible_or_limit(self):
        m, _ = _knapsack()
        s = solve(m, backend="bnb", node_limit=1)
        assert s.status in (SolveStatus.FEASIBLE, SolveStatus.OPTIMAL,
                            SolveStatus.LIMIT)

    def test_bnb_reports_bound_and_nodes(self):
        m, _ = _knapsack()
        s = solve(m, backend="bnb")
        assert s.n_nodes >= 1
        assert not math.isnan(s.bound)
        assert s.gap() <= 1e-6

    def test_highs_mip_solve_warns_nothing(self):
        """HiGHS's MIP solve sets its option profile on its own instance,
        so nothing (SciPy's "passed to HiGHS verbatim" warning included)
        is raised as a warning."""
        m, _ = _knapsack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve(m, backend="highs")
        assert s.status is SolveStatus.OPTIMAL
        assert s.backend == "highs"


class TestSolutionObject:
    def test_value_of_expression(self):
        m, v = _lp_model()
        s = solve(m)
        assert s.value(v["x"] + v["y"]) == pytest.approx(4.0)

    def test_decode_requires_solution(self):
        m = Model()
        x = m.add_continuous("x", ub=1)
        m.add_constraint(x >= 2)
        m.set_objective(x)
        s = solve(m)
        assert not s.status.has_solution
        assert s.values == {}
