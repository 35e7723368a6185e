"""Unit tests for the independent MILP certificate checker."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.check import CertificateReport, Violation, check_certificate
from repro.core.config import FloorplanConfig
from repro.core.formulation import SubproblemBuilder
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.scipy_backend import solve_highs
from repro.netlist.module import Module


def knapsack_model() -> Model:
    """max 3a + 2b + 2c  s.t. 2a + b + 3c <= 4, binaries."""
    m = Model("knap")
    a = m.add_binary("a")
    b = m.add_binary("b")
    c = m.add_binary("c")
    m.add_constraint(2 * a + b + 3 * c <= 4, name="cap")
    m.set_objective(3 * a + 2 * b + 2 * c, sense="max")
    return m


def lp_model() -> Model:
    """min x + y  s.t. x + y >= 3, 0 <= x,y <= 5."""
    m = Model("lp")
    x = m.add_var("x", lb=0, ub=5)
    y = m.add_var("y", lb=0, ub=5)
    m.add_constraint(x + y >= 3, name="floor")
    m.set_objective(x + y)
    return m


class TestCertifyHonestSolutions:
    def test_milp_optimum_certifies(self):
        model = knapsack_model()
        sol = solve_highs(model)
        assert sol.status is SolveStatus.OPTIMAL
        report = check_certificate(model, sol)
        assert report.ok
        assert not report.violations
        assert report.recomputed_objective == pytest.approx(5.0)

    def test_lp_optimum_certifies(self):
        model = lp_model()
        sol = solve_highs(model)
        report = check_certificate(model, sol)
        assert report.ok
        assert report.verified_gap == pytest.approx(0.0, abs=1e-9)

    def test_non_solution_status_is_vacuous(self):
        model = knapsack_model()
        sol = Solution(status=SolveStatus.INFEASIBLE, backend="fake")
        report = check_certificate(model, sol)
        assert report.ok
        assert report.n_variables == 0


class TestCertifyLies:
    def test_infeasible_point_rejected(self):
        model = knapsack_model()
        sol = solve_highs(model)
        lying = dataclasses.replace(
            sol, values={v: 1.0 for v in model.variables})
        report = check_certificate(model, lying)
        assert not report.ok
        assert any(v.kind == "constraint" for v in report.violations)

    def test_fractional_binary_rejected(self):
        model = knapsack_model()
        sol = solve_highs(model)
        values = dict(sol.values)
        values[model.variables[0]] = 0.5
        report = check_certificate(model, dataclasses.replace(
            sol, values=values))
        assert any(v.kind == "integrality" for v in report.violations)

    def test_wrong_objective_rejected(self):
        model = knapsack_model()
        sol = solve_highs(model)
        report = check_certificate(
            model, dataclasses.replace(sol, objective=sol.objective + 1.0))
        assert any(v.kind == "objective" for v in report.violations)

    def test_bound_below_max_objective_rejected(self):
        # For a max problem the dual bound must sit at or above the
        # incumbent; a bound strictly below it is a contradiction.
        model = knapsack_model()
        sol = solve_highs(model)
        report = check_certificate(
            model, dataclasses.replace(sol, bound=sol.objective - 1.0))
        assert any(v.kind == "bound" for v in report.violations)

    def test_out_of_box_value_rejected(self):
        model = lp_model()
        sol = solve_highs(model)
        values = dict(sol.values)
        values[model.variables[0]] = 99.0
        report = check_certificate(model, dataclasses.replace(
            sol, values=values, objective=float("nan")))
        assert any(v.kind == "variable-bound" for v in report.violations)

    def test_missing_value_rejected(self):
        model = lp_model()
        sol = solve_highs(model)
        values = dict(sol.values)
        del values[model.variables[1]]
        report = check_certificate(model, dataclasses.replace(
            sol, values=values))
        assert any(v.kind == "missing-value" for v in report.violations)


def solved_window():
    """A two-module formulation: its non-overlap rows are a row block."""
    window = [Module.rigid("a", 4.0, 3.0), Module.rigid("b", 2.0, 5.0)]
    builder = SubproblemBuilder(window, [], 8.0, FloorplanConfig())
    return builder.model, solve_highs(builder.model)


def stacked_on_a(model, sol):
    """``sol`` with module b moved onto module a."""
    values = dict(sol.values)
    by_name = {v.name: v for v in model.variables}
    for axis in ("x", "y"):
        values[by_name[f"{axis}[b]"]] = values[by_name[f"{axis}[a]"]]
    return dataclasses.replace(sol, values=values)


class TestRowNames:
    def test_block_row_reported_by_name(self):
        model, sol = solved_window()
        report = check_certificate(model, stacked_on_a(model, sol))
        rows = [v for v in report.violations if v.kind == "constraint"]
        assert any(v.name.startswith("no[") for v in rows)
        names = [c.name for c in model.constraints]
        for v in rows:
            row = int(v.detail.split(":")[0].removeprefix("row "))
            assert v.name == names[row]

    def test_clean_certificate_reads_no_row_names(self, monkeypatch):
        """Naming rows materializes every block row; a certified solution
        never needs a name."""
        model, sol = solved_window()
        reads = []
        real = Model.constraints

        def spy(self):
            reads.append(self)
            return real.fget(self)

        monkeypatch.setattr(Model, "constraints", property(spy))
        assert check_certificate(model, sol).ok
        assert reads == []
        assert not check_certificate(model, stacked_on_a(model, sol)).ok
        assert reads == [model]


class TestReportSerialization:
    def test_round_trip(self):
        model = knapsack_model()
        report = check_certificate(model, solve_highs(model))
        data = report.to_dict()
        back = CertificateReport.from_dict(data)
        assert back.ok == report.ok
        assert back.backend == report.backend
        assert back.claimed_objective == pytest.approx(
            report.claimed_objective)

    def test_nan_fields_round_trip_as_none(self):
        report = CertificateReport(backend="x", status="error",
                                   claimed_objective=math.nan,
                                   claimed_bound=math.nan)
        data = report.to_dict()
        assert data["claimed_objective"] is None
        back = CertificateReport.from_dict(data)
        assert math.isnan(back.claimed_objective)

    def test_violation_round_trip(self):
        v = Violation("row", "cap", 0.25, "cap violated by 0.25")
        assert Violation.from_dict(v.to_dict()) == v
