"""Tests of the difference-logic SMT backend (:mod:`repro.milp.solvers.smt_dl`).

Two layers:

* behavioral — fragment gating, optimality parity against the LP-based
  backends on real subproblems under both non-overlap encodings, warm-start
  vetting, abort statuses, and infeasibility detection;
* mutation — the backend's solutions feed the same independent audit chain
  (:func:`repro.check.certificate.check_certificate`) as every other
  backend, so a systematically corrupted SMT solution must be rejected.
  Six mutant classes cover the failure modes specific to a case-split
  search: a flipped relative-position literal, an off-by-one coordinate, a
  dropped non-overlap pair, a stale (lying) dual bound, a wrong objective
  claim, and a non-integral rotation/width binary.  All mutants derive from
  a *certified* baseline, so none of the rejections is vacuous.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.check.certificate import check_certificate
from repro.core.config import FloorplanConfig
from repro.core.formulation import SubproblemBuilder
from repro.geometry.rect import Rect
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers.registry import solve
from repro.milp.solvers.smt_dl import (
    UnsupportedModelError,
    supports_model,
    unsupported_reason,
)
from repro.milp.telemetry import DEFAULT_FORMULATION, SolveContext
from repro.netlist.module import Module


def _rigid_builder(formulation: str = "bigm",
                   obstacles: list[Rect] | None = None) -> SubproblemBuilder:
    window = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
    ]
    config = FloorplanConfig(chip_width=8.0, formulation=formulation)
    return SubproblemBuilder(window, obstacles or [], 8.0, config)


# ---------------------------------------------------------------------------
# fragment gate
# ---------------------------------------------------------------------------


class TestFragmentGate:
    def test_rigid_subproblem_is_supported(self):
        assert supports_model(_rigid_builder().model)

    def test_unary_subproblem_is_supported(self):
        assert supports_model(_rigid_builder("unary").model)

    def test_flexible_subproblem_is_rejected(self):
        flex = Module.flexible_area("f", 9.0, aspect_low=0.5,
                                    aspect_high=2.0)
        rigid = Module.rigid("r", 3.0, 3.0)
        builder = SubproblemBuilder([flex, rigid], [], 8.0,
                                    FloorplanConfig(chip_width=8.0))
        assert not supports_model(builder.model)
        reason = unsupported_reason(builder.model.to_standard_form())
        assert "continuous terms" in reason

    def test_unbounded_integer_is_rejected(self):
        m = Model("t")
        from repro.milp.expr import VarKind
        x = m.add_var("x", 0.0, math.inf, VarKind.INTEGER)
        m.set_objective(x)
        reason = unsupported_reason(m.to_standard_form())
        assert "infinite bounds" in reason

    def test_growth_rewarding_continuous_objective_is_rejected(self):
        m = Model("t")
        x = m.add_continuous("x", 0.0, 5.0)
        m.set_objective(-x)  # internal minimize of -x rewards growth
        reason = unsupported_reason(m.to_standard_form())
        assert "rewards growth" in reason

    def test_maximize_negative_is_internally_monotone(self):
        """max -x internally minimizes +x: inside the fragment."""
        m = Model("t")
        x = m.add_continuous("x", 0.0, 5.0)
        from repro.milp.model import ObjectiveSense
        m.set_objective(-x, ObjectiveSense.MAX)
        assert unsupported_reason(m.to_standard_form()) is None

    def test_out_of_fragment_model_raises(self):
        flex = Module.flexible_area("f", 9.0, aspect_low=0.5,
                                    aspect_high=2.0)
        builder = SubproblemBuilder(
            [flex, Module.rigid("r", 3.0, 3.0)], [], 8.0,
            FloorplanConfig(chip_width=8.0))
        with pytest.raises(UnsupportedModelError):
            solve(builder.model, backend="smt")


# ---------------------------------------------------------------------------
# behavior
# ---------------------------------------------------------------------------


class TestSolveBehavior:
    @pytest.mark.parametrize("formulation", ["bigm", "unary"])
    def test_optimal_parity_with_highs(self, formulation):
        builder = _rigid_builder(formulation)
        ref = solve(builder.model, backend="highs")
        got = solve(builder.model, backend="smt",
                    context=SolveContext(formulation=formulation))
        assert got.status is SolveStatus.OPTIMAL
        assert got.objective == pytest.approx(ref.objective, abs=1e-6)
        assert got.backend == "smt"
        assert got.telemetry.lp_calls == 0
        # None is the unmarked default encoding
        assert (got.telemetry.context.formulation
                or DEFAULT_FORMULATION) == formulation

    def test_obstacles_parity(self):
        obstacles = [Rect(0.0, 0.0, 2.0, 2.0), Rect(5.0, 0.0, 2.0, 1.0)]
        builder = _rigid_builder(obstacles=obstacles)
        ref = solve(builder.model, backend="highs")
        got = solve(builder.model, backend="smt")
        assert got.status is SolveStatus.OPTIMAL
        assert got.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_solution_certifies(self):
        builder = _rigid_builder()
        got = solve(builder.model, backend="smt")
        report = check_certificate(builder.model, got)
        assert report.ok, [v.detail for v in report.violations]

    def test_presolve_path_parity(self):
        builder = _rigid_builder()
        ref = solve(builder.model, backend="highs")
        got = solve(builder.model, backend="smt", presolve=True)
        assert got.status is SolveStatus.OPTIMAL
        assert got.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_warm_start_prunes(self):
        builder = _rigid_builder()
        ref = solve(builder.model, backend="highs")
        cold = solve(builder.model, backend="smt")
        warm = solve(builder.model, backend="smt", warm_start=ref.values)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert warm.telemetry.nodes <= cold.telemetry.nodes

    def test_bad_warm_start_is_vetted_not_trusted(self):
        """An infeasible claimed warm start must not become the incumbent
        (it would wrongly prune the true optimum)."""
        builder = _rigid_builder()
        ref = solve(builder.model, backend="highs")
        lies = {var: 0.0 for var in ref.values}
        got = solve(builder.model, backend="smt", warm_start=lies)
        assert got.status is SolveStatus.OPTIMAL
        assert got.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_infeasible_detection(self):
        m = Model("infeasible")
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint(x >= 2.0)
        m.set_objective(x)
        assert solve(m, backend="smt").status is SolveStatus.INFEASIBLE

    def test_node_limit_abort(self):
        builder = _rigid_builder()
        got = solve(builder.model, backend="smt", node_limit=1)
        assert got.status in (SolveStatus.LIMIT, SolveStatus.FEASIBLE)
        assert got.telemetry.nodes <= 1

    def test_bound_on_abort_is_valid(self):
        """An aborted run's dual bound must not cut off the true optimum."""
        builder = _rigid_builder()
        ref = solve(builder.model, backend="highs")
        got = solve(builder.model, backend="smt", node_limit=5)
        if math.isfinite(got.bound):
            assert got.bound <= ref.objective + 1e-6


# ---------------------------------------------------------------------------
# mutation coverage: six mutant classes, all rejected by the audits
# ---------------------------------------------------------------------------


def _mutate(solution, **changes):
    return dataclasses.replace(solution, **changes)


def _set_value(solution, name, value):
    values = dict(solution.values)
    var = next(v for v in values if v.name == name)
    values[var] = value
    return _mutate(solution, values=values)


@pytest.fixture(scope="module")
def smt_solved():
    """One certified SMT solve shared by every mutant class."""
    builder = _rigid_builder()
    solution = solve(builder.model, backend="smt")
    report = check_certificate(builder.model, solution)
    assert report.ok, [v.detail for v in report.violations]  # non-vacuity
    return builder, solution


class TestMutationCoverage:
    def test_flipped_relative_position_literal_is_rejected(self, smt_solved):
        """Flipping one non-overlap literal asserts the opposite relative
        position without moving the modules — a big-M row must break."""
        builder, solution = smt_solved
        literal = next(v.name for v in solution.values
                       if v.name.startswith(("p[", "q[")))
        flipped = 1.0 - round(solution.values[
            next(v for v in solution.values if v.name == literal)])
        mutant = _set_value(solution, literal, float(flipped))
        report = check_certificate(builder.model, mutant)
        assert not report.ok
        assert any(v.kind == "constraint" for v in report.violations)

    def test_off_by_one_coordinate_is_rejected(self, smt_solved):
        """Shifting one module a unit sideways violates either the chip
        boundary or a separation row."""
        builder, solution = smt_solved
        x_name = next(v.name for v in solution.values
                      if v.name.startswith("x["))
        var = next(v for v in solution.values if v.name == x_name)
        mutant = _set_value(solution, x_name, solution.values[var] + 1.0)
        report = check_certificate(builder.model, mutant)
        assert not report.ok

    def test_dropped_pair_is_rejected(self, smt_solved):
        """Deleting a non-overlap pair's literals leaves the solution
        incomplete — the audit flags the missing values."""
        builder, solution = smt_solved
        values = dict(solution.values)
        dropped = [v for v in values if v.name.startswith(("p[", "q["))][:2]
        assert dropped
        for var in dropped:
            del values[var]
        mutant = _mutate(solution, values=values)
        report = check_certificate(builder.model, mutant)
        assert not report.ok
        assert any(v.kind == "missing-value" for v in report.violations)

    def test_stale_bound_is_rejected(self, smt_solved):
        """A dual bound left over from a pruned subtree (above the
        incumbent, minimizing) is a lie the audit must catch."""
        builder, solution = smt_solved
        mutant = _mutate(solution, bound=solution.objective + 7.0)
        report = check_certificate(builder.model, mutant)
        assert any(v.kind == "bound" for v in report.violations)

    def test_wrong_objective_is_rejected(self, smt_solved):
        builder, solution = smt_solved
        mutant = _mutate(solution, objective=solution.objective - 3.0)
        report = check_certificate(builder.model, mutant)
        assert any(v.kind == "objective" for v in report.violations)

    def test_non_integral_width_binary_is_rejected(self, smt_solved):
        """A fractional rotation binary makes the effective width
        non-integral — integrality must trip."""
        builder, solution = smt_solved
        binary = next(v.name for v in solution.values
                      if v.name.startswith(("z[", "p[", "q[")))
        mutant = _set_value(solution, binary, 0.5)
        report = check_certificate(builder.model, mutant)
        assert any(v.kind == "integrality" for v in report.violations)
