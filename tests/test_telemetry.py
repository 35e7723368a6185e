"""Solve telemetry: backend recording, JSON round-trip, report emission."""

from __future__ import annotations

import json
import math

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import floorplan
from repro.eval.report import telemetry_report, write_telemetry_json
from repro.milp.expr import lin_sum
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers.branch_and_bound import solve_bnb
from repro.milp.solvers.registry import solve
from repro.milp.telemetry import IncumbentEvent, SolveTelemetry
from repro.netlist.generators import random_netlist
from repro.serialize import (
    floorplan_from_dict,
    floorplan_to_dict,
    telemetry_from_dict,
    telemetry_to_dict,
)


def _knapsack() -> Model:
    m = Model("knap")
    xs = [m.add_binary(f"x{i}") for i in range(4)]
    values = [10, 7, 4, 3]
    weights = [5, 4, 3, 2]
    m.add_constraint(lin_sum(w * x for w, x in zip(weights, xs)) <= 7)
    m.set_objective(lin_sum(v * x for v, x in zip(values, xs)), "max")
    return m


class TestBackendRecording:
    def test_bnb_records_counts_and_incumbents(self):
        s = solve(_knapsack(), backend="bnb")
        t = s.telemetry
        assert t is not None
        assert t.status == "optimal"
        assert t.lp_calls >= t.nodes >= 1
        assert t.incumbents, "at least one incumbent improvement"
        # incumbent objectives are reported in the model's own (max) sense
        assert t.incumbents[-1].objective == s.objective
        assert t.gap == 0.0
        assert t.n_integer == 4

    def test_highs_records_shape_and_gap(self):
        s = solve(_knapsack(), backend="highs")
        t = s.telemetry
        assert t is not None
        assert t.backend == "highs"
        assert t.gap == 0.0
        assert t.n_variables == 4
        assert t.n_constraints == 1

    def test_bnb_timeout_reports_distinct_status(self):
        # With a zero time limit only the root relaxation and its rounding
        # heuristic run: incumbent value 10 against an LP bound of 13.5.
        s = solve_bnb(_knapsack(), time_limit=0.0)
        assert s.status is SolveStatus.TIMEOUT
        assert s.status.has_solution
        assert s.objective == 10.0
        assert s.gap() > 0.0
        assert math.isfinite(s.telemetry.gap)
        assert s.telemetry.status == "timeout"

    def test_int_tol_configurable(self):
        # a sloppy tolerance accepts the fractional root relaxation as-is
        m = Model("frac")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add_constraint(x + y <= 1.5)
        m.set_objective(x + y, "max")
        loose = solve_bnb(m, int_tol=0.6)
        assert loose.status is SolveStatus.OPTIMAL
        assert loose.n_nodes == 1  # no branching needed at tol 0.6


class TestRoundTrip:
    def test_telemetry_json_roundtrip(self):
        s = solve(_knapsack(), backend="bnb")
        data = json.loads(json.dumps(telemetry_to_dict(s.telemetry)))
        restored = telemetry_from_dict(data)
        assert restored == s.telemetry

    def test_infinite_gap_survives_json(self):
        t = SolveTelemetry(backend="bnb[highs]", status="limit",
                           gap=float("inf"),
                           incumbents=[IncumbentEvent(0.1, 5.0)])
        restored = telemetry_from_dict(
            json.loads(json.dumps(telemetry_to_dict(t))))
        assert restored.gap == float("inf")
        assert restored.incumbents == t.incumbents

    def test_floorplan_roundtrip_preserves_trace_telemetry(self):
        plan = floorplan(random_netlist(6, seed=5),
                         FloorplanConfig(subproblem_time_limit=10.0))
        data = json.loads(json.dumps(floorplan_to_dict(plan)))
        restored = floorplan_from_dict(data)
        assert restored.trace.n_steps == plan.trace.n_steps
        assert restored.trace.total_nodes == plan.trace.total_nodes
        assert restored.trace.total_lp_calls == plan.trace.total_lp_calls
        for before, after in zip(plan.trace.steps, restored.trace.steps):
            assert after.group == before.group
            assert after.telemetry == before.telemetry


class TestReport:
    def test_report_structure(self):
        plan = floorplan(random_netlist(6, seed=5),
                         FloorplanConfig(subproblem_time_limit=10.0))
        report = telemetry_report(plan)
        assert report["n_steps"] == plan.trace.n_steps
        assert len(report["steps"]) == plan.trace.n_steps
        assert report["total_nodes"] == plan.trace.total_nodes
        step = report["steps"][0]
        assert step["telemetry"]["status"] == step["status"]
        json.dumps(report)  # fully JSON-safe

    def test_write_telemetry_json(self, tmp_path):
        plan = floorplan(random_netlist(6, seed=5),
                         FloorplanConfig(subproblem_time_limit=10.0))
        out = tmp_path / "telemetry.json"
        write_telemetry_json(plan, out)
        data = json.loads(out.read_text())
        assert data["instance"] == plan.netlist.name
        assert data["steps"]


class TestCanonicalization:
    def test_two_runs_canonicalize_identically(self):
        from repro.eval.report import canonicalize_telemetry

        netlist = random_netlist(5, seed=11)
        config = FloorplanConfig(seed_size=3, group_size=2,
                                 subproblem_time_limit=10.0)
        first = canonicalize_telemetry(
            telemetry_report(floorplan(netlist, config)))
        second = canonicalize_telemetry(
            telemetry_report(floorplan(netlist, config)))
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_wall_clock_fields_zeroed(self):
        from repro.eval.report import canonicalize_telemetry

        netlist = random_netlist(5, seed=11)
        config = FloorplanConfig(seed_size=3, group_size=2,
                                 subproblem_time_limit=10.0)
        doc = telemetry_report(floorplan(netlist, config))
        canonical = canonicalize_telemetry(doc)
        assert canonical["elapsed_seconds"] == 0.0
        assert canonical["total_solve_seconds"] == 0.0
        for step in canonical["steps"]:
            assert step["solve_seconds"] == 0.0
            if step["telemetry"]:
                assert step["telemetry"]["wall_seconds"] == 0.0
                for seconds, _obj in step["telemetry"]["incumbents"]:
                    assert seconds == 0.0
        # The original document is untouched (it's a deep copy).
        assert doc["elapsed_seconds"] > 0.0

    def test_execution_provenance_stripped(self):
        """Frontier and batch counters describe how a solve ran, not what
        it computed — canonicalization must null them so batched vs
        sequential runs stay byte-comparable."""
        from repro.eval.report import canonicalize_telemetry

        netlist = random_netlist(5, seed=11)
        config = FloorplanConfig(seed_size=3, group_size=2,
                                 backend="bnb",
                                 subproblem_time_limit=10.0)
        doc = telemetry_report(floorplan(netlist, config))
        assert any(step["telemetry"] and step["telemetry"].get("frontier")
                   for step in doc["steps"])
        canonical = canonicalize_telemetry(doc)
        for step in canonical["steps"]:
            if step["telemetry"]:
                assert step["telemetry"]["frontier"] is None
                assert step["telemetry"]["batch"] is None
                assert step["telemetry"]["cache"] is None
