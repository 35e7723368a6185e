"""Cross-formulation / cross-backend parity suite.

The formulation axis promises that every registered non-overlap encoding
models the *same* instance: any backend solving any encoding to OPTIMAL
must report the same objective value, and every returned solution must
survive the independent certificate audit.  This suite pins that promise
three ways:

* a deterministic grid — subproblem windows drawn from the three golden
  fixtures (rigid, flexible, apte-like), each built under every registered
  formulation and solved by every applicable backend;
* hypothesis-generated instances through the same grid;
* full-pipeline runs of the golden fixtures under each formulation,
  asserting legality, certification, and per-step formulation provenance
  in the telemetry.

Final chip areas are *not* compared across formulations or backends: the
augmentation pipeline is greedy, so two equally-optimal subproblem
solutions can steer later steps to different (equally legal) floorplans.
Parity is a per-solve property, and that is what is asserted.

Byte-level ``bigm`` parity with the committed goldens is pinned by
``test_golden_traces.py`` (which runs the default configuration); here the
serialization contract behind it is asserted directly — the config codec
omits the formulation key at its default and records it otherwise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.certificate import check_certificate
from repro.check.fuzz import backends_for
from repro.core.config import FloorplanConfig, Objective
from repro.core.floorplanner import Floorplanner
from repro.core.formulation import SubproblemBuilder
from repro.eval.report import canonicalize_telemetry, telemetry_report
from repro.geometry.rect import Rect
from repro.milp.solution import SolveStatus
from repro.milp.solvers.registry import solve
from repro.milp.telemetry import (DEFAULT_FORMULATION, FORMULATIONS,
                                  SolveContext)
from repro.netlist.mcnc import apte_like
from repro.netlist.module import Module
from repro.serialize import floorplan_to_dict
from test_golden_traces import FIXTURES

#: Cross-backend/encoding objective tolerance (matches the fuzzer's).
OBJ_TOL = 1e-5


def _solve_grid(build_window, *, time_limit: float = 30.0) -> dict:
    """Build one instance under every formulation, solve each encoding
    with every applicable backend, certify everything, and return
    ``{(formulation, backend): objective}``."""
    objectives: dict[tuple[str, str], float] = {}
    for formulation in FORMULATIONS:
        window, obstacles, chip_width, overrides = build_window()
        config = FloorplanConfig(chip_width=chip_width,
                                 formulation=formulation, **overrides)
        builder = SubproblemBuilder(window, obstacles, chip_width, config)
        for backend in backends_for(builder.model):
            solution = solve(builder.model, backend=backend,
                             context=SolveContext(formulation=formulation),
                             time_limit=time_limit)
            key = (formulation, backend)
            assert solution.status is SolveStatus.OPTIMAL, \
                f"{key}: {solution.status} {solution.message}"
            report = check_certificate(builder.model, solution)
            assert report.ok, (key, [v.detail for v in report.violations])
            objectives[key] = solution.objective
    spread = max(objectives.values()) - min(objectives.values())
    scale = max(1.0, max(abs(v) for v in objectives.values()))
    assert spread <= OBJ_TOL * scale, objectives
    return objectives


# ---------------------------------------------------------------------------
# deterministic grid: windows drawn from the golden fixtures
# ---------------------------------------------------------------------------

def _rigid_window():
    return ([Module.rigid("a", 4.0, 3.0), Module.rigid("b", 2.0, 5.0),
             Module.rigid("c", 3.0, 3.0)], [], 8.0, {})


def _flexible_window():
    return ([Module.rigid("r1", 4.0, 2.0),
             Module.flexible_area("f1", 9.0, aspect_low=0.5,
                                  aspect_high=2.0)], [], 8.0, {})


def _apte_window():
    modules = apte_like().modules[:3]
    chip_width = max(max(m.width, m.height) for m in modules) * 2.0
    return (list(modules), [], chip_width, {})


def _obstacle_window():
    return ([Module.rigid("a", 3.0, 2.0), Module.rigid("b", 2.0, 2.0)],
            [Rect(0.0, 0.0, 2.0, 2.0), Rect(5.0, 0.0, 2.0, 1.0)], 8.0, {})


def _perimeter_window():
    return ([Module.rigid("a", 4.0, 3.0), Module.rigid("b", 2.0, 5.0)],
            [], 8.0, {"objective": Objective.PERIMETER})


_WINDOWS = {
    "rigid": _rigid_window,
    "flexible": _flexible_window,
    "apte": _apte_window,
    "obstacles": _obstacle_window,
    "perimeter": _perimeter_window,
}


class TestSubproblemGrid:
    @pytest.mark.parametrize("name", sorted(_WINDOWS))
    def test_formulation_backend_grid(self, name):
        objectives = _solve_grid(_WINDOWS[name])
        # every registered formulation actually participated
        assert {f for f, _b in objectives} == set(FORMULATIONS)
        # and more than one backend did (the grid is a real cross-check)
        assert len({b for _f, b in objectives}) >= 2

    def test_smt_participates_on_rigid_windows(self):
        """The LP-free backend must be part of the rigid grid — its absence
        would quietly reduce the cross-check to LP-family consensus."""
        objectives = _solve_grid(_WINDOWS["rigid"])
        assert any(b == "smt" for _f, b in objectives)


# ---------------------------------------------------------------------------
# hypothesis-generated instances through the same grid
# ---------------------------------------------------------------------------

@st.composite
def _window_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    modules = []
    for k in range(n):
        w = float(draw(st.integers(min_value=1, max_value=4)))
        h = float(draw(st.integers(min_value=1, max_value=4)))
        rotatable = draw(st.booleans())
        modules.append(Module.rigid(f"m{k}", w, h, rotatable=rotatable))
    if draw(st.booleans()):
        ow = float(draw(st.integers(min_value=1, max_value=2)))
        oh = float(draw(st.integers(min_value=1, max_value=2)))
        obstacles = [Rect(0.0, 0.0, ow, oh)]
    else:
        obstacles = []
    # chip wide enough for any single module: stacking vertically is then
    # always feasible, so OPTIMAL is the only acceptable status.
    chip_width = float(draw(st.integers(min_value=5, max_value=9)))
    return modules, obstacles, chip_width, {}


class TestHypothesisGrid:
    @settings(max_examples=15, deadline=None)
    @given(case=_window_strategy())
    def test_generated_instances_agree(self, case):
        _solve_grid(lambda: case, time_limit=20.0)


# ---------------------------------------------------------------------------
# full pipeline under each formulation
# ---------------------------------------------------------------------------

class TestPipeline:
    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_fixtures_run_legal_and_certified(self, fixture, formulation):
        netlist, config = FIXTURES[fixture]()
        config.formulation = formulation
        config.certify = True
        plan = Floorplanner(netlist, config).run()
        assert plan.is_legal
        assert plan.certification is not None and plan.certification.ok
        # formulation provenance is stamped on every step's telemetry
        # (None is the unmarked default encoding)
        for step in plan.trace.steps:
            assert step.telemetry is not None
            assert (step.telemetry.context.formulation
                    or DEFAULT_FORMULATION) == formulation

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("backend", ["bnb", "smt"])
    def test_rigid_pipeline_alternative_backends(self, backend, formulation):
        netlist, config = FIXTURES["rigid"]()
        config.formulation = formulation
        config.backend = backend
        config.certify = True
        plan = Floorplanner(netlist, config).run()
        assert plan.is_legal
        assert plan.certification is not None and plan.certification.ok


# ---------------------------------------------------------------------------
# serialization / canonicalization contract behind golden byte-parity
# ---------------------------------------------------------------------------

class TestGoldenContract:
    def test_default_formulation_is_omitted_from_documents(self):
        netlist, config = FIXTURES["rigid"]()
        plan = Floorplanner(netlist, config).run()
        doc = floorplan_to_dict(plan)
        assert "formulation" not in doc["config"]
        # The *raw* trace serialization must omit it too — the golden
        # documents byte-compare floorplan_to_dict, not just the
        # canonicalized telemetry report.
        for step in doc["trace"]["steps"]:
            if step["telemetry"]:
                assert "formulation" not in step["telemetry"]
        canonical = canonicalize_telemetry(telemetry_report(plan))
        for step in canonical["steps"]:
            if step["telemetry"]:
                assert "formulation" not in step["telemetry"]

    def test_unary_formulation_is_recorded_in_documents(self):
        netlist, config = FIXTURES["rigid"]()
        config.formulation = "unary"
        plan = Floorplanner(netlist, config).run()
        doc = floorplan_to_dict(plan)
        assert doc["config"]["formulation"] == "unary"
        raw = telemetry_report(plan)
        stamped = [s["telemetry"]["formulation"] for s in raw["steps"]
                   if s["telemetry"]]
        assert stamped and all(f == "unary" for f in stamped)
