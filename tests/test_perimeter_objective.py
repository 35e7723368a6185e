"""Tests for the PERIMETER objective (both chip dimensions free)."""

import pytest

from repro.core.augmentation import run_augmentation
from repro.core.config import FloorplanConfig, Objective
from repro.core.floorplanner import floorplan
from repro.core.formulation import SubproblemBuilder
from repro.geometry.rect import Rect
from repro.milp.solvers.registry import solve
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module


class TestPerimeterFormulation:
    def test_width_variable_created(self):
        cfg = FloorplanConfig(objective=Objective.PERIMETER)
        builder = SubproblemBuilder([Module.rigid("m", 2, 2)], [],
                                    chip_width=10.0, config=cfg)
        assert builder.width_var is not None

    def test_area_mode_has_no_width_variable(self):
        builder = SubproblemBuilder([Module.rigid("m", 2, 2)], [],
                                    chip_width=10.0, config=FloorplanConfig())
        assert builder.width_var is None

    def test_two_squares_min_perimeter(self):
        """Two 2x2 squares: any side-by-side packing gives perimeter 6
        (4+2 or 2+4); the solver must find it."""
        cfg = FloorplanConfig(objective=Objective.PERIMETER,
                              allow_rotation=False)
        modules = [Module.rigid("a", 2, 2), Module.rigid("b", 2, 2)]
        builder = SubproblemBuilder(modules, [], chip_width=20.0, config=cfg)
        solution = solve(builder.model, time_limit=20.0)
        assert solution.status.has_solution
        assert solution.objective == pytest.approx(6.0)

    def test_chip_width_acts_as_upper_bound(self):
        cfg = FloorplanConfig(objective=Objective.PERIMETER,
                              allow_rotation=False)
        modules = [Module.rigid("a", 4, 1), Module.rigid("b", 4, 1)]
        builder = SubproblemBuilder(modules, [], chip_width=5.0, config=cfg)
        solution = solve(builder.model, time_limit=20.0)
        # width capped at 5 -> modules must stack: perimeter 4 + 2 = 6
        assert solution.value(builder.width_var) <= 5.0 + 1e-6
        assert solution.objective == pytest.approx(6.0)

    def test_width_bounded_below_by_obstacles(self):
        cfg = FloorplanConfig(objective=Objective.PERIMETER,
                              allow_rotation=False)
        builder = SubproblemBuilder([Module.rigid("m", 1, 1)],
                                    [Rect(0, 0, 6, 2)], chip_width=10.0,
                                    config=cfg)
        solution = solve(builder.model, time_limit=20.0)
        assert solution.value(builder.width_var) >= 6.0 - 1e-6


class TestPerimeterEndToEnd:
    def test_legal_floorplan(self):
        nl = random_netlist(7, seed=131)
        cfg = FloorplanConfig(seed_size=4, group_size=2,
                              objective=Objective.PERIMETER)
        plan = floorplan(nl, cfg)
        assert plan.is_legal

    def test_reported_width_is_realized(self):
        """PERIMETER reports the used width, not the configured bound."""
        nl = random_netlist(6, seed=132)
        cfg = FloorplanConfig(seed_size=3, group_size=2, chip_width=500.0,
                              objective=Objective.PERIMETER)
        raw = run_augmentation(nl, cfg)
        used = max(p.envelope.x2 for p in raw.placements)
        assert raw.chip_width == pytest.approx(used)
        assert raw.chip_width < 400.0  # far below the loose bound

    def test_string_coercion(self):
        cfg = FloorplanConfig(objective="perimeter")
        assert cfg.objective is Objective.PERIMETER
