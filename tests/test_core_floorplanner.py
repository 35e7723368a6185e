"""Unit tests for the Floorplanner facade and the Floorplan result."""

import pytest

from repro.core.augmentation import run_augmentation
from repro.core.config import FloorplanConfig, Linearization
from repro.core.floorplanner import Floorplan, Floorplanner, floorplan
from repro.core.placement import Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist


class TestFloorplanner:
    def test_end_to_end_legal(self, tiny_netlist, fast_config):
        plan = Floorplanner(tiny_netlist, fast_config).run()
        assert plan.is_legal
        assert plan.validate() == []

    def test_convenience_function(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        assert isinstance(plan, Floorplan)
        assert plan.is_legal

    def test_metrics_consistent(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        assert plan.chip_area == pytest.approx(
            plan.chip_width * plan.chip_height)
        assert plan.module_area == pytest.approx(
            tiny_netlist.total_module_area)
        assert 0 < plan.utilization <= 1.0

    def test_placement_lookup(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        assert plan.placement("a").name == "a"
        assert len(plan.rects()) == 4
        assert len(plan.envelopes()) == 4

    def test_hpwl_positive(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        assert plan.hpwl() > 0.0

    def test_elapsed_recorded(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        assert plan.elapsed_seconds > 0.0

    def test_summary(self, tiny_netlist, fast_config):
        plan = floorplan(tiny_netlist, fast_config)
        text = plan.summary()
        assert "tiny" in text
        assert "4 modules" in text
        assert "utilization" in text

    def test_legalization_compaction_never_hurts(self, tiny_netlist):
        """The final LP never grows the raw augmentation plan."""
        config = FloorplanConfig(seed_size=2, group_size=1)
        raw = run_augmentation(tiny_netlist, config)
        plan = floorplan(tiny_netlist, config)
        assert plan.chip_area <= raw.chip_width * raw.chip_height + 1e-6

    def test_tangent_linearization_forces_legalization(self):
        """Tangent mode can produce tiny overlaps in the raw augmentation
        plan; the facade's final LP must fix them."""
        nl = random_netlist(6, seed=4, flexible_fraction=0.6)
        cfg = FloorplanConfig(seed_size=3, group_size=2,
                              linearization=Linearization.TANGENT)
        raw = run_augmentation(nl, cfg)
        plan = floorplan(nl, cfg)
        assert plan.is_legal
        assert {p.name for p in raw.placements} == set(plan.placements)

    def test_flexible_areas_preserved_end_to_end(self, mixed_netlist,
                                                 fast_config):
        plan = floorplan(mixed_netlist, fast_config)
        for m in mixed_netlist.modules:
            if m.flexible:
                assert plan.placement(m.name).rect.area == \
                    pytest.approx(m.area, rel=1e-6)

    def test_empty_netlist_plans(self):
        """Nothing to place: no steps, and a chip of zero height whose
        width is the legalization floor (the resolved width is 0, so no
        skyline over it may be built)."""
        plan = Floorplanner(Netlist([])).run()
        assert plan.placements == {}
        assert plan.trace.n_steps == 0
        assert plan.chip_width == GEOM_EPS
        assert plan.chip_height == 0.0
        assert plan.is_legal


class TestValidate:
    def _plan_with(self, placements: dict[str, Placement]) -> Floorplan:
        modules = [p.module for p in placements.values()]
        nl = Netlist(modules, [Net("n", tuple(placements)[:2])]) \
            if len(placements) >= 2 else Netlist(modules)
        return Floorplan(netlist=nl, config=FloorplanConfig(),
                         placements=placements, chip_width=10.0,
                         chip_height=10.0)

    def test_detects_overlap(self):
        a = Placement(Module.rigid("a", 4, 4), Rect(0, 0, 4, 4))
        b = Placement(Module.rigid("b", 4, 4), Rect(2, 2, 4, 4))
        plan = self._plan_with({"a": a, "b": b})
        assert any("overlap" in p for p in plan.validate())

    def test_detects_out_of_chip(self):
        a = Placement(Module.rigid("a", 4, 4), Rect(8, 8, 4, 4))
        plan = self._plan_with({"a": a})
        assert any("outside" in p for p in plan.validate())

    def test_detects_missing_module(self):
        a = Placement(Module.rigid("a", 2, 2), Rect(0, 0, 2, 2))
        b = Placement(Module.rigid("b", 2, 2), Rect(4, 0, 2, 2))
        plan = self._plan_with({"a": a, "b": b})
        plan.placements.pop("b")
        assert any("unplaced" in p for p in plan.validate())

    def test_clean_plan_validates(self):
        a = Placement(Module.rigid("a", 2, 2), Rect(0, 0, 2, 2))
        b = Placement(Module.rigid("b", 2, 2), Rect(4, 0, 2, 2))
        plan = self._plan_with({"a": a, "b": b})
        assert plan.validate() == []
