"""Tests for preplaced (fixed-position) modules."""

import pytest

from repro.core.augmentation import run_augmentation
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.core.placement import Placement
from repro.core.topology import optimize_topology
from repro.geometry.rect import Rect, any_overlap
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist


def _netlist_with_macro() -> Netlist:
    modules = [Module.rigid("macro", 8.0, 6.0, rotatable=False)]
    modules += [Module.rigid(f"m{i}", 3.0, 2.5) for i in range(5)]
    nets = [Net(f"n{i}", ("macro", f"m{i}")) for i in range(5)]
    return Netlist(modules, nets)


class TestPreplaced:
    def test_preplaced_module_stays_put(self):
        nl = _netlist_with_macro()
        macro = Placement(nl.module("macro"), Rect(0.0, 0.0, 8.0, 6.0))
        cfg = FloorplanConfig(seed_size=3, group_size=2, chip_width=14.0)
        plan = Floorplanner(nl, cfg, preplaced={"macro": macro}).run()
        assert plan.is_legal
        placed = plan.placement("macro")
        assert placed.rect == Rect(0.0, 0.0, 8.0, 6.0)

    def test_others_avoid_preplaced(self):
        nl = _netlist_with_macro()
        macro = Placement(nl.module("macro"), Rect(3.0, 0.0, 8.0, 6.0))
        cfg = FloorplanConfig(seed_size=3, group_size=2, chip_width=14.0)
        plan = Floorplanner(nl, cfg, preplaced={"macro": macro}).run()
        rects = [p.rect for p in plan.placements.values()]
        assert any_overlap(rects) is None

    def test_unknown_preplaced_rejected(self):
        nl = _netlist_with_macro()
        ghost = Placement(Module.rigid("ghost", 2, 2), Rect(0, 0, 2, 2))
        with pytest.raises(ValueError, match="not in the netlist"):
            Floorplanner(nl, FloorplanConfig(chip_width=14.0),
                         preplaced={"ghost": ghost}).run()

    def test_preplaced_outside_chip_rejected(self):
        nl = _netlist_with_macro()
        macro = Placement(nl.module("macro"), Rect(100.0, 0.0, 8.0, 6.0))
        with pytest.raises(ValueError, match="outside the chip"):
            Floorplanner(nl, FloorplanConfig(chip_width=14.0),
                         preplaced={"macro": macro}).run()

    def test_all_modules_preplaced(self):
        modules = [Module.rigid("a", 2, 2), Module.rigid("b", 2, 2)]
        nl = Netlist(modules, [Net("n", ("a", "b"))])
        preplaced = {
            "a": Placement(modules[0], Rect(0, 0, 2, 2)),
            "b": Placement(modules[1], Rect(5, 0, 2, 2)),
        }
        cfg = FloorplanConfig(chip_width=10.0)
        raw = run_augmentation(nl, cfg, preplaced=preplaced)
        assert {p.name: p.rect for p in raw.placements} == \
            {"a": Rect(0, 0, 2, 2), "b": Rect(5, 0, 2, 2)}

    def test_legalization_does_not_move_preplaced(self):
        """Compaction pulls free modules but pins the preplaced one."""
        nl = _netlist_with_macro()
        macro = Placement(nl.module("macro"), Rect(6.0, 0.0, 8.0, 6.0))
        cfg = FloorplanConfig(seed_size=3, group_size=2, chip_width=14.0)
        plan = Floorplanner(nl, cfg, preplaced={"macro": macro}).run()
        assert plan.placement("macro").rect.x == pytest.approx(6.0)
        assert plan.placement("macro").rect.y == pytest.approx(0.0)


class TestFixedNamesInTopologyLp:
    def test_fixed_module_constant(self):
        placements = [
            Placement(Module.rigid("fixed", 3, 3), Rect(10, 0, 3, 3)),
            Placement(Module.rigid("free", 3, 3), Rect(20, 0, 3, 3)),
        ]
        result = optimize_topology(placements, fixed_names={"fixed"})
        out = {p.name: p for p in result.placements}
        assert out["fixed"].rect.x == pytest.approx(10.0)
        # the free module compacts against the fixed one
        assert out["free"].rect.x == pytest.approx(13.0)

    def test_all_fixed_noop(self):
        placements = [
            Placement(Module.rigid("a", 2, 2), Rect(1, 1, 2, 2)),
            Placement(Module.rigid("b", 2, 2), Rect(6, 1, 2, 2)),
        ]
        result = optimize_topology(placements, fixed_names={"a", "b"})
        out = {p.name: p for p in result.placements}
        assert out["a"].rect == Rect(1, 1, 2, 2)
        assert out["b"].rect == Rect(6, 1, 2, 2)
