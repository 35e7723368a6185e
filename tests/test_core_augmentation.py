"""Unit tests for successive augmentation (Figure 3)."""

import pytest

from repro.core.augmentation import FloorplanError, run_augmentation
from repro.core.config import FloorplanConfig, Objective, Ordering
from repro.core.topology import optimize_topology
from repro.geometry.rect import any_overlap
from repro.geometry.skyline import Skyline
from repro.milp.expr import LinExpr
from repro.netlist.generators import random_netlist
from repro.netlist.mcnc import ami33_like
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist


class TestRunAugmentation:
    def test_all_modules_placed(self, tiny_netlist, fast_config):
        result = run_augmentation(tiny_netlist, fast_config)
        assert {p.name for p in result.placements} == \
            set(tiny_netlist.module_names)

    def test_no_overlaps(self, tiny_netlist, fast_config):
        result = run_augmentation(tiny_netlist, fast_config)
        assert any_overlap([p.rect for p in result.placements]) is None

    def test_within_chip(self, tiny_netlist, fast_config):
        result = run_augmentation(tiny_netlist, fast_config)
        for p in result.placements:
            assert p.envelope.x >= -1e-6
            assert p.envelope.y >= -1e-6
            assert p.envelope.x2 <= result.chip_width + 1e-6
            assert p.envelope.y2 <= result.chip_height + 1e-6

    def test_step_count(self, tiny_netlist):
        cfg = FloorplanConfig(seed_size=2, group_size=1)
        result = run_augmentation(tiny_netlist, cfg)
        # 4 modules: seed of 2 + two single-module steps
        assert result.trace.n_steps == 3
        assert result.trace.steps[0].n_obstacles == 0

    def test_seed_larger_than_netlist(self, tiny_netlist):
        cfg = FloorplanConfig(seed_size=10, group_size=2)
        result = run_augmentation(tiny_netlist, cfg)
        assert result.trace.n_steps == 1
        assert len(result.placements) == 4

    def test_binary_count_bounded_by_window(self):
        """The point of the method: per-step binaries depend on the window
        and covering-rectangle count, not on the total module count."""
        nl = random_netlist(14, seed=9)
        cfg = FloorplanConfig(seed_size=3, group_size=2,
                              allow_rotation=False)
        result = run_augmentation(nl, cfg)
        for step in result.trace.steps:
            window = len(step.group)
            pair_binaries = window * (window - 1)
            obstacle_binaries = 2 * window * step.n_obstacles
            assert step.n_binaries == pair_binaries + obstacle_binaries

    def test_covering_rects_bounded_by_placed_modules(self):
        nl = random_netlist(12, seed=3)
        cfg = FloorplanConfig(seed_size=3, group_size=2)
        result = run_augmentation(nl, cfg)
        for step in result.trace.steps[1:]:
            assert step.n_obstacles <= max(1, step.n_placed_before)
            assert step.theorem2_holds

    def test_trace_heights_monotone(self, tiny_netlist, fast_config):
        result = run_augmentation(tiny_netlist, fast_config)
        heights = [s.chip_height_after for s in result.trace.steps]
        assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))

    def test_wirelength_objective_runs(self, tiny_netlist):
        cfg = FloorplanConfig(seed_size=2, group_size=1,
                              objective=Objective.AREA_WIRELENGTH)
        result = run_augmentation(tiny_netlist, cfg)
        assert len(result.placements) == 4
        assert any_overlap([p.rect for p in result.placements]) is None

    def test_random_ordering_runs(self, tiny_netlist):
        cfg = FloorplanConfig(seed_size=2, group_size=1,
                              ordering=Ordering.RANDOM, ordering_seed=11)
        result = run_augmentation(tiny_netlist, cfg)
        assert len(result.placements) == 4

    def test_flexible_modules_in_augmentation(self, mixed_netlist, fast_config):
        result = run_augmentation(mixed_netlist, fast_config)
        placed = {p.name: p for p in result.placements}
        assert placed["f1"].rect.area == pytest.approx(9.0, rel=1e-6)
        assert placed["f2"].rect.area == pytest.approx(6.0, rel=1e-6)
        assert any_overlap([p.rect for p in result.placements]) is None

    def test_infeasible_chip_raises(self):
        """A chip narrower than a module cannot be floorplanned."""
        modules = [Module.rigid("wide", 20.0, 1.0, rotatable=False),
                   Module.rigid("b", 1.0, 1.0)]
        nl = Netlist(modules, [Net("n", ("wide", "b"))])
        cfg = FloorplanConfig(chip_width=5.0, seed_size=2,
                              subproblem_time_limit=5.0)
        with pytest.raises(FloorplanError):
            run_augmentation(nl, cfg)

    def test_bnb_backend_end_to_end(self, tiny_netlist):
        cfg = FloorplanConfig(seed_size=2, group_size=1, backend="bnb",
                              allow_rotation=False)
        result = run_augmentation(tiny_netlist, cfg)
        assert len(result.placements) == 4
        assert any_overlap([p.rect for p in result.placements]) is None


class TestLinearWork:
    """Each step's host work depends on its new group, not on everything
    placed so far."""

    def test_ami33_like_counts(self, monkeypatch):
        """One skyline raise per placed envelope (rebuilding the skyline
        from every placed envelope twice per step took 510 on this run) and
        no net scans (scoring candidates by scanning every net took
        29,520 ``Net.connects`` calls)."""
        counts = {"add_rect": 0, "connects": 0}
        add_rect, connects = Skyline.add_rect, Net.connects

        def counted_add_rect(self, rect):
            counts["add_rect"] += 1
            return add_rect(self, rect)

        def counted_connects(self, module_name):
            counts["connects"] += 1
            return connects(self, module_name)

        monkeypatch.setattr(Skyline, "add_rect", counted_add_rect)
        monkeypatch.setattr(Net, "connects", counted_connects)
        result = run_augmentation(ami33_like(),
                                  FloorplanConfig(seed_size=3, group_size=2))
        assert len(result.placements) == 33
        assert counts == {"add_rect": 33, "connects": 0}

    def test_ami33_like_topology_expressions(self, monkeypatch):
        """The given-topology LP emits its rows as one block: building each
        relation and chip row with the LinExpr algebra took 3,504
        expressions on this plan, about six per module pair."""
        placements = run_augmentation(
            ami33_like(), FloorplanConfig(seed_size=3, group_size=2)).placements
        built = 0
        init = LinExpr.__init__

        def counted_init(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinExpr, "__init__", counted_init)
        optimize_topology(placements)
        assert built <= 4 * len(placements)
