"""Unit tests for the channel-position graph and generalized pins."""

import pytest

from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.netlist.module import Module, PinCounts, Side
from repro.routing.graph import build_channel_graph
from repro.routing.pins import generalized_pins
from repro.routing.technology import RoutingStyle, Technology


def _placement(name: str, x: float, y: float, w: float, h: float,
               pins: PinCounts | None = None) -> Placement:
    module = Module.rigid(name, w, h, pins=pins or PinCounts(1, 1, 1, 1))
    return Placement(module, Rect(x, y, w, h))


class TestTechnology:
    def test_styles(self):
        assert Technology.over_the_cell().style is RoutingStyle.OVER_THE_CELL
        assert Technology.around_the_cell().needs_channel_area
        assert not Technology.over_the_cell().needs_channel_area

    def test_bad_pitch_rejected(self):
        with pytest.raises(ValueError):
            Technology(pitch_h=0.0)


class TestGeneralizedPins:
    def test_four_pins_on_side_midpoints(self):
        p = _placement("m", 2, 4, 4, 2)
        pins = {pin.side: pin for pin in generalized_pins(p)}
        assert len(pins) == 4
        assert pins[Side.LEFT].point == (2.0, 5.0)
        assert pins[Side.RIGHT].point == (6.0, 5.0)
        assert pins[Side.BOTTOM].point == (4.0, 4.0)
        assert pins[Side.TOP].point == (4.0, 6.0)

    def test_pin_counts_rotate_with_module(self):
        module = Module.rigid("m", 4, 2, pins=PinCounts(1, 2, 3, 4))
        rotated = Placement(module, Rect(0, 0, 2, 4), rotated=True)
        pins = {pin.side: pin for pin in generalized_pins(rotated)}
        assert pins[Side.LEFT].n_pins == 4  # old top


class TestChannelGraph:
    def test_around_the_cell_blocks_modules(self):
        placements = [_placement("a", 2, 2, 4, 4)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=0.0)
        blocked = cg.node_at(4.0, 4.0)  # inside the module
        assert blocked is None
        free = cg.node_at(1.0, 1.0)
        assert free is not None

    def test_over_the_cell_everything_free(self):
        placements = [_placement("a", 2, 2, 4, 4)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.over_the_cell(), ring_width=0.0)
        assert cg.node_at(4.0, 4.0) is not None

    def test_ring_extends_region(self):
        placements = [_placement("a", 0, 0, 10, 10)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=2.0)
        assert cg.region.x == -2.0
        assert cg.region.x2 == 12.0
        # the chip is fully blocked; the ring is the only free space
        assert cg.nodes
        assert cg.node_at(-1.0, 5.0) is not None

    def test_edge_capacity_proportional_to_boundary(self):
        placements = []
        chip = Rect(0, 0, 10, 10)
        tech = Technology.around_the_cell(pitch_h=0.5, pitch_v=0.25)
        cg = build_channel_graph(placements, chip, tech, ring_width=0.0)
        # single free cell -> no edges; add a module to split the region
        placements = [_placement("a", 4, 0, 2, 5)]
        cg = build_channel_graph(placements, chip, tech, ring_width=0.0)
        assert cg.ends
        for e in range(len(cg.ends)):
            assert cg.capacity[e] > 0
            assert cg.length[e] > 0
            assert cg.orientation[e] in ("h", "v")

    def test_edges_connect_free_cells_only(self):
        placements = [_placement("a", 2, 2, 4, 4)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=0.0)
        for u, v in cg.ends:
            assert u in cg.ids and v in cg.ids

    def test_nearest_node_prefers_main_component(self):
        # A module ring enclosing a free pocket at the center
        placements = [
            _placement("bottom", 2, 2, 6, 1),
            _placement("top", 2, 7, 6, 1),
            _placement("left", 2, 3, 1, 4),
            _placement("right", 7, 3, 1, 4),
        ]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=0.0)
        pocket = cg.node_at(5.0, 5.0)
        assert pocket is not None  # the pocket is free
        assert pocket not in cg.main_component()
        node = cg.nearest_node(5.0, 5.0)
        assert node in cg.main_component()

    def test_pin_node_lands_next_to_side(self):
        placements = [_placement("a", 4, 4, 2, 2)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=0.0)
        for pin in generalized_pins(placements[0]):
            node = cg.pin_node(pin)
            cell = cg.cell_rect(node)
            # the serving cell touches or is near the module boundary
            assert cell.x <= 6.0 + 1e-6 and cell.x2 >= 4.0 - 1e-6 or \
                cell.y <= 6.0 + 1e-6 and cell.y2 >= 4.0 - 1e-6

    def test_usage_reset(self):
        placements = [_placement("a", 4, 0, 2, 5)]
        chip = Rect(0, 0, 10, 10)
        cg = build_channel_graph(placements, chip,
                                 Technology.around_the_cell(), ring_width=0.0)
        cg.usage = [5.0] * len(cg.ends)
        cg.reset_usage()
        assert cg.total_overflow() == 0.0
        assert cg.usage == [0.0] * len(cg.ends)
