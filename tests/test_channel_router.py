"""Tests for the left-edge channel router and rip-up-and-reroute."""

import pytest

from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.routing.channel_router import (
    TrackAssignment,
    WireInterval,
    channel_density,
    channel_intervals,
    left_edge,
    required_width,
    route_channel,
)
from repro.routing.channels import extract_channels
from repro.routing.graph import build_channel_graph
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology


class TestLeftEdge:
    def test_disjoint_intervals_share_one_track(self):
        intervals = [WireInterval("a", 0, 2), WireInterval("b", 2, 4),
                     WireInterval("c", 5, 7)]
        result = left_edge(intervals)
        assert result.n_tracks == 1
        assert result.validate() == []

    def test_nested_intervals_need_two_tracks(self):
        intervals = [WireInterval("outer", 0, 10), WireInterval("inner", 3, 5)]
        result = left_edge(intervals)
        assert result.n_tracks == 2

    def test_track_count_equals_density(self):
        intervals = [WireInterval("a", 0, 4), WireInterval("b", 1, 6),
                     WireInterval("c", 2, 3), WireInterval("d", 5, 9),
                     WireInterval("e", 7, 8)]
        result = left_edge(intervals)
        assert result.n_tracks == result.density == 3
        assert result.validate() == []

    def test_empty(self):
        result = left_edge([])
        assert result.n_tracks == 0
        assert result.density == 0

    def test_track_of(self):
        intervals = [WireInterval("a", 0, 4), WireInterval("b", 1, 6)]
        result = left_edge(intervals)
        assert result.track_of("a") is not None
        assert result.track_of("missing") is None
        assert result.track_of("a") != result.track_of("b")

    def test_validate_catches_bad_assignment(self):
        bad = TrackAssignment(
            tracks=[[WireInterval("a", 0, 5), WireInterval("b", 3, 8)]],
            density=2)
        assert bad.validate()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            WireInterval("a", 5, 3)


class TestDensity:
    def test_touching_endpoints_do_not_stack(self):
        intervals = [WireInterval("a", 0, 2), WireInterval("b", 2, 4)]
        assert channel_density(intervals) == 1

    def test_triple_overlap(self):
        intervals = [WireInterval("a", 0, 10), WireInterval("b", 1, 9),
                     WireInterval("c", 2, 8)]
        assert channel_density(intervals) == 3

    def test_empty(self):
        assert channel_density([]) == 0


class TestChannelBridge:
    def _routed_channel(self, n_nets: int):
        placements = {
            "a": Placement(Module.rigid("a", 4, 8), Rect(0, 0, 4, 8)),
            "b": Placement(Module.rigid("b", 4, 8), Rect(7, 0, 4, 8)),
        }
        chip = Rect(0, 0, 11, 8)
        tech = Technology.around_the_cell(pitch_h=0.5, pitch_v=0.5)
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=1.0)
        nets = [Net(f"n{i}", ("a", "b")) for i in range(n_nets)]
        routing = GlobalRouter(graph, mode=RouterMode.SHORTEST).route(
            nets, placements)
        channels = extract_channels(list(placements.values()), chip, tech)
        vertical = next(c for c in channels if c.orientation == "v"
                        and abs(c.rect.x - 4.0) < 1e-9)
        return vertical, graph, routing

    def test_crossing_nets_do_not_occupy_tracks(self):
        """Nets running straight across the channel (horizontally) are not
        channel-track occupants."""
        channel, graph, routing = self._routed_channel(3)
        intervals = channel_intervals(channel, graph, routing)
        # straight crossings have no vertical extent in the channel
        assert all(iv.hi - iv.lo > 0 for iv in intervals)

    def test_route_channel_assignment_valid(self):
        channel, graph, routing = self._routed_channel(5)
        assignment = route_channel(channel, graph, routing)
        assert assignment.validate() == []

    def test_required_width_scales_with_pitch(self):
        channel, graph, routing = self._routed_channel(5)
        w1 = required_width(channel, graph, routing, pitch=0.5)
        w2 = required_width(channel, graph, routing, pitch=1.0)
        assert w2 == pytest.approx(2 * w1)


class TestRipUpAndReroute:
    def _congested_setup(self):
        placements = {
            "a": Placement(Module.rigid("a", 4, 8), Rect(0, 0, 4, 8)),
            "b": Placement(Module.rigid("b", 4, 8), Rect(6, 0, 4, 8)),
        }
        chip = Rect(0, 0, 10, 8)
        tech = Technology.around_the_cell(pitch_h=1.0, pitch_v=1.0)
        nets = [Net(f"n{i}", ("a", "b")) for i in range(20)]
        return placements, chip, tech, nets

    def test_rip_up_reduces_overflow(self):
        placements, chip, tech, nets = self._congested_setup()

        def overflow(rounds: int) -> float:
            graph = build_channel_graph(list(placements.values()), chip,
                                        tech, ring_width=2.0)
            router = GlobalRouter(graph, mode=RouterMode.WEIGHTED)
            return router.route(nets, placements,
                                rip_up_rounds=rounds).total_overflow

        assert overflow(3) <= overflow(0)

    def test_rip_up_keeps_all_nets_routed(self):
        placements, chip, tech, nets = self._congested_setup()
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        router = GlobalRouter(graph, mode=RouterMode.WEIGHTED)
        result = router.route(nets, placements, rip_up_rounds=3)
        assert result.n_routed == len(nets)
        assert not result.failed_nets

    def test_usage_bookkeeping_consistent_after_rip_up(self):
        placements, chip, tech, nets = self._congested_setup()
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        router = GlobalRouter(graph, mode=RouterMode.WEIGHTED)
        result = router.route(nets, placements, rip_up_rounds=2)
        graph_total = sum(graph.usage)
        result_total = sum(result.edge_usage.values())
        assert graph_total == pytest.approx(result_total)

    def test_penalty_restored_after_route(self):
        placements, chip, tech, nets = self._congested_setup()
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        router = GlobalRouter(graph, mode=RouterMode.WEIGHTED,
                              congestion_penalty=4.0)
        router.route(nets, placements, rip_up_rounds=3)
        assert router.congestion_penalty == 4.0

    def test_zero_rounds_is_single_pass(self):
        placements, chip, tech, nets = self._congested_setup()
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        router = GlobalRouter(graph, mode=RouterMode.SHORTEST)
        a = router.route(nets, placements, rip_up_rounds=0)
        graph2 = build_channel_graph(list(placements.values()), chip, tech,
                                     ring_width=2.0)
        b = GlobalRouter(graph2, mode=RouterMode.SHORTEST).route(
            nets, placements)
        assert a.total_wirelength == pytest.approx(b.total_wirelength)
