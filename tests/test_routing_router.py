"""Unit tests for the global router."""

import pytest

from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.netlist.module import Module, PinCounts
from repro.netlist.net import Net
from repro.routing.graph import build_channel_graph
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology


def _two_module_setup():
    """Two modules with a channel between them."""
    placements = {
        "a": Placement(Module.rigid("a", 3, 3, pins=PinCounts(1, 1, 1, 1)),
                       Rect(0, 0, 3, 3)),
        "b": Placement(Module.rigid("b", 3, 3, pins=PinCounts(1, 1, 1, 1)),
                       Rect(7, 0, 3, 3)),
    }
    chip = Rect(0, 0, 10, 6)
    graph = build_channel_graph(list(placements.values()), chip,
                                Technology.around_the_cell(), ring_width=1.0)
    return placements, graph


class TestBasicRouting:
    def test_two_pin_net_routes(self):
        placements, graph = _two_module_setup()
        router = GlobalRouter(graph, mode=RouterMode.SHORTEST)
        result = router.route([Net("n", ("a", "b"))], placements)
        assert result.n_routed == 1
        assert not result.failed_nets
        assert result.total_wirelength > 0

    def test_route_edges_form_connected_tree(self):
        placements, graph = _two_module_setup()
        router = GlobalRouter(graph, mode=RouterMode.SHORTEST)
        result = router.route([Net("n", ("a", "b"))], placements)
        route = result.routes[0]
        if route.edges:
            import networkx as nx

            sub = nx.Graph(list(route.edges))
            assert nx.is_connected(sub)

    def test_edges_exist_in_graph(self):
        placements, graph = _two_module_setup()
        result = GlobalRouter(graph).route([Net("n", ("a", "b"))], placements)
        for u, v in result.routes[0].edges:
            assert graph.edge_id(u, v) is not None

    def test_usage_accounting(self):
        placements, graph = _two_module_setup()
        router = GlobalRouter(graph, mode=RouterMode.SHORTEST)
        result = router.route([Net("n", ("a", "b"))], placements)
        usage_total = sum(result.edge_usage.values())
        assert usage_total == len(result.routes[0].edges)
        graph_usage = sum(graph.usage)
        assert graph_usage == pytest.approx(usage_total)

    def test_multi_pin_net(self):
        placements = {
            name: Placement(Module.rigid(name, 2, 2), Rect(x, y, 2, 2))
            for name, (x, y) in
            {"a": (0, 0), "b": (8, 0), "c": (4, 8)}.items()
        }
        chip = Rect(0, 0, 10, 10)
        graph = build_channel_graph(list(placements.values()), chip,
                                    Technology.around_the_cell(),
                                    ring_width=1.0)
        result = GlobalRouter(graph).route([Net("n", ("a", "b", "c"))],
                                           placements)
        assert result.n_routed == 1
        assert result.routes[0].n_terminals == 3

    def test_net_with_missing_module_fails_gracefully(self):
        placements, graph = _two_module_setup()
        netlist_net = Net("ghost", ("a", "zzz"))
        result = GlobalRouter(graph).route([netlist_net], placements)
        assert result.failed_nets == ["ghost"]


class TestOrderingAndModes:
    def test_critical_nets_first(self):
        placements, graph = _two_module_setup()
        nets = [Net("cold", ("a", "b")),
                Net("hot", ("a", "b"), criticality=1.0)]
        result = GlobalRouter(graph).route(nets, placements)
        assert result.routes[0].net == "hot"

    def test_weighted_mode_reduces_peak_congestion(self):
        """Many identical nets through a bottleneck: the weighted router
        must flatten the most congested channel (the oblivious router piles
        every wire onto the same shortest path)."""
        placements = {
            "a": Placement(Module.rigid("a", 4, 8), Rect(0, 0, 4, 8)),
            "b": Placement(Module.rigid("b", 4, 8), Rect(6, 0, 4, 8)),
        }
        chip = Rect(0, 0, 10, 8)
        tech = Technology.around_the_cell(pitch_h=1.0, pitch_v=1.0)
        nets = [Net(f"n{i}", ("a", "b")) for i in range(30)]

        def peak(mode: RouterMode) -> float:
            graph = build_channel_graph(list(placements.values()), chip,
                                        tech, ring_width=2.0)
            return GlobalRouter(graph, mode=mode).route(
                nets, placements).max_edge_utilization

        assert peak(RouterMode.WEIGHTED) < peak(RouterMode.SHORTEST)

    def test_shortest_mode_ignores_congestion(self):
        placements, graph = _two_module_setup()
        nets = [Net(f"n{i}", ("a", "b")) for i in range(5)]
        result = GlobalRouter(graph, mode=RouterMode.SHORTEST).route(
            nets, placements)
        # every net takes the same shortest route
        lengths = {r.length for r in result.routes}
        assert len(lengths) == 1

    def test_max_edge_utilization_reported(self):
        placements, graph = _two_module_setup()
        nets = [Net(f"n{i}", ("a", "b")) for i in range(3)]
        result = GlobalRouter(graph).route(nets, placements)
        assert result.max_edge_utilization > 0.0

    def test_route_of_lookup(self):
        placements, graph = _two_module_setup()
        result = GlobalRouter(graph).route([Net("n", ("a", "b"))], placements)
        assert result.route_of("n") is not None
        assert result.route_of("missing") is None


class TestNetNames:
    def test_duplicate_net_names_rejected(self):
        """Routes are keyed by net name: a second net named ``n`` would
        replace the first in the result while the first's usage stays on
        the graph, so the router refuses it."""
        placements = {
            name: Placement(Module.rigid(name, 2, 2), Rect(x, y, 2, 2))
            for name, (x, y) in
            {"a": (0, 0), "b": (8, 0), "c": (4, 8)}.items()
        }
        graph = build_channel_graph(list(placements.values()),
                                    Rect(0, 0, 10, 10),
                                    Technology.around_the_cell(),
                                    ring_width=1.0)
        nets = [Net("n", ("a", "b")), Net("n", ("a", "c"))]
        with pytest.raises(ValueError, match="duplicate net name 'n'"):
            GlobalRouter(graph).route(nets, placements)
