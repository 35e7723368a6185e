"""Property-based tests for the routing substrate.

Invariants over random legal floorplans and random nets:

* every routed net's edges form a connected subgraph touching a pin node of
  every terminal module;
* graph usage equals the sum of per-net route edges;
* rip-up rounds never lose nets;
* channel-graph cells exactly avoid module interiors (around-the-cell).
"""

from __future__ import annotations

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.routing.graph import build_channel_graph
from repro.routing.pins import generalized_pins
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology

SPAN = 30.0


def _random_floorplan(seed: int, n: int) -> dict[str, Placement]:
    """Legal bottom-up placements over a fixed span."""
    rng = random.Random(seed)
    sky = Skyline(0.0, SPAN)
    placements: dict[str, Placement] = {}
    for i in range(n):
        w = rng.uniform(2.0, 8.0)
        h = rng.uniform(2.0, 6.0)
        x = rng.uniform(0.0, SPAN - w)
        y = max(sky.height_at(x + t * w / 8.0) for t in range(9))
        rect = Rect(x, y, w, h)
        name = f"m{i}"
        placements[name] = Placement(Module.rigid(name, w, h), rect)
        sky.add_rect(rect)
    return placements


def _random_nets(seed: int, names: list[str], n_nets: int) -> list[Net]:
    rng = random.Random(seed + 1)
    nets = []
    for i in range(n_nets):
        degree = rng.randint(2, min(4, len(names)))
        nets.append(Net(f"n{i}", tuple(rng.sample(names, degree))))
    return nets


class TestRoutingProperties:
    @given(st.integers(min_value=0, max_value=5_000),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_routes_connect_all_terminals(self, seed, n_modules, n_nets):
        """Route edges plus module-pin stars form one connected component.

        A module's four generalized pins are electrically common (the net
        reaches the module through any of them), so connectivity is checked
        over the union of the routed edges and a star from each terminal
        module to all of its pin nodes.
        """
        placements = _random_floorplan(seed, n_modules)
        nets = _random_nets(seed, list(placements), n_nets)
        tech = Technology.around_the_cell()
        chip = Rect(0, 0, SPAN,
                    max(p.rect.y2 for p in placements.values()))
        graph = build_channel_graph(list(placements.values()), chip, tech)
        router = GlobalRouter(graph, mode=RouterMode.WEIGHTED)
        result = router.route(nets, placements)
        assert not result.failed_nets
        for route in result.routes:
            net = next(n for n in nets if n.name == route.net)
            tree = nx.Graph()
            tree.add_edges_from(route.edges)
            virtual_nodes = []
            for module_name in net.modules:
                virtual = f"module:{module_name}"
                virtual_nodes.append(virtual)
                for pin in generalized_pins(placements[module_name]):
                    tree.add_edge(virtual, graph.pin_node(pin))
            component = nx.node_connected_component(tree, virtual_nodes[0])
            assert all(v in component for v in virtual_nodes)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_usage_equals_route_edges(self, seed):
        placements = _random_floorplan(seed, 4)
        nets = _random_nets(seed, list(placements), 5)
        tech = Technology.around_the_cell()
        chip = Rect(0, 0, SPAN,
                    max(p.rect.y2 for p in placements.values()))
        graph = build_channel_graph(list(placements.values()), chip, tech)
        result = GlobalRouter(graph).route(nets, placements)
        edge_count = sum(len(r.edges) for r in result.routes)
        graph_usage = sum(graph.usage)
        assert graph_usage == edge_count
        assert sum(result.edge_usage.values()) == edge_count

    @given(st.integers(min_value=0, max_value=5_000),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_rip_up_preserves_net_count(self, seed, rounds):
        placements = _random_floorplan(seed, 5)
        nets = _random_nets(seed, list(placements), 8)
        tech = Technology.around_the_cell()
        chip = Rect(0, 0, SPAN,
                    max(p.rect.y2 for p in placements.values()))
        graph = build_channel_graph(list(placements.values()), chip, tech)
        result = GlobalRouter(graph, mode=RouterMode.WEIGHTED).route(
            nets, placements, rip_up_rounds=rounds)
        assert result.n_routed + len(result.failed_nets) == len(nets)
        assert result.n_routed == len(nets)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=15, deadline=None)
    def test_free_cells_avoid_module_interiors(self, seed):
        placements = _random_floorplan(seed, 5)
        tech = Technology.around_the_cell()
        chip = Rect(0, 0, SPAN,
                    max(p.rect.y2 for p in placements.values()))
        graph = build_channel_graph(list(placements.values()), chip, tech)
        rects = [p.rect for p in placements.values()]
        for node in graph.nodes:
            cell = graph.cell_rect(node)
            assert not any(r.overlaps(cell) for r in rects)
