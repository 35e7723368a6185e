"""Parity of the array-built routing layer with the networkx references.

The channel graph is a set of lists over integer cell and edge ids built
with NumPy, ``build_channel_graph`` and ``extract_channels`` test blockers
against cells one axis at a time, the router labels cells with SciPy's
compiled Dijkstra, each search stopped at a limit, and reads each route off
the labels, and the channel adjustment holds every used edge's boundary
crossing in arrays built from the cut coordinates.  Each must reproduce,
exactly, the implementation it replaced; those implementations live on
here as test-only references, over networkx graphs that
:func:`reference_graph` builds independently of the code under test:

* :func:`reference_graph` — the channel graph as an ``nx.Graph``, every
  cell tested against every blocker;
* :class:`ReferenceRouter` — a heap Dijkstra over that graph, popping
  ``(distance, cell)`` pairs and reading each edge's cost from its
  attribute dict, never stopped early;
* :func:`reference_crossings` — each used edge's crossing from its cells'
  rects;
* :func:`reference_corridor_demand` — the per-pair scan over every used edge
  (and :func:`reference_channel_utilization`, the same scan per channel),
  testing every other module against the corridor one by one;
* :func:`reference_channels` — channel extraction, every cell tested
  against every blocker.

Equality is exact: graphs, routes, lengths, usage, overflow, demands and
channels are compared with ``==``, so a changed tie-break or a reordered
float sum shows up.
"""

from __future__ import annotations

import heapq
import math
import random
from contextlib import contextmanager
from itertools import combinations, pairwise
from typing import Iterator, Mapping, Sequence
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.core.placement import Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.geometry.skyline import Skyline
from repro.netlist.mcnc import ami33_like
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.routing.adjust import Occluders, _corridor_demand, \
    adjust_floorplan, routed_crossings
from repro.routing.channels import Channel, channel_utilization, \
    extract_channels
from repro.routing.graph import ChannelGraph, Node, _cuts, _subdivide, \
    build_channel_graph
from repro.routing.pins import generalized_pins
from repro.routing.result import NetRoute, RoutingResult
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology

SPAN = 30.0


def canonical_edge(u: Node, v: Node) -> tuple[Node, Node]:
    return (u, v) if u <= v else (v, u)


def center_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Manhattan distance between cell centres."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# -- references ----------------------------------------------------------------------

def reference_graph(placements: Sequence[Placement], chip: Rect,
                    technology: Technology, *,
                    ring_width: float | None = None) -> nx.Graph:
    """The channel graph, every cell tested against every blocker."""
    if ring_width is None:
        ring_width = 8.0 * max(technology.pitch_h, technology.pitch_v)
    region = chip.inflated(ring_width, ring_width, ring_width, ring_width) \
        if ring_width > 0 else chip
    max_cell_size = max(region.w, region.h) / 24.0
    xs = _subdivide(_cuts([region.x, region.x2]
                          + [c for p in placements
                             for c in (p.rect.x, p.rect.x2)],
                          region.x, region.x2), max_cell_size)
    ys = _subdivide(_cuts([region.y, region.y2]
                          + [c for p in placements
                             for c in (p.rect.y, p.rect.y2)],
                          region.y, region.y2), max_cell_size)
    blockers = [] if not technology.needs_channel_area \
        else [p.rect for p in placements]
    graph = nx.Graph()
    n_cols, n_rows = len(xs) - 1, len(ys) - 1
    free = [[False] * n_rows for _ in range(n_cols)]
    for i in range(n_cols):
        for j in range(n_rows):
            cell = Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
            if not any(b.overlaps(cell) for b in blockers):
                free[i][j] = True
                graph.add_node((i, j), rect=cell, center=cell.center)
    for i in range(n_cols):
        for j in range(n_rows):
            if not free[i][j]:
                continue
            cell = graph.nodes[(i, j)]["rect"]
            if i + 1 < n_cols and free[i + 1][j]:
                other = graph.nodes[(i + 1, j)]["rect"]
                graph.add_edge((i, j), (i + 1, j),
                               length=center_distance(cell.center, other.center),
                               capacity=cell.h / technology.pitch_h,
                               usage=0.0, orientation="v")
            if j + 1 < n_rows and free[i][j + 1]:
                other = graph.nodes[(i, j + 1)]["rect"]
                graph.add_edge((i, j), (i, j + 1),
                               length=center_distance(cell.center, other.center),
                               capacity=cell.w / technology.pitch_v,
                               usage=0.0, orientation="h")
    return graph


def reference_channels(placements: Sequence[Placement], chip: Rect,
                       technology: Technology,
                       min_extent: float = GEOM_EPS) -> list[Channel]:
    """Channel extraction, every cell tested against every blocker."""
    xs = _cuts([chip.x, chip.x2]
               + [c for p in placements for c in (p.rect.x, p.rect.x2)],
               chip.x, chip.x2)
    ys = _cuts([chip.y, chip.y2]
               + [c for p in placements for c in (p.rect.y, p.rect.y2)],
               chip.y, chip.y2)
    blockers = [p.rect for p in placements]
    n_cols, n_rows = len(xs) - 1, len(ys) - 1
    free = [[True] * n_rows for _ in range(n_cols)]
    for i in range(n_cols):
        for j in range(n_rows):
            cell = Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
            if any(b.overlaps(cell) for b in blockers):
                free[i][j] = False

    channels: list[Channel] = []
    v_count = 0
    for i in range(n_cols):
        j = 0
        while j < n_rows:
            if free[i][j]:
                j0 = j
                while j < n_rows and free[i][j]:
                    j += 1
                rect = Rect(xs[i], ys[j0], xs[i + 1] - xs[i], ys[j] - ys[j0])
                if rect.w > min_extent:
                    channels.append(Channel(
                        name=f"v{v_count}", rect=rect, orientation="v",
                        capacity=rect.w / technology.pitch_v))
                    v_count += 1
            else:
                j += 1
    h_count = 0
    for j in range(n_rows):
        i = 0
        while i < n_cols:
            if free[i][j]:
                i0 = i
                while i < n_cols and free[i][j]:
                    i += 1
                rect = Rect(xs[i0], ys[j], xs[i] - xs[i0], ys[j + 1] - ys[j])
                if rect.h > min_extent:
                    channels.append(Channel(
                        name=f"h{h_count}", rect=rect, orientation="h",
                        capacity=rect.h / technology.pitch_h))
                    h_count += 1
            else:
                i += 1
    return channels


class ReferenceRouter:
    """The networkx Dijkstra router, costs read from edge attribute dicts.

    It routes over ``graph`` (a :func:`reference_graph`); only pin snapping
    goes through ``channel_graph.pin_node``.
    """

    def __init__(self, channel_graph: ChannelGraph, graph: nx.Graph,
                 mode: RouterMode, congestion_penalty: float = 4.0) -> None:
        self.channel_graph = channel_graph
        self.graph = graph
        self.mode = RouterMode(mode)
        self.congestion_penalty = congestion_penalty

    def route(self, nets: Sequence[Net], placements: Mapping[str, Placement],
              rip_up_rounds: int = 0) -> RoutingResult:
        graph = self.graph
        for _u, _v, data in graph.edges(data=True):
            data["usage"] = 0.0
        pin_nodes: dict[str, list[Node]] = {}
        for name, placement in placements.items():
            nodes = {self.channel_graph.pin_node(pin)
                     for pin in generalized_pins(placement)}
            pin_nodes[name] = sorted(nodes)
        order = sorted(nets, key=lambda n: (-n.criticality, n.degree, n.name))
        routed: dict[str, NetRoute] = {}
        failed: list[str] = []
        for net in order:
            route = self._route_net(net, pin_nodes)
            if route is None:
                failed.append(net.name)
                continue
            routed[net.name] = route
            self._commit(route, +1.0)
        nets_by_name = {n.name: n for n in order}
        base_penalty = self.congestion_penalty
        try:
            for round_index in range(rip_up_rounds):
                offenders = self._overflowing_nets(routed, nets_by_name)
                if not offenders:
                    break
                self.congestion_penalty = base_penalty * (2.0 ** (round_index + 1))
                for net in offenders:
                    old = routed.pop(net.name)
                    self._commit(old, -1.0)
                    new = self._route_net(net, pin_nodes)
                    if new is None:
                        self._commit(old, +1.0)
                        routed[net.name] = old
                        continue
                    self._commit(new, +1.0)
                    routed[net.name] = new
        finally:
            self.congestion_penalty = base_penalty
        result = RoutingResult(failed_nets=failed)
        for net in order:
            route = routed.get(net.name)
            if route is None:
                continue
            result.routes.append(route)
            result.total_wirelength += route.length
            for u, v in route.edges:
                key = canonical_edge(u, v)
                result.edge_usage[key] = result.edge_usage.get(key, 0.0) + 1.0
        result.total_overflow = sum(
            max(0.0, d["usage"] - d["capacity"])
            for _u, _v, d in graph.edges(data=True))
        result.max_edge_utilization = max(
            (d["usage"] / d["capacity"]
             for _u, _v, d in graph.edges(data=True) if d["capacity"] > 0),
            default=0.0)
        return result

    def _commit(self, route: NetRoute, delta: float) -> None:
        for u, v in route.edges:
            self.graph.edges[u, v]["usage"] += delta

    def _overflowing_nets(self, routed: Mapping[str, NetRoute],
                          nets_by_name: Mapping[str, Net]) -> list[Net]:
        graph = self.graph
        hot = {(u, v) if u <= v else (v, u)
               for u, v, d in graph.edges(data=True)
               if d["usage"] > d["capacity"] + 1e-9}
        if not hot:
            return []
        offenders = [nets_by_name[name] for name, route in routed.items()
                     if any(e in hot for e in route.edges)]
        offenders.sort(key=lambda n: (n.criticality,
                                      -routed[n.name].length, n.name))
        return offenders

    def _edge_cost(self, data: dict) -> float:
        length = data["length"]
        if self.mode is RouterMode.SHORTEST:
            return length
        capacity = max(data["capacity"], 1e-9)
        utilization = (data["usage"] + 1.0) / capacity
        penalty = self.congestion_penalty * max(0.0, utilization - 1.0)
        return length * (1.0 + penalty)

    def _route_net(self, net: Net,
                   pin_nodes: Mapping[str, list[Node]]) -> NetRoute | None:
        terminals = [pin_nodes[name] for name in net.modules
                     if name in pin_nodes]
        if len(terminals) < 2:
            return None
        tree_nodes: set[Node] = set(terminals[0])
        remaining = list(range(1, len(terminals)))
        edges: list[tuple[Node, Node]] = []
        while remaining:
            target_of: dict[Node, int] = {}
            for idx in remaining:
                for node in terminals[idx]:
                    target_of.setdefault(node, idx)
            path = self._multi_source_shortest(tree_nodes, set(target_of))
            if path is None:
                return None
            connected = target_of[path[-1]]
            remaining.remove(connected)
            for a, b in zip(path, path[1:]):
                edges.append(canonical_edge(a, b))
            tree_nodes.update(path)
            tree_nodes.update(terminals[connected])
        unique_edges = tuple(dict.fromkeys(edges))
        unique_length = sum(self.graph.edges[u, v]["length"]
                            for u, v in unique_edges)
        return NetRoute(net=net.name, edges=unique_edges,
                        length=unique_length, n_terminals=len(terminals))

    def _multi_source_shortest(self, sources: set[Node],
                               targets: set[Node]) -> list[Node] | None:
        overlap = sources & targets
        if overlap:
            return [min(overlap)]
        graph = self.graph
        dist: dict[Node, float] = {}
        prev: dict[Node, Node | None] = {}
        heap: list[tuple[float, Node]] = []
        for s in sources:
            if s in graph:
                dist[s] = 0.0
                prev[s] = None
                heapq.heappush(heap, (0.0, s))
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            if u in targets:
                path = [u]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])  # type: ignore[arg-type]
                path.reverse()
                return path
            for v, data in graph[u].items():
                nd = d + self._edge_cost(data)
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        return None


def reference_crossings(graph: nx.Graph, routing: RoutingResult,
                        crossing: str) -> list[tuple[float, float, float,
                                                     float]]:
    """Each used edge of orientation ``crossing`` as ``(line, seg_lo,
    seg_hi, usage)``, from the cells' rects, in ``edge_usage`` order."""
    crossings = []
    for (u, v), usage in routing.edge_usage.items():
        if usage <= 0 or not graph.has_edge(u, v):
            continue
        if graph.edges[u, v]["orientation"] != crossing:
            continue
        rect_u = graph.nodes[u]["rect"]
        rect_v = graph.nodes[v]["rect"]
        if crossing == "h":
            line = rect_u.y2 if rect_u.y < rect_v.y else rect_v.y2
            seg_lo = max(rect_u.x, rect_v.x)
            seg_hi = min(rect_u.x2, rect_v.x2)
        else:
            line = rect_u.x2 if rect_u.x < rect_v.x else rect_v.x2
            seg_lo = max(rect_u.y, rect_v.y)
            seg_hi = min(rect_u.y2, rect_v.y2)
        crossings.append((line, seg_lo, seg_hi, usage))
    return crossings


def _reference_scan(graph: nx.Graph, routing: RoutingResult,
                    crossing: str, line_lo: float, line_hi: float,
                    lo: float, hi: float) -> float:
    """Peak per-line usage, scanning every used edge of the graph."""
    per_line: dict[float, float] = {}
    for line, seg_lo, seg_hi, usage in reference_crossings(graph, routing,
                                                           crossing):
        if (line_lo - GEOM_EPS <= line <= line_hi + GEOM_EPS
                and seg_lo < hi - GEOM_EPS and seg_hi > lo + GEOM_EPS):
            per_line[round(line, 6)] = per_line.get(round(line, 6), 0.0) + usage
    return max(per_line.values(), default=0.0)


def reference_corridor_demand(first: Placement, second: Placement, axis: str,
                              graph: nx.Graph, routing: RoutingResult,
                              occluders: list[Rect] | None) -> float:
    """The per-pair corridor scan of the adjustment step."""
    a, b = first.rect, second.rect
    if axis == "x":
        lo, hi = a.x2, b.x
        span_lo, span_hi = max(a.y, b.y), min(a.y2, b.y2)
        crossing = "h"
    else:
        lo, hi = a.y2, b.y
        span_lo, span_hi = max(a.x, b.x), min(a.x2, b.x2)
        crossing = "v"
    if span_hi - span_lo <= GEOM_EPS:
        return 0.0
    if hi - lo > GEOM_EPS and occluders is not None:
        corridor = Rect(lo, span_lo, hi - lo, span_hi - span_lo) \
            if axis == "x" else Rect(span_lo, lo, span_hi - span_lo, hi - lo)
        for other in occluders:
            if other is a or other is b:
                continue
            if other.overlaps(corridor):
                return 0.0
    return _reference_scan(graph, routing, crossing, span_lo, span_hi, lo, hi)


def reference_channel_utilization(channels, graph: nx.Graph,
                                  routing: RoutingResult) -> dict[str, float]:
    """The per-channel scan of channel utilization."""
    result: dict[str, float] = {}
    for channel in channels:
        r = channel.rect
        if channel.orientation == "v":
            demand = _reference_scan(graph, routing, "h", r.y, r.y2, r.x, r.x2)
        else:
            demand = _reference_scan(graph, routing, "v", r.x, r.x2, r.y, r.y2)
        result[channel.name] = demand / channel.capacity \
            if channel.capacity > 0 else 0.0
    return result


# -- instances -----------------------------------------------------------------------

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


def _lattice_floorplan(seed: int, n: int, spacing: int = 6,
                       sizes: tuple[float, ...] = (2.0, 3.0, 4.0),
                       ) -> dict[str, Placement]:
    """Unit-multiple modules on a ``spacing``-spaced lattice over 24 x 24:
    with integer cuts and an integer ring, every cell is a unit square, so
    equal-length paths abound and ties decide routes."""
    rng = random.Random(seed)
    slots = rng.sample([(x, y) for x in range(0, 24, spacing)
                        for y in range(0, 24, spacing)], n)
    placements: dict[str, Placement] = {}
    for i, (x, y) in enumerate(slots):
        w, h = rng.choice(sizes), rng.choice(sizes)
        name = f"m{i}"
        placements[name] = Placement(Module.rigid(name, w, h),
                                     Rect(float(x), float(y), w, h))
    return placements


def _nets(seed: int, names: list[str], n_nets: int) -> list[Net]:
    """Random nets where every other net repeats an earlier net's modules
    (in another order), so equal-cost alternatives meet in the search."""
    rng = random.Random(seed + 1)
    nets: list[Net] = []
    for i in range(n_nets):
        if nets and i % 2 == 1:
            modules = list(rng.choice(nets).modules)
            rng.shuffle(modules)
        else:
            modules = rng.sample(names, rng.randint(2, min(4, len(names))))
        nets.append(Net(f"n{i}", tuple(modules),
                        criticality=rng.choice((0.0, 0.0, 0.5))))
    return nets


def _instance(seed: int, n_modules: int, lattice: bool
              ) -> tuple[dict[str, Placement], Rect]:
    placements = (_lattice_floorplan if lattice else _random_floorplan)(
        seed, n_modules)
    chip = Rect(0.0, 0.0, SPAN if not lattice else 24.0,
                max(max(p.rect.y2 for p in placements.values()), 24.0
                    if lattice else 0.0))
    return placements, chip


def _fine_lattice(seed: int, n: int) -> dict[str, Placement]:
    """Up to 36 modules of 1-3 units on a 4-spaced lattice."""
    return _lattice_floorplan(seed, n, spacing=4, sizes=(1.0, 2.0, 3.0))


TECHNOLOGIES = {"around": Technology.around_the_cell(),
                "over": Technology.over_the_cell()}


def _ring(technology: Technology) -> float | None:
    return None if technology.needs_channel_area else 0.0


def _graph(placements, chip, technology: Technology) -> ChannelGraph:
    return build_channel_graph(list(placements.values()), chip, technology,
                               ring_width=_ring(technology))


def _reference(placements, chip, technology: Technology) -> nx.Graph:
    return reference_graph(list(placements.values()), chip, technology,
                           ring_width=_ring(technology))


def _usage(channel_graph: ChannelGraph) -> list:
    return list(zip(channel_graph.ends, channel_graph.usage))


def _reference_usage(graph: nx.Graph) -> list:
    return [((u, v), d["usage"]) for u, v, d in graph.edges(data=True)]


def _reference_main_component(graph: nx.Graph) -> frozenset[Node]:
    return frozenset(max(nx.connected_components(graph), key=len))


def _assert_graph_matches(built: ChannelGraph, reference: nx.Graph) -> None:
    """Nodes, rects, centres, edges, neighbour order, the main component
    and the search matrix's structure all equal the reference's."""
    assert built.nodes == list(reference.nodes)
    assert built.ids == {node: k for k, node in enumerate(built.nodes)}
    assert built.rects == [d["rect"] for _n, d in
                           reference.nodes(data=True)]
    assert list(zip(built.center_x, built.center_y)) == \
        [d["rect"].center for _n, d in reference.nodes(data=True)]
    assert [(u, v, {"length": built.length[e],
                    "capacity": built.capacity[e],
                    "usage": built.usage[e],
                    "orientation": built.orientation[e]})
            for e, (u, v) in enumerate(built.ends)] == \
        list(reference.edges(data=True))
    for k, node in enumerate(built.nodes):
        assert [built.nodes[v] for v, _e in built.adjacency[k]] == \
            list(reference[node])
        for v, e in built.adjacency[k]:
            assert set(built.ends[e]) == {node, built.nodes[v]}
    assert built.main_component() == _reference_main_component(reference)
    # Row by row, the matrix holds each neighbour's id in increasing order,
    # and each edge's two slots sit at its two entries.
    edge_of = {frozenset(uv): e for e, uv in enumerate(reference.edges)}
    entry = np.full(2 * len(built.ends), -1)
    entry[built.slots] = np.arange(len(built.ends))
    assert [list(zip(built.indices[lo:hi].tolist(), entry[lo:hi].tolist()))
            for lo, hi in pairwise(built.indptr.tolist())] == \
        [sorted((built.ids[v], edge_of[frozenset((node, v))])
                for v in reference[node]) for node in built.nodes]


def _assert_routes_match(placements: dict[str, Placement], chip: Rect,
                         technology: Technology, nets: list[Net],
                         mode: RouterMode, rounds: int,
                         ring_width: float | None = None) -> RoutingResult:
    """The router and :class:`ReferenceRouter` agree on every route, sum,
    usage and failure."""
    graph = build_channel_graph(list(placements.values()), chip, technology,
                                ring_width=ring_width)
    reference = reference_graph(list(placements.values()), chip, technology,
                                ring_width=ring_width)
    result = GlobalRouter(graph, mode=mode).route(
        nets, placements, rip_up_rounds=rounds)
    expected = ReferenceRouter(graph, reference, mode).route(
        nets, placements, rip_up_rounds=rounds)
    assert result.routes == expected.routes
    assert result.total_wirelength == expected.total_wirelength
    assert list(result.edge_usage.items()) == \
        list(expected.edge_usage.items())
    assert result.total_overflow == expected.total_overflow
    assert result.max_edge_utilization == expected.max_edge_utilization
    assert result.failed_nets == expected.failed_nets
    assert _usage(graph) == _reference_usage(reference)
    assert graph.nodes == list(reference.nodes)
    return result


# -- tests ---------------------------------------------------------------------------

class TestGraphParity:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=7),
           st.booleans(), st.sampled_from(sorted(TECHNOLOGIES)))
    @settings(max_examples=25, deadline=None)
    def test_nodes_and_edges_match_reference(self, seed, n_modules, lattice,
                                             tech):
        placements, chip = _instance(seed, n_modules, lattice)
        technology = TECHNOLOGIES[tech]
        _assert_graph_matches(_graph(placements, chip, technology),
                              _reference(placements, chip, technology))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=8, max_value=20),
           st.sampled_from(["random", "lattice", "fine"]),
           st.sampled_from(sorted(TECHNOLOGIES)))
    @settings(max_examples=15, deadline=None)
    def test_larger_floorplans_match_reference(self, seed, n_modules, kind,
                                               tech):
        """Up to 20 modules: blockers touch and share cuts, and on the
        lattices module edges coincide with the subdivision cuts."""
        if kind == "random":
            placements, chip = _instance(seed, n_modules, lattice=False)
        else:
            placements = _lattice_floorplan(seed, min(n_modules, 16)) \
                if kind == "lattice" else _fine_lattice(seed, n_modules)
            chip = Rect(0.0, 0.0, 24.0, 24.0)
        technology = TECHNOLOGIES[tech]
        _assert_graph_matches(_graph(placements, chip, technology),
                              _reference(placements, chip, technology))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=7), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_main_component_matches_networkx(self, seed, n_modules, lattice):
        """Without the routing ring, modules on the chip edge can cut the
        free space apart."""
        placements, chip = _instance(seed, n_modules, lattice)
        technology = Technology.around_the_cell()
        built = build_channel_graph(list(placements.values()), chip,
                                    technology, ring_width=0.0)
        reference = reference_graph(list(placements.values()), chip,
                                    technology, ring_width=0.0)
        assert built.main_component() == _reference_main_component(reference)

    def test_main_component_tie_keeps_first(self):
        """A full-height wall splits the chip into two equal halves: the
        main component is the one holding the lowest cell id."""
        wall = Placement(Module.rigid("wall", 2, 10), Rect(4, 0, 2, 10))
        chip = Rect(0, 0, 10, 10)
        technology = Technology.around_the_cell()
        built = build_channel_graph([wall], chip, technology, ring_width=0.0)
        reference = reference_graph([wall], chip, technology, ring_width=0.0)
        left = frozenset(n for n in built.nodes if built.cell_rect(n).x < 4)
        assert len(left) * 2 == len(built.nodes)
        assert built.main_component() == left == \
            _reference_main_component(reference)


@pytest.mark.parametrize("rounds", [0, 2])
@pytest.mark.parametrize("mode", [RouterMode.SHORTEST, RouterMode.WEIGHTED])
class TestRouterParity:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=10),
           st.booleans(), st.sampled_from(sorted(TECHNOLOGIES)))
    @settings(max_examples=15, deadline=None)
    def test_routing_matches_reference(self, mode, rounds, seed, n_modules,
                                       n_nets, lattice, tech):
        placements, chip = _instance(seed, n_modules, lattice)
        technology = TECHNOLOGIES[tech]
        _assert_routes_match(placements, chip, technology,
                             _nets(seed, list(placements), n_nets), mode,
                             rounds, ring_width=_ring(technology))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=8, max_value=20),
           st.integers(min_value=20, max_value=60),
           st.sampled_from(sorted(TECHNOLOGIES)))
    @settings(max_examples=6, deadline=None)
    def test_fine_lattice_matches_reference(self, mode, rounds, seed,
                                            n_modules, n_nets, tech):
        """Unit cells everywhere and 20-60 nets over 8-20 modules: nearly
        every search meets equal-length paths and equally near targets."""
        technology = TECHNOLOGIES[tech]
        placements = _fine_lattice(seed, n_modules)
        _assert_routes_match(placements, Rect(0.0, 0.0, 24.0, 24.0),
                             technology, _nets(seed, list(placements), n_nets),
                             mode, rounds, ring_width=_ring(technology))

    def test_bottleneck_with_identical_nets(self, mode, rounds):
        """Thirty a-b nets through one channel: every net ties with the
        others, and the weighted router spreads them by penalty."""
        placements = {
            "a": Placement(Module.rigid("a", 4, 8), Rect(0, 0, 4, 8)),
            "b": Placement(Module.rigid("b", 4, 8), Rect(6, 0, 4, 8)),
        }
        chip = Rect(0, 0, 10, 8)
        tech = Technology.around_the_cell(pitch_h=1.0, pitch_v=1.0)
        nets = [Net(f"n{i}", ("a", "b")) for i in range(30)]
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        reference = reference_graph(list(placements.values()), chip, tech,
                                    ring_width=2.0)
        result = GlobalRouter(graph, mode=mode).route(
            nets, placements, rip_up_rounds=rounds)
        expected = ReferenceRouter(graph, reference, mode).route(
            nets, placements, rip_up_rounds=rounds)
        assert result.routes == expected.routes
        assert result.total_overflow == expected.total_overflow
        assert _usage(graph) == _reference_usage(reference)


@contextmanager
def _search_limits() -> Iterator[list[float]]:
    """The ``limit`` of every Dijkstra call the router makes meanwhile
    (``inf`` for a search without one)."""
    limits: list[float] = []
    dijkstra = csgraph.dijkstra

    def spy(*args, **kwargs):
        limits.append(kwargs.get("limit", math.inf))
        return dijkstra(*args, **kwargs)

    with mock.patch.object(csgraph, "dijkstra", side_effect=spy):
        yield limits


@pytest.mark.parametrize("mode", [RouterMode.SHORTEST, RouterMode.WEIGHTED])
class TestBoundedSearch:
    """Each search stops at a limit (the router's module docstring) and the
    routes still match the heap reference, which never stops early."""

    def test_wall_forces_the_unlimited_search(self, mode):
        """A full-height wall of modules between ``a`` and ``b``: their
        nearest pins are 6 apart, but every path runs around the wall
        through the routing ring, more than twice as far, so the first
        search finds no target and the second runs without a limit."""
        placements = {f"w{k}": Placement(Module.rigid(f"w{k}", 2, 6),
                                         Rect(14, 6 * k, 2, 6))
                      for k in range(5)}
        placements["a"] = Placement(Module.rigid("a", 3, 4), Rect(9, 13, 3, 4))
        placements["b"] = Placement(Module.rigid("b", 3, 4),
                                    Rect(18, 13, 3, 4))
        nets = [Net("ab", ("a", "b")), Net("ba", ("b", "a")),
                Net("aw", ("a", "w2"))]
        with _search_limits() as limits:
            result = _assert_routes_match(
                placements, Rect(0, 0, 30, 30), Technology.around_the_cell(),
                nets, mode, 0)
        assert len(result.routes) == 3
        # The nets route in name order: ab and ba take a limited search
        # and its unlimited repeat each; aw reaches the wall within its
        # limit.
        assert [limit == math.inf for limit in limits] == \
            [False, True, False, False, True]

    def test_later_connections_take_the_previous_labels(self, mode):
        """``a`` between ``b`` and ``c``, equally far from both: the first
        search from ``a`` reaches ``b`` within its limit and labels ``c``
        too, so the second search is limited by that label."""
        placements = {name: Placement(Module.rigid(name, 2, 2),
                                      Rect(x, 4, 2, 2))
                      for name, x in (("b", 2), ("a", 7), ("c", 12))}
        with _search_limits() as limits:
            _assert_routes_match(placements, Rect(0, 0, 16, 10),
                                 Technology.around_the_cell(),
                                 [Net("abc", ("a", "b", "c"))], mode, 0)
        assert len(limits) == 2
        assert 0 < limits[1] <= limits[0] < math.inf

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=3, max_value=8),
           st.integers(min_value=1, max_value=8), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_many_terminal_nets_match_reference(self, mode, seed, n_modules,
                                                n_nets, lattice):
        """Nets of three to five modules: every connection after a net's
        first is limited by the previous search's labels, or runs without
        a limit where they gave every remaining target none."""
        placements, chip = _instance(seed, n_modules, lattice)
        rng = random.Random(seed)
        names = list(placements)
        nets = [Net(f"n{i}", tuple(rng.sample(
            names, rng.randint(3, min(5, len(names))))))
            for i in range(n_nets)]
        for rounds in (0, 2):
            _assert_routes_match(placements, chip,
                                 Technology.around_the_cell(), nets, mode,
                                 rounds)


def test_ami33_like_plan_routes_as_reference():
    """A whole ami33-like plan under the benchmark's small steps (about
    2,400 cells and 123 nets), weighted, with one rip-up round."""
    technology = Technology.around_the_cell()
    netlist = ami33_like()
    plan = Floorplanner(netlist, FloorplanConfig(
        use_envelopes=True, technology=technology, seed_size=3,
        group_size=2)).run()
    placements = dict(plan.placements)
    result = _assert_routes_match(placements, plan.chip, technology,
                                  list(netlist.nets), RouterMode.WEIGHTED, 1)
    assert len(result.routes) == len(netlist.nets)


def _assert_demand_matches(placements: dict[str, Placement], chip: Rect,
                           nets: list[Net]) -> RoutingResult:
    """The crossing arrays, every corridor demand, the adjustment's demands
    and the channels' utilization equal the references'."""
    technology = Technology.around_the_cell()
    graph = _graph(placements, chip, technology)
    reference = _reference(placements, chip, technology)
    routing = GlobalRouter(graph).route(nets, placements)
    crossings = routed_crossings(graph, routing)
    for orientation, built in crossings.items():
        expected = reference_crossings(reference, routing, orientation)
        assert list(zip(built.line.tolist(), built.seg_lo.tolist(),
                        built.seg_hi.tolist(), built.usage.tolist())) \
            == expected
        # Two crossings share a group exactly when their lines round to
        # the same 6 decimals.
        group = built.group.tolist()
        for (a, line_a), (b, line_b) in combinations(
                zip(group, built.line.tolist()), 2):
            assert (a == b) == (round(line_a, 6) == round(line_b, 6))
    rects = [p.rect for p in placements.values()]
    # Every ordered pair on both axes, with and without the occluder test
    # (without it, far more pairs reach the line scan).
    for first in placements.values():
        for second in placements.values():
            if first is second:
                continue
            for axis in ("x", "y"):
                for occluders in (rects, None):
                    assert _corridor_demand(
                        first, second, axis, crossings,
                        occluders=occluders and Occluders(occluders)) \
                        == reference_corridor_demand(first, second, axis,
                                                     reference, routing,
                                                     occluders)

    adjusted = adjust_floorplan(placements, graph, routing, technology)
    assert adjusted.channel_demands == {
        (f, s, axis): reference_corridor_demand(
            placements[f], placements[s], axis, reference, routing, rects)
        for f, s, axis in adjusted.channel_demands}

    channels = extract_channels(list(placements.values()), chip, technology)
    assert channels == reference_channels(list(placements.values()), chip,
                                          technology)
    assert channel_utilization(channels, graph, routing) == \
        reference_channel_utilization(channels, reference, routing)
    return routing


class TestDemandParity:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=16), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_corridor_demand_matches_reference(self, seed, n_modules, n_nets,
                                               lattice):
        placements, chip = _instance(seed, n_modules, lattice)
        _assert_demand_matches(placements, chip,
                               _nets(seed, list(placements), n_nets))

    def test_segments_end_where_cells_do(self):
        """``c`` blocks the way up from ``a`` to ``b``, so the net runs
        along the column left of them, from -0.275 to 0.3 of the
        subdivided routing ring.  That column ends at
        ``-0.275 + (0.3 + 0.275) = 0.30000000000000004``, as its cells'
        rects do, not at the cut 0.3."""
        placements = {
            "a": Placement(Module.rigid("a", 2, 2), Rect(0.3, 1, 2, 2)),
            "b": Placement(Module.rigid("b", 2, 2), Rect(0.3, 7, 2, 2)),
            "c": Placement(Module.rigid("c", 9, 3), Rect(0.3, 3.5, 9, 3))}
        routing = _assert_demand_matches(placements, Rect(0, 0, 10, 10),
                                         [Net("ab", ("a", "b"))])
        assert any(u[0] == v[0] == 3 for u, v in routing.edge_usage)
