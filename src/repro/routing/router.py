"""The global router (section 3.2).

"It uses the shortest path algorithm to find a route between two generalized
pins.  It also uses a penalty function for utilization of a channel beyond
its preliminary capacity.  Nets with the tight timing requirements are routed
first."

Two modes, matching Series 3:

* **SHORTEST** — plain shortest paths by geometric length;
* **WEIGHTED** — length scaled by a congestion penalty that grows once a
  channel's usage approaches/exceeds its preliminary capacity, spreading
  wires away from saturated channels.

Multi-pin nets are routed as approximate Steiner trees by iterative nearest-
terminal growth: the tree starts at one module's generalized pins and
repeatedly absorbs the cheapest path to a not-yet-connected module (any of
its four pins), updating channel usage as it goes.

The search runs over the graph's integer cell and edge ids
(:class:`~repro.routing.graph.ChannelGraph`) with per-edge usage and cost
lists: a commit re-costs only the edges it touches, a penalty change
re-costs every edge once, and :meth:`GlobalRouter.route` leaves its final
usage list on the graph.  Each cost is also written into the edge's two
entries of a symmetric CSR matrix, over which SciPy's compiled Dijkstra
labels every cell with its distance from the tree.  The route is then read
off the labels by two rules that reproduce the heap search this replaced,
which popped ``(distance, id)`` pairs and relaxed with a strict ``<``:

* the target is the one with the smallest ``(label, id)``;
* walking back from it, each cell steps to the neighbour with the smallest
  ``(label, id)`` among those whose label plus the joining edge's cost
  equals the cell's own label, until the walk reaches the tree.

Every cost is positive and both searches add in IEEE double precision, so
the labels, and with them the routes, are the same to the bit.

Each search stops labelling at a ``limit`` that cannot change its answer.
A cell's label depends only on the labels of the cells it is reached
from, which are smaller, so every label within the limit is exact; a cell
beyond it keeps an infinite label and never passes the walk's equality
test.  A net's later connections are limited by the smallest label the
previous search gave a remaining target: the tree has only grown since
and the costs have not changed, so that target is no farther now.  Its
first connection guesses twice the least Manhattan distance between the
centres of a tree cell and a target cell (no path is shorter than that
distance, and no edge costs less than its length); when no target comes
within the guess, the search runs once more without a limit.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.core.placement import Placement
from repro.netlist.net import Net
from repro.routing.graph import ChannelGraph
from repro.routing.pins import generalized_pins
from repro.routing.result import NetRoute, RoutingResult


class RouterMode(str, Enum):
    """Routing cost modes of Series 3."""

    SHORTEST = "shortest"
    WEIGHTED = "weighted"


class GlobalRouter:
    """Graph-based global router over a :class:`ChannelGraph`."""

    def __init__(self, channel_graph: ChannelGraph,
                 mode: RouterMode = RouterMode.WEIGHTED,
                 congestion_penalty: float = 4.0) -> None:
        """
        Args:
            channel_graph: the routing graph (each :meth:`route` call
                overwrites its edge usage).
            mode: shortest-path or congestion-weighted costs.
            congestion_penalty: weight of the over-utilization penalty in
                WEIGHTED mode.
        """
        self.channel_graph = channel_graph
        self.mode = RouterMode(mode)
        self.congestion_penalty = congestion_penalty

    # -- public API -----------------------------------------------------------------

    def route(self, nets: Sequence[Net],
              placements: Mapping[str, Placement],
              rip_up_rounds: int = 0) -> RoutingResult:
        """Route all nets; timing-critical nets first.

        Args:
            nets: the nets to route (names must be distinct).
            placements: placements of every module the nets reference.
            rip_up_rounds: after the initial pass, repeat up to this many
                rip-up-and-reroute rounds: nets crossing over-capacity
                channels are torn out (least-critical first) and re-routed
                against the remaining usage, with a growing congestion
                penalty.  0 keeps the paper's single-pass behaviour.

        Returns:
            The :class:`~repro.routing.result.RoutingResult`.

        Raises:
            ValueError: when two nets share a name.
        """
        names: set[str] = set()
        for net in nets:
            if net.name in names:
                raise ValueError(f"duplicate net name {net.name!r}")
            names.add(net.name)
        # Imported here: csgraph is a tenth of a second that `import repro`
        # should not pay.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        channel_graph = self.channel_graph
        n_nodes, n_edges = len(channel_graph.nodes), len(channel_graph.ends)
        self._matrix = csr_matrix(
            (np.empty(2 * n_edges), channel_graph.indices,
             channel_graph.indptr), shape=(n_nodes, n_nodes))
        self._data = memoryview(self._matrix.data)
        self._slots = channel_graph.slots.tolist()
        self._dijkstra = dijkstra
        self._length = np.array(channel_graph.length, dtype=float)
        self._capacity = np.array(channel_graph.capacity, dtype=float)
        self._usage = [0.0] * n_edges
        self._penalty = self.congestion_penalty
        self._recost_all()

        pin_ids: dict[str, list[int]] = {}
        for name, placement in placements.items():
            pin_ids[name] = sorted({channel_graph.ids[channel_graph.pin_node(pin)]
                                    for pin in generalized_pins(placement)})

        # "Nets with the tight timing requirements are routed first"; among
        # equals, short (low-degree) nets first for stable behaviour.
        order = sorted(nets, key=lambda n: (-n.criticality, n.degree, n.name))
        # net name -> (route, its edge ids)
        routed: dict[str, tuple[NetRoute, tuple[int, ...]]] = {}
        failed: list[str] = []
        for net in order:
            found = self._route_net(net, pin_ids)
            if found is None:
                failed.append(net.name)
                continue
            routed[net.name] = found
            self._commit(found[1], +1.0)

        nets_by_name = {n.name: n for n in order}
        for round_index in range(rip_up_rounds):
            offenders = self._overflowing_nets(routed, nets_by_name)
            if not offenders:
                break
            # pressure congestion harder each round
            self._penalty = self.congestion_penalty * (2.0 ** (round_index + 1))
            self._recost_all()
            for net in offenders:
                old = routed.pop(net.name)
                self._commit(old[1], -1.0)
                new = self._route_net(net, pin_ids)
                if new is None:
                    self._commit(old[1], +1.0)
                    routed[net.name] = old
                    continue
                self._commit(new[1], +1.0)
                routed[net.name] = new

        channel_graph.usage = self._usage
        result = RoutingResult(failed_nets=failed)
        for net in order:
            if net.name not in routed:
                continue
            route = routed[net.name][0]
            result.routes.append(route)
            result.total_wirelength += route.length
            for key in route.edges:
                result.edge_usage[key] = result.edge_usage.get(key, 0.0) + 1.0
        result.total_overflow = channel_graph.total_overflow()
        capacity = self._capacity
        positive = capacity > 0
        result.max_edge_utilization = float(
            (np.array(self._usage)[positive] / capacity[positive]).max()) \
            if positive.any() else 0.0
        return result

    # -- usage and costs ---------------------------------------------------------------

    def _commit(self, edges: Sequence[int], delta: float) -> None:
        """Apply (or remove) a route's usage and re-cost its edges."""
        usage = self._usage
        for e in edges:
            usage[e] += delta
        self._recost(edges)

    def _recost_all(self) -> None:
        """:meth:`_recost` over every edge, as one array expression."""
        cost = self._length
        if self.mode is not RouterMode.SHORTEST:
            utilization = (np.array(self._usage) + 1.0) \
                / np.maximum(self._capacity, 1e-9)
            cost = cost * (1.0 + self._penalty
                           * np.maximum(0.0, utilization - 1.0))
        self._cost = cost.tolist()
        self._matrix.data[self.channel_graph.slots] = cost

    def _recost(self, edges: Iterable[int]) -> None:
        """Edge costs under the current mode, penalty and usage, in the
        cost list and in both of each edge's matrix entries."""
        if self.mode is RouterMode.SHORTEST:
            return
        length = self.channel_graph.length
        capacity = self.channel_graph.capacity
        usage, cost, penalty = self._usage, self._cost, self._penalty
        data, (first, second) = self._data, self._slots
        for e in edges:
            utilization = (usage[e] + 1.0) / max(capacity[e], 1e-9)
            cost[e] = data[first[e]] = data[second[e]] = \
                length[e] * (1.0 + penalty * max(0.0, utilization - 1.0))

    def _overflowing_nets(
            self, routed: Mapping[str, tuple[NetRoute, tuple[int, ...]]],
            nets_by_name: Mapping[str, Net]) -> list[Net]:
        """Nets using at least one over-capacity edge, least critical (and
        longest) first so timing-critical routes keep their paths."""
        hot = set(np.flatnonzero(
            np.array(self._usage) > self._capacity + 1e-9).tolist())
        if not hot:
            return []
        offenders = [nets_by_name[name] for name, (_route, edges)
                     in routed.items() if not hot.isdisjoint(edges)]
        offenders.sort(key=lambda n: (n.criticality,
                                      -routed[n.name][0].length, n.name))
        return offenders

    # -- search ------------------------------------------------------------------------

    def _route_net(self, net: Net, pin_ids: Mapping[str, list[int]],
                   ) -> tuple[NetRoute, tuple[int, ...]] | None:
        """Grow a Steiner-ish tree over the net's terminals; the route and
        its edge ids."""
        terminals = [pin_ids[name] for name in net.modules if name in pin_ids]
        if len(terminals) < 2:
            return None

        tree: set[int] = set(terminals[0])
        remaining = list(range(1, len(terminals)))
        edges: list[int] = []
        label = None  # the last search's labels

        while remaining:
            target_of: dict[int, int] = {}
            for idx in remaining:
                for node in terminals[idx]:
                    target_of.setdefault(node, idx)
            # The limit (module docstring): the previous search's label of
            # the nearest remaining target, or else twice the Manhattan guess.
            if label is None:
                cx = self.channel_graph.center_x
                cy = self.channel_graph.center_y
                limit = 2.0 * min(abs(cx[s] - cx[t]) + abs(cy[s] - cy[t])
                                  for s in tree for t in target_of)
            else:
                limit = min(label[t] for t in target_of)
            found = self._multi_source_shortest(tree, target_of, limit)
            if found is None:
                return None
            path, path_edges, searched = found
            if searched is not None:
                label = searched
            connected = target_of[path[-1]]
            remaining.remove(connected)
            edges.extend(path_edges)
            tree.update(path)
            tree.update(terminals[connected])

        # Deduplicate edges shared by several branch paths.
        unique = tuple(dict.fromkeys(edges))
        graph = self.channel_graph
        route = NetRoute(net=net.name,
                         edges=tuple(graph.ends[e] for e in unique),
                         length=sum(graph.length[e] for e in unique),
                         n_terminals=len(terminals))
        return route, unique

    def _multi_source_shortest(self, sources: set[int],
                               targets: Collection[int], limit: float,
                               ) -> tuple[list[int], list[int],
                                          memoryview | None] | None:
        """The cheapest path from any of ``sources`` to the nearest of
        ``targets`` (module docstring: the target and predecessor rules,
        and the ``limit``, past which the search runs again unlimited).

        Returns the path's cell ids (source ... target), its edge ids and
        the search's labels (None when a source is a target), or None when
        unreachable.  Ids compare like the cells they stand for, so ties,
        and the overlap pick, resolve as over ``(i, j)`` cells.
        """
        overlap = sources.intersection(targets)
        if overlap:
            return [min(overlap)], [], None
        indices = list(sources)
        label = memoryview(self._dijkstra(self._matrix, indices=indices,
                                          min_only=True, limit=limit))
        distance, u = min((label[t], t) for t in targets)
        if distance == math.inf and limit != math.inf:
            label = memoryview(self._dijkstra(self._matrix, indices=indices,
                                              min_only=True))
            distance, u = min((label[t], t) for t in targets)
        if distance == math.inf:
            return None
        adjacency, cost = self.channel_graph.adjacency, self._cost
        path, path_edges = [u], []
        while u not in sources:
            here = label[u]
            _, u, e = min((label[w], w, e) for w, e in adjacency[u]
                          if label[w] + cost[e] == here)
            path.append(u)
            path_edges.append(e)
        path.reverse()
        path_edges.reverse()
        return path, path_edges, label
