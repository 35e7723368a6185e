"""The channel-position graph.

"Our global router is graph based.  It uses the channel position graph
obtained from the floorplan produced by the integer programming step and
assigns a preliminary capacity to each edge."

The graph is built over the floorplan's *channel grid*: the distinct module
edge coordinates cut the chip into cells; free cells (not covered by a
module) become nodes, and adjacent free cells are joined by edges whose
capacity is the number of routing tracks that fit through their shared
boundary.  For over-the-cell technologies every cell is free.  A ring of
routing space is added around the chip so nets can always detour around the
module block (around-the-cell routing).

The graph is held as plain lists over integer cell and edge ids: the
router searches them, and plotting, channel extraction and the adjustment
step look cells and edges up in them.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.placement import Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.routing.pins import GeneralizedPin
from repro.routing.technology import Technology

Node = tuple[int, int]


@dataclass
class ChannelGraph:
    """The channel-position graph as lists, plus its grid geometry.

    Cell ids follow sorted ``(i, j)`` order, so ids compare like the cells
    they stand for.  Edge ids follow construction order: each cell's right
    edge, then its top edge.

    Attributes:
        nodes: the ``(i, j)`` grid cell of each id.
        ids: the id of each free cell.
        rects: per cell id, the cell's rectangle.
        adjacency: per cell id, ``(neighbour id, edge id)`` pairs in the
            order the edges were added: left, bottom, right, top.
        ends: per edge id, its cell pair (smaller cell first).
        length: per edge id, the center-to-center distance.
        capacity: per edge id, the tracks through the shared boundary.
        orientation: per edge id, ``"h"`` for a horizontal boundary crossed
            by vertical wires, ``"v"`` for a vertical boundary crossed by
            horizontal wires.
        usage: per edge id, the wires routed through it by the last
            :meth:`~repro.routing.router.GlobalRouter.route` call.
        xs: sorted x cut coordinates.
        ys: sorted y cut coordinates.
        region: the routed region (chip plus routing ring).
    """

    nodes: list[Node]
    ids: dict[Node, int]
    rects: list[Rect]
    adjacency: list[list[tuple[int, int]]]
    ends: list[tuple[Node, Node]]
    length: list[float]
    capacity: list[float]
    orientation: list[str]
    usage: list[float]
    xs: list[float]
    ys: list[float]
    region: Rect

    def cell_rect(self, node: Node) -> Rect:
        """Geometry of a cell node."""
        return self.rects[self.ids[node]]

    def edge_id(self, u: Node, v: Node) -> int | None:
        """The id of the edge joining cells ``u`` and ``v``, or None when
        they are not adjacent free cells."""
        a, b = self.ids.get(u), self.ids.get(v)
        if a is None or b is None:
            return None
        for w, e in self.adjacency[a]:
            if w == b:
                return e
        return None

    def node_at(self, x: float, y: float) -> Node | None:
        """The cell containing point ``(x, y)``, or None when outside the
        region or blocked."""
        i = bisect.bisect_right(self.xs, x) - 1
        j = bisect.bisect_right(self.ys, y) - 1
        i = min(max(i, 0), len(self.xs) - 2)
        j = min(max(j, 0), len(self.ys) - 2)
        node = (i, j)
        return node if node in self.ids else None

    def main_component(self) -> frozenset[Node]:
        """The largest connected component of free cells; among equally
        large ones, the one holding the lowest cell id.

        Compacted floorplans can enclose isolated free pockets; pins snap to
        the main component so every terminal is mutually reachable.
        """
        if getattr(self, "_main_component", None) is None:
            seen = bytearray(len(self.nodes))
            biggest: list[int] = []
            for start in range(len(self.nodes)):
                if seen[start]:
                    continue
                seen[start] = 1
                component = [start]
                for u in component:  # breadth-first: the list is the queue
                    for v, _e in self.adjacency[u]:
                        if not seen[v]:
                            seen[v] = 1
                            component.append(v)
                if len(component) > len(biggest):
                    biggest = component
            self._main_component = frozenset(self.nodes[k] for k in biggest)
        return self._main_component

    def nearest_node(self, x: float, y: float, *,
                     connected_only: bool = True) -> Node:
        """The free cell nearest to ``(x, y)``: the containing cell when
        acceptable, otherwise a breadth-first search over grid neighbors.

        Args:
            connected_only: restrict the answer to the main connected
                component (so routing between returned nodes always exists).

        Raises:
            ValueError: when the graph has no nodes at all.
        """
        if not self.nodes:
            raise ValueError("channel graph has no free cells")
        allowed = self.main_component() if connected_only else None

        def acceptable(node: Node) -> bool:
            return node in self.ids and (allowed is None or node in allowed)

        direct = self.node_at(x, y)
        if direct is not None and acceptable(direct):
            return direct
        i = min(max(bisect.bisect_right(self.xs, x) - 1, 0), len(self.xs) - 2)
        j = min(max(bisect.bisect_right(self.ys, y) - 1, 0), len(self.ys) - 2)
        seen = {(i, j)}
        queue: deque[Node] = deque([(i, j)])
        while queue:
            ci, cj = queue.popleft()
            if acceptable((ci, cj)):
                return (ci, cj)
            for ni, nj in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1), (ci, cj - 1)):
                if 0 <= ni < len(self.xs) - 1 and 0 <= nj < len(self.ys) - 1 \
                        and (ni, nj) not in seen:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
        # Unreachable by construction (some free cell always exists), but
        # fall back to any node rather than crash.
        return self.nodes[0]

    def pin_node(self, pin: GeneralizedPin) -> Node:
        """The routing node serving a generalized pin: the free cell just
        outside the pin's module side (nearest reachable free cell when the
        channel there is fully blocked)."""
        nudge = GEOM_EPS * 10
        offsets = {"left": (-nudge, 0.0), "right": (nudge, 0.0),
                   "bottom": (0.0, -nudge), "top": (0.0, nudge)}
        dx, dy = offsets[pin.side.value]
        return self.nearest_node(pin.x + dx, pin.y + dy)

    def reset_usage(self) -> None:
        """Clear routed usage on every edge."""
        self.usage = [0.0] * len(self.ends)

    def total_overflow(self) -> float:
        """Summed usage beyond capacity over all edges."""
        return sum(max(0.0, used - capacity)
                   for used, capacity in zip(self.usage, self.capacity))


def build_channel_graph(placements: Sequence[Placement], chip: Rect,
                        technology: Technology, *,
                        ring_width: float | None = None,
                        max_cell_size: float | None = None) -> ChannelGraph:
    """Build the channel-position graph for a floorplan.

    Args:
        placements: placed modules (module rects block cells for
            around-the-cell technologies; envelope margins remain routable).
        chip: the chip rectangle from the floorplanner.
        technology: pitches and routing style.
        ring_width: width of the open routing ring around the chip; defaults
            to 8 tracks of the larger pitch (0 disables the ring).
        max_cell_size: subdivide grid intervals larger than this so channels
            have internal routing resolution (a net between two facing module
            sides then crosses at least one edge and registers channel
            usage).  Defaults to 1/24 of the larger region dimension.

    Returns:
        The :class:`ChannelGraph`.
    """
    if ring_width is None:
        ring_width = 8.0 * max(technology.pitch_h, technology.pitch_v)
    region = chip.inflated(ring_width, ring_width, ring_width, ring_width) \
        if ring_width > 0 else chip
    if max_cell_size is None:
        max_cell_size = max(region.w, region.h) / 24.0

    xs = _cuts([region.x, region.x2]
               + [c for p in placements for c in (p.rect.x, p.rect.x2)],
               region.x, region.x2)
    ys = _cuts([region.y, region.y2]
               + [c for p in placements for c in (p.rect.y, p.rect.y2)],
               region.y, region.y2)
    xs = _subdivide(xs, max_cell_size)
    ys = _subdivide(ys, max_cell_size)

    blockers = [] if not technology.needs_channel_area \
        else [p.rect for p in placements]
    blocked = _blocked_cells(blockers, xs, ys)

    nodes: list[Node] = []
    rects: list[Rect] = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if (i, j) not in blocked:
                nodes.append((i, j))
                rects.append(Rect(xs[i], ys[j], xs[i + 1] - xs[i],
                                  ys[j + 1] - ys[j]))
    ids = {node: k for k, node in enumerate(nodes)}

    # Each cell joins its right neighbour (a vertical boundary, crossed by
    # horizontal wires), then its top one (a horizontal boundary, crossed
    # by vertical wires).  The router's tie-breaks follow this edge and
    # adjacency order, and total_overflow sums in edge order.
    adjacency: list[list[tuple[int, int]]] = [[] for _ in nodes]
    ends: list[tuple[Node, Node]] = []
    length: list[float] = []
    capacity: list[float] = []
    orientation: list[str] = []
    for a, (i, j) in enumerate(nodes):
        cell = rects[a]
        for v, tracks, kind in (
                ((i + 1, j), cell.h / technology.pitch_h, "v"),
                ((i, j + 1), cell.w / technology.pitch_v, "h")):
            b = ids.get(v)
            if b is None:
                continue
            adjacency[a].append((b, len(ends)))
            adjacency[b].append((a, len(ends)))
            ends.append((nodes[a], v))
            length.append(_dist(cell.center, rects[b].center))
            capacity.append(tracks)
            orientation.append(kind)
    return ChannelGraph(nodes=nodes, ids=ids, rects=rects,
                        adjacency=adjacency, ends=ends, length=length,
                        capacity=capacity, orientation=orientation,
                        usage=[0.0] * len(ends), xs=xs, ys=ys, region=region)


def _blocked_cells(blockers: Sequence[Rect], xs: list[float],
                   ys: list[float]) -> set[Node]:
    """Grid cells whose interior some blocker overlaps.

    Each blocker is tested, through :meth:`Rect.overlaps`, only against the
    cells in its bisect index range widened by one cell on each side; cells
    beyond it end before the blocker starts (or start after it ends).
    """
    n_cols, n_rows = len(xs) - 1, len(ys) - 1
    blocked: set[Node] = set()
    for b in blockers:
        i_lo = max(bisect.bisect_right(xs, b.x) - 2, 0)
        i_hi = min(bisect.bisect_left(xs, b.x2) + 1, n_cols)
        j_lo = max(bisect.bisect_right(ys, b.y) - 2, 0)
        j_hi = min(bisect.bisect_left(ys, b.y2) + 1, n_rows)
        for i in range(i_lo, i_hi):
            for j in range(j_lo, j_hi):
                cell = Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])
                if b.overlaps(cell):
                    blocked.add((i, j))
    return blocked


def _cuts(values: Iterable[float], lo: float, hi: float,
          eps: float = GEOM_EPS) -> list[float]:
    """Sorted, deduplicated cut coordinates clipped to ``[lo, hi]``."""
    clipped = sorted(min(max(v, lo), hi) for v in values)
    cuts: list[float] = []
    for v in clipped:
        if not cuts or v - cuts[-1] > eps:
            cuts.append(v)
    if len(cuts) < 2:
        cuts = [lo, hi]
    return cuts


def _subdivide(cuts: list[float], max_size: float) -> list[float]:
    """Insert evenly spaced cuts so no interval exceeds ``max_size``."""
    if max_size <= 0:
        return cuts
    refined: list[float] = [cuts[0]]
    for a, b in zip(cuts, cuts[1:]):
        gap = b - a
        if gap > max_size:
            pieces = math.ceil(gap / max_size)
            refined.extend(a + gap * k / pieces for k in range(1, pieces))
        refined.append(b)
    return refined


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Manhattan distance between cell centers (wires are rectilinear)."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])
