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

The graph is built with NumPy from the cut arrays (the free-cell mask,
the cell ids, the edge endpoints, lengths and capacities) and held as plain
lists over integer cell and edge ids, plus the index arrays of the
symmetric cell-by-cell matrix the router hands to SciPy's compiled
Dijkstra.  Plotting, channel extraction and the adjustment step look cells
and edges up in the lists.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

    The router searches the symmetric cell-by-cell matrix whose entries
    ``[a, b]`` and ``[b, a]`` hold edge ``(a, b)``'s cost; ``indptr`` and
    ``indices`` are its CSR structure (column ids sorted within each row)
    and ``slots`` places each edge's two entries in its data array.

    Attributes:
        nodes: the ``(i, j)`` grid cell of each id.
        ids: the id of each free cell.
        adjacency: per cell id, ``(neighbour id, edge id)`` pairs in the
            order the edges were added: left, bottom, right, top.
        center_x: per cell id, the x of its centre.
        center_y: per cell id, the y of its centre.
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
        indptr: CSR row pointers of the cell-by-cell matrix.
        indices: CSR column ids of the cell-by-cell matrix.
        slots: per edge id, the data positions of its two matrix entries,
            as a ``(2, edges)`` array.
    """

    nodes: list[Node]
    ids: dict[Node, int]
    adjacency: list[list[tuple[int, int]]]
    center_x: list[float]
    center_y: list[float]
    ends: list[tuple[Node, Node]]
    length: list[float]
    capacity: list[float]
    orientation: list[str]
    usage: list[float]
    xs: list[float]
    ys: list[float]
    region: Rect
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    def cell_rect(self, node: Node) -> Rect:
        """Geometry of a cell node, from the cut coordinates."""
        i, j = node
        xs, ys = self.xs, self.ys
        return Rect(xs[i], ys[j], xs[i + 1] - xs[i], ys[j + 1] - ys[j])

    @property
    def rects(self) -> list[Rect]:
        """Per cell id, the cell's rectangle."""
        return [self.cell_rect(node) for node in self.nodes]

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
    free = _free_cells(blockers, xs, ys)

    # Cell ids in (i, j) order.
    cell_i, cell_j = np.nonzero(free)
    nodes: list[Node] = list(zip(cell_i.tolist(), cell_j.tolist()))
    ids = {node: k for k, node in enumerate(nodes)}

    # Each cell joins its right neighbour (a vertical boundary, crossed by
    # horizontal wires), then its top one (a horizontal boundary, crossed
    # by vertical wires): the nonzero (cell id, right 0 / top 1) pairs, in
    # row-major order, are the edges in id order.  The router's tie-breaks
    # follow this edge and adjacency order, and total_overflow sums in
    # edge order.
    cell_id = np.full(free.shape, -1)
    cell_id[cell_i, cell_j] = np.arange(len(nodes))
    joins_right = np.zeros_like(free)
    joins_right[:-1] = free[:-1] & free[1:]
    joins_top = np.zeros_like(free)
    joins_top[:, :-1] = free[:, :-1] & free[:, 1:]
    first, top = np.nonzero(np.column_stack(
        (joins_right[cell_i, cell_j], joins_top[cell_i, cell_j])))
    i_a, j_a = cell_i[first], cell_j[first]
    i_b, j_b = i_a + 1 - top, j_a + top
    second = cell_id[i_b, j_b]

    # Rect's float expressions: a centre is x + w / 2.0, a length the
    # Manhattan distance between centres (wires are rectilinear), a
    # capacity the shared side over the pitch.
    x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
    w, h = x[1:] - x[:-1], y[1:] - y[:-1]
    cx, cy = x[:-1] + w / 2.0, y[:-1] + h / 2.0
    length = np.abs(cx[i_a] - cx[i_b]) + np.abs(cy[j_a] - cy[j_b])
    capacity = np.where(top, w[i_a] / technology.pitch_v,
                        h[j_a] / technology.pitch_h)

    adjacency, indptr, indices, slots = _neighbours(len(nodes), first,
                                                    second, top)
    first_ids, second_ids = first.tolist(), second.tolist()
    return ChannelGraph(
        nodes=nodes, ids=ids, adjacency=adjacency,
        center_x=cx[cell_i].tolist(), center_y=cy[cell_j].tolist(),
        ends=[(nodes[a], nodes[b]) for a, b in zip(first_ids, second_ids)],
        length=length.tolist(), capacity=capacity.tolist(),
        orientation=["h" if t else "v" for t in top.tolist()],
        usage=[0.0] * len(first_ids), xs=xs, ys=ys, region=region,
        indptr=indptr, indices=indices, slots=slots)


def _free_cells(blockers: Sequence[Rect], xs: list[float],
                ys: list[float]) -> np.ndarray:
    """Per grid cell ``(i, j)``, whether no blocker overlaps its interior.

    This is :meth:`Rect.overlaps` factored by axis: a blocker overlaps a
    cell exactly when it overlaps the cell's column on x and its row on y.
    So every cell meets every blocker through one comparison per blocker
    and column, one per blocker and row, and a boolean matrix product.
    """
    if not blockers:
        return np.ones((len(xs) - 1, len(ys) - 1), dtype=bool)
    columns = _overlapping([b.x for b in blockers], [b.x2 for b in blockers],
                           xs)
    rows = _overlapping([b.y for b in blockers], [b.y2 for b in blockers], ys)
    return ~(columns.T @ rows)


def _overlapping(lo: list[float], hi: list[float],
                 cuts: list[float]) -> np.ndarray:
    """Per blocker span ``(lo, hi)`` and grid interval, whether they share
    interior on this axis, as :meth:`Rect.overlaps` tests it (an interval
    ends at ``cut + (next cut - cut)``, as a cell's ``x2`` does)."""
    points = np.array(cuts, dtype=float)
    start = points[:-1]
    end = start + (points[1:] - start)
    lo_col, hi_col = np.array(lo)[:, None], np.array(hi)[:, None]
    return (lo_col < end - GEOM_EPS) & (start < hi_col - GEOM_EPS)


def _neighbours(n: int, first: np.ndarray, second: np.ndarray,
                top: np.ndarray) -> tuple[list[list[tuple[int, int]]],
                                          np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's neighbours, from the edges' cell ids ``first`` (left or
    bottom) and ``second``, with ``top`` 1 for vertical neighbours.

    Returns the ``adjacency`` lists (left, bottom, right, top), and the
    ``indptr``, ``indices`` and ``slots`` of the symmetric cell-by-cell
    matrix with the same entries.
    """
    n_edges = len(first)
    rows = np.concatenate((first, second))
    columns = np.concatenate((second, first))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # A cell is the second cell of its left and bottom edges, the first of
    # its right and top ones.
    side = np.concatenate((2 + top, top))
    by_side = np.lexsort((side, rows))
    edge = np.tile(np.arange(n_edges), 2)
    pairs = list(zip(columns[by_side].tolist(), edge[by_side].tolist()))
    bounds = indptr.tolist()
    adjacency = [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    by_column = np.lexsort((columns, rows))
    position = np.empty(2 * n_edges, dtype=np.intp)
    position[by_column] = np.arange(2 * n_edges)
    return (adjacency, indptr, columns[by_column].astype(np.int32),
            position.reshape(2, n_edges))


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

