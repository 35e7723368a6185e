"""Channel-width adjustment and final chip area (section 3.2, last step).

"On the final step of the algorithm widths of channels are adjusted to
accommodate results of the global routing and the final chip area is
computed."

We realize the adjustment with the paper's own section-2.5 machinery: the
routed demand through the corridor between every adjacent module pair becomes
a minimum-separation *gap* on that pair's topological relation, and the
given-topology LP recomputes the minimal legal chip.  Envelope margins count
toward the available corridor space, which is exactly why envelope-aware
floorplans grow less during adjustment (the Table-3 effect).

For over-the-cell technologies no channel area is needed and the floorplan is
returned unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.placement import Placement
from repro.core.topology import derive_relations, optimize_topology
from repro.geometry.rect import GEOM_EPS, Rect
from repro.routing.graph import ChannelGraph
from repro.routing.result import RoutingResult
from repro.routing.technology import Technology


@dataclass
class AdjustedFloorplan:
    """A floorplan after routing-space insertion.

    Attributes:
        placements: adjusted placements (keyed by module name).
        chip: the final chip rectangle including routing space.
        chip_area: final chip area (the number Table 3 reports).
        channel_demands: per-relation routed demand in tracks, keyed by
            ``(first, second, axis)``.
        gaps_added: per-relation extra separation inserted by the LP, same
            keys as ``channel_demands``.
    """

    placements: dict[str, Placement]
    chip: Rect
    chip_area: float
    channel_demands: dict[tuple[str, str, str], float]
    gaps_added: dict[tuple[str, str, str], float]

    @property
    def total_gap(self) -> float:
        """Summed inserted separation (a routing-space proxy)."""
        return sum(self.gaps_added.values())


def adjust_floorplan(placements: Mapping[str, Placement],
                     channel_graph: ChannelGraph,
                     routing: RoutingResult,
                     technology: Technology, *,
                     strip_envelopes: bool = True) -> AdjustedFloorplan:
    """Size channels to the routed demand and recompute the chip.

    Args:
        placements: the routed floorplan.
        channel_graph: the graph the routing ran on (edge usage is read from
            ``routing.edge_usage``).
        routing: the global-routing result.
        technology: pitches; over-the-cell styles skip adjustment.
        strip_envelopes: replace the *estimated* routing reservations
            (envelope margins, preliminary channels) by the *actual* routed
            demand — channels with no wires shrink away, congested ones
            widen.  This is the paper's "widths of channels are adjusted to
            accommodate results of the global routing".  With False, existing
            envelope margins stay reserved and only extra demand adds gaps.

    Returns:
        The :class:`AdjustedFloorplan`.
    """
    placement_list = list(placements.values())
    if not technology.needs_channel_area or not placement_list:
        chip = _bounding_chip(placement_list)
        return AdjustedFloorplan(placements=dict(placements), chip=chip,
                                 chip_area=chip.area, channel_demands={},
                                 gaps_added={})

    demands: dict[tuple[str, str, str], float] = {}
    gaps: dict[tuple[str, str, str], float] = {}

    occluders = Occluders([p.rect for p in placement_list])
    crossings = routed_crossings(channel_graph, routing)

    def gap_fn(first: Placement, second: Placement, axis: str) -> float:
        demand = _corridor_demand(first, second, axis, crossings,
                                  occluders=occluders)
        required = demand * (technology.pitch_v if axis == "x"
                             else technology.pitch_h)
        margin = 0.0 if strip_envelopes \
            else _margin_between(first, second, axis)
        gap = max(0.0, required - margin)
        key = (first.name, second.name, axis)
        demands[key] = demand
        gaps[key] = gap
        return gap

    if strip_envelopes:
        placement_list = [p.resized(p.rect, p.rect) for p in placement_list]
    relations = derive_relations(placement_list, gap_fn=gap_fn)
    topo = optimize_topology(placement_list, relations,
                             max_chip_width=None,
                             resize_flexible=False)
    chip = Rect(0.0, 0.0, topo.chip_width, topo.chip_height)
    return AdjustedFloorplan(
        placements={p.name: p for p in topo.placements},
        chip=chip, chip_area=chip.area,
        channel_demands=demands, gaps_added=gaps)


def _bounding_chip(placements: list[Placement]) -> Rect:
    if not placements:
        return Rect(0.0, 0.0, 0.0, 0.0)
    width = max(p.envelope.x2 for p in placements)
    height = max(p.envelope.y2 for p in placements)
    return Rect(0.0, 0.0, width, height)


def _margin_between(first: Placement, second: Placement, axis: str) -> float:
    """Routing space already reserved between the pair: the gap between their
    module rects minus the gap between their envelopes (i.e. the two facing
    envelope margins, plus any existing slack)."""
    if axis == "x":
        return max(0.0, second.rect.x - first.rect.x2) \
            - max(0.0, second.envelope.x - first.envelope.x2)
    return max(0.0, second.rect.y - first.rect.y2) \
        - max(0.0, second.envelope.y - first.envelope.y2)


@dataclass(frozen=True)
class Crossings:
    """The used graph edges that cross boundaries of one orientation, as
    arrays in ``routing.edge_usage`` order.

    Attributes:
        line: each crossed boundary line's coordinate.
        seg_lo: where the crossed segment starts along its line.
        seg_hi: where it ends.
        usage: the wires through the edge.
        group: per crossing, the index of its ``round(line, 6)`` among
            the distinct rounded lines; :func:`peak_demand` sums usage
            per group.
    """

    line: np.ndarray
    seg_lo: np.ndarray
    seg_hi: np.ndarray
    usage: np.ndarray
    group: np.ndarray


def routed_crossings(channel_graph: ChannelGraph,
                     routing: RoutingResult) -> dict[str, Crossings]:
    """Every used edge's crossing, grouped by the edge's orientation.

    An ``"h"`` edge joins a cell to the one above it and crosses their
    horizontal boundary (``line`` is a y, the segment runs along x); a
    ``"v"`` edge joins horizontal neighbours and crosses a vertical one.
    The coordinates come from the cut arrays, and a cell ends at
    ``x + (x_next - x)``, as :meth:`ChannelGraph.cell_rect` computes it.
    A pair of cells that is no edge of ``channel_graph`` is skipped: the
    graph joins every two free cells that share a side, and no others.
    """
    ids = channel_graph.ids
    used = [((*u, *v), usage) for (u, v), usage in routing.edge_usage.items()
            if usage > 0 and u in ids and v in ids
            and abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1]
    cells = np.array([c for c, _ in used], dtype=np.intp).reshape(-1, 4)
    usage = np.array([w for _, w in used], dtype=float)
    i = np.minimum(cells[:, 0], cells[:, 2])  # the left (or shared) column
    j = np.minimum(cells[:, 1], cells[:, 3])  # the lower (or shared) row
    up = cells[:, 0] == cells[:, 2]
    xs = np.array(channel_graph.xs, dtype=float)
    ys = np.array(channel_graph.ys, dtype=float)
    x_end, y_end = xs[:-1] + (xs[1:] - xs[:-1]), ys[:-1] + (ys[1:] - ys[:-1])
    return {"h": _crossings(y_end, xs, x_end, j[up], i[up], usage[up]),
            "v": _crossings(x_end, ys, y_end, i[~up], j[~up], usage[~up])}


def _crossings(line_at: np.ndarray, starts: np.ndarray, ends: np.ndarray,
               line: np.ndarray, segment: np.ndarray,
               usage: np.ndarray) -> Crossings:
    """The crossings on grid lines ``line`` (indexes into ``line_at``)
    over grid intervals ``segment`` (from ``starts`` to ``ends``)."""
    index: dict[float, int] = {}
    group_at = np.array([index.setdefault(round(v, 6), len(index))
                         for v in line_at.tolist()], dtype=np.intp)
    return Crossings(line=line_at[line], seg_lo=starts[segment],
                     seg_hi=ends[segment], usage=usage,
                     group=group_at[line])


def peak_demand(crossings: Crossings, line_lo: float, line_hi: float,
                lo: float, hi: float) -> float:
    """Peak summed usage on one boundary line, over the crossings whose line
    lies in ``[line_lo, line_hi]`` and whose segment overlaps ``(lo, hi)``;
    lines with the same ``round(line, 6)`` count as one."""
    inside = ((line_lo - GEOM_EPS <= crossings.line)
              & (crossings.line <= line_hi + GEOM_EPS)
              & (crossings.seg_lo < hi - GEOM_EPS)
              & (crossings.seg_hi > lo + GEOM_EPS))
    if not inside.any():
        return 0.0
    return float(np.bincount(crossings.group[inside],
                             weights=crossings.usage[inside]).max())


class Occluders:
    """Module rectangles as arrays, for the corridor test of
    :func:`_corridor_demand`."""

    def __init__(self, rects: Sequence[Rect]) -> None:
        self.rects = list(rects)
        self.x, self.x2, self.y, self.y2 = (
            np.array([getattr(r, side) for r in self.rects], dtype=float)
            for side in ("x", "x2", "y", "y2"))

    def overlap(self, corridor: Rect, a: Rect, b: Rect) -> bool:
        """Whether a rectangle other than ``a`` and ``b`` (by identity)
        overlaps ``corridor``, as :meth:`Rect.overlaps` tests it."""
        hit = ((self.x < corridor.x2 - GEOM_EPS)
               & (corridor.x < self.x2 - GEOM_EPS)
               & (self.y < corridor.y2 - GEOM_EPS)
               & (corridor.y < self.y2 - GEOM_EPS))
        return any(self.rects[k] is not a and self.rects[k] is not b
                   for k in np.flatnonzero(hit).tolist())


def _corridor_demand(first: Placement, second: Placement, axis: str,
                     crossings: Mapping[str, Crossings],
                     occluders: Occluders | None = None) -> float:
    """Peak number of wires running along the corridor between two modules.

    For an x-relation (``first`` left of ``second``) the corridor is the
    vertical channel between their facing edges over their shared y-span;
    wires *along* it are vertical, i.e. they cross the grid's horizontal
    boundaries inside the corridor.  The demand is the maximum, over those
    boundary lines, of the summed usage crossing inside the corridor.

    A pair whose corridor contains another module is not directly adjacent
    — its separation follows transitively from the adjacent pairs — so its
    demand is 0.
    """
    a, b = first.rect, second.rect
    if axis == "x":
        lo, hi = a.x2, b.x
        span_lo, span_hi = max(a.y, b.y), min(a.y2, b.y2)
        crossing = "h"  # vertical wires cross horizontal boundaries
    else:
        lo, hi = a.y2, b.y
        span_lo, span_hi = max(a.x, b.x), min(a.x2, b.x2)
        crossing = "v"
    if span_hi - span_lo <= GEOM_EPS:
        return 0.0  # diagonal neighbors share no corridor
    if hi - lo > GEOM_EPS and occluders is not None:
        corridor = Rect(lo, span_lo, hi - lo, span_hi - span_lo) \
            if axis == "x" else Rect(span_lo, lo, span_hi - span_lo, hi - lo)
        if occluders.overlap(corridor, a, b):
            return 0.0
    return peak_demand(crossings[crossing], span_lo, span_hi, lo, hi)
