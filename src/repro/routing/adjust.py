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

from repro.core.config import Linearization
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
                     strip_envelopes: bool = True,
                     linearization: Linearization = Linearization.SECANT,
                     backend: str = "highs") -> AdjustedFloorplan:
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
        linearization: height model should flexible modules resize.
        backend: LP backend for the topology re-solve.

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

    all_rects = [p.rect for p in placement_list]
    crossings = routed_crossings(channel_graph, routing)

    def gap_fn(first: Placement, second: Placement, axis: str) -> float:
        demand = _corridor_demand(first, second, axis, crossings,
                                  occluders=all_rects)
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
                             resize_flexible=False,
                             linearization=linearization,
                             backend=backend)
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


#: A used graph edge as a boundary crossing: the boundary line's coordinate,
#: the crossed segment's extent along the line, and the wires through it.
Crossing = tuple[float, float, float, float]


def routed_crossings(channel_graph: ChannelGraph,
                     routing: RoutingResult) -> dict[str, list[Crossing]]:
    """Every used edge's crossing ``(line, seg_lo, seg_hi, usage)``, grouped
    by the edge's orientation, in ``routing.edge_usage`` order.

    An ``"h"`` edge crosses a horizontal boundary (``line`` is a y, the
    segment runs along x); a ``"v"`` edge crosses a vertical one.
    """
    crossings: dict[str, list[Crossing]] = {"h": [], "v": []}
    for (u, v), usage in routing.edge_usage.items():
        if usage <= 0 or (edge := channel_graph.edge_id(u, v)) is None:
            continue
        orientation = channel_graph.orientation[edge]
        rect_u = channel_graph.cell_rect(u)
        rect_v = channel_graph.cell_rect(v)
        if orientation == "h":
            line = rect_u.y2 if rect_u.y < rect_v.y else rect_v.y2
            seg_lo = max(rect_u.x, rect_v.x)
            seg_hi = min(rect_u.x2, rect_v.x2)
        else:
            line = rect_u.x2 if rect_u.x < rect_v.x else rect_v.x2
            seg_lo = max(rect_u.y, rect_v.y)
            seg_hi = min(rect_u.y2, rect_v.y2)
        crossings[orientation].append((line, seg_lo, seg_hi, usage))
    return crossings


def peak_demand(crossings: Sequence[Crossing], line_lo: float,
                line_hi: float, lo: float, hi: float) -> float:
    """Peak summed usage on one boundary line, over the crossings whose line
    lies in ``[line_lo, line_hi]`` and whose segment overlaps ``(lo, hi)``."""
    per_line: dict[float, float] = {}
    for line, seg_lo, seg_hi, usage in crossings:
        if (line_lo - GEOM_EPS <= line <= line_hi + GEOM_EPS
                and seg_lo < hi - GEOM_EPS and seg_hi > lo + GEOM_EPS):
            key = round(line, 6)
            per_line[key] = per_line.get(key, 0.0) + usage
    return max(per_line.values(), default=0.0)


def _corridor_demand(first: Placement, second: Placement, axis: str,
                     crossings: Mapping[str, Sequence[Crossing]],
                     occluders: list[Rect] | None = None) -> float:
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
        for other in occluders:
            if other is a or other is b:
                continue
            if other.overlaps(corridor):
                return 0.0
    return peak_demand(crossings[crossing], span_lo, span_hi, lo, hi)
