"""The complete routing flow of Series 3.

The paper provides routing area in one of two ways before global routing:

1. **Floorplan adjustment without envelopes** — the packed floorplan is
   spread apart with uniform preliminary channels
   (:func:`provide_routing_space`), the router assigns nets to them, and the
   channel widths are then adjusted to the routed demand;
2. **Floorplan adjustment with envelopes** — the floorplan was placed with
   pin-proportional envelopes (section 3.2), so channels already exist where
   pins are dense; routing and adjustment run directly.

:func:`route_and_adjust` drives either variant end to end and reports the
final chip area and routed wirelength — the two columns of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.placement import Placement
from repro.core.topology import derive_relations, optimize_topology
from repro.geometry.rect import GEOM_EPS, Rect
from repro.netlist.netlist import Netlist
from repro.routing.adjust import AdjustedFloorplan, adjust_floorplan
from repro.routing.graph import ChannelGraph, build_channel_graph
from repro.routing.result import RoutingResult
from repro.routing.router import GlobalRouter, RouterMode
from repro.routing.technology import Technology

#: Default width of a preliminary channel, in routing tracks.
DEFAULT_PRELIMINARY_TRACKS = 4.0


def provide_routing_space(placements: Mapping[str, Placement],
                          technology: Technology, *,
                          tracks: float = DEFAULT_PRELIMINARY_TRACKS
                          ) -> dict[str, Placement]:
    """Open uniform preliminary channels between adjacent modules.

    Every module pair that shares a corridor (overlapping spans on the
    perpendicular axis) gets a minimum separation of ``tracks`` routing
    pitches, less any space its envelopes already reserve.  The spread is
    computed with the section-2.5 topology LP, so relative positions are
    preserved and the chip grows minimally.
    """
    placement_list = list(placements.values())

    def gap_fn(first: Placement, second: Placement, axis: str) -> float:
        a, b = first.envelope, second.envelope
        if axis == "x":
            span = min(a.y2, b.y2) - max(a.y, b.y)
            pitch = technology.pitch_v
        else:
            span = min(a.x2, b.x2) - max(a.x, b.x)
            pitch = technology.pitch_h
        if span <= GEOM_EPS:
            return 0.0
        margin = _reserved_between(first, second, axis)
        return max(0.0, tracks * pitch - margin)

    relations = derive_relations(placement_list, gap_fn=gap_fn)
    topo = optimize_topology(placement_list, relations,
                             max_chip_width=None, resize_flexible=False)
    return {p.name: p for p in topo.placements}


def _reserved_between(first: Placement, second: Placement, axis: str) -> float:
    """Envelope-margin space the pair already reserves toward its corridor."""
    if axis == "x":
        return (first.envelope.x2 - first.rect.x2) + \
            (second.rect.x - second.envelope.x)
    return (first.envelope.y2 - first.rect.y2) + \
        (second.rect.y - second.envelope.y)


@dataclass
class RoutedFloorplan:
    """End-to-end result of the Series-3 flow.

    Attributes:
        placements: final module placements (after channel adjustment).
        chip: final chip rectangle including routing space.
        routing: the final global-routing pass on the adjusted floorplan.
        preliminary_routing: the routing pass that measured channel demand.
        adjustment: the channel-width adjustment record.
        graph: the final channel graph.
    """

    placements: dict[str, Placement]
    chip: Rect
    routing: RoutingResult
    preliminary_routing: RoutingResult
    adjustment: AdjustedFloorplan | None
    graph: ChannelGraph

    @property
    def chip_area(self) -> float:
        """Final chip area (modules + routing) — Table 3's area column."""
        return self.chip.area

    @property
    def wirelength(self) -> float:
        """Final routed wirelength — Table 3's wire-length column."""
        return self.routing.total_wirelength

    def utilization(self) -> float:
        """Module area over final chip area."""
        module_area = sum(p.rect.area for p in self.placements.values())
        return module_area / self.chip.area if self.chip.area > 0 else 0.0


def route_and_adjust(placements: Mapping[str, Placement], chip: Rect,
                     netlist: Netlist, technology: Technology, *,
                     mode: RouterMode = RouterMode.WEIGHTED,
                     preliminary_tracks: float = DEFAULT_PRELIMINARY_TRACKS,
                     use_preliminary_spread: bool | None = None,
                     congestion_penalty: float = 4.0) -> RoutedFloorplan:
    """Run the full routing flow: provide space, route, adjust, re-route.

    Args:
        placements: the floorplanner's output.
        chip: the floorplanner's chip rectangle.
        netlist: supplies the nets.
        technology: routing style and pitches.  Over-the-cell styles route in
            place with no spreading or adjustment.
        mode: shortest-path or congestion-weighted routing.
        preliminary_tracks: uniform preliminary channel width (in tracks)
            when spreading is used.
        use_preliminary_spread: force the without-envelopes variant (spread
            first).  Defaults to spreading exactly when the placements carry
            no envelope margins.
        congestion_penalty: router penalty weight in WEIGHTED mode.

    Returns:
        The :class:`RoutedFloorplan`.
    """
    current = dict(placements)

    if not technology.needs_channel_area:
        graph = build_channel_graph(list(current.values()), chip, technology,
                                    ring_width=0.0)
        router = GlobalRouter(graph, mode=mode,
                              congestion_penalty=congestion_penalty)
        routing = router.route(netlist.nets, current)
        return RoutedFloorplan(placements=current, chip=chip,
                               routing=routing, preliminary_routing=routing,
                               adjustment=None, graph=graph)

    if use_preliminary_spread is None:
        has_margins = any(p.envelope.area > p.rect.area + GEOM_EPS
                          for p in current.values())
        use_preliminary_spread = not has_margins
    if use_preliminary_spread:
        current = provide_routing_space(current, technology,
                                        tracks=preliminary_tracks)

    work_chip = _chip_of(current)
    graph = build_channel_graph(list(current.values()), work_chip, technology)
    router = GlobalRouter(graph, mode=mode,
                          congestion_penalty=congestion_penalty)
    preliminary = router.route(netlist.nets, current)

    adjustment = adjust_floorplan(current, graph, preliminary, technology)
    final_placements = adjustment.placements
    final_chip = adjustment.chip

    final_graph = build_channel_graph(list(final_placements.values()),
                                      final_chip, technology)
    final_router = GlobalRouter(final_graph, mode=mode,
                                congestion_penalty=congestion_penalty)
    final_routing = final_router.route(netlist.nets, final_placements)

    return RoutedFloorplan(placements=final_placements, chip=final_chip,
                           routing=final_routing,
                           preliminary_routing=preliminary,
                           adjustment=adjustment, graph=final_graph)


def _chip_of(placements: Mapping[str, Placement]) -> Rect:
    """Bounding chip of a placement set."""
    values = list(placements.values())
    if not values:
        return Rect(0.0, 0.0, 1.0, 1.0)
    return Rect(0.0, 0.0,
                max(p.envelope.x2 for p in values),
                max(p.envelope.y2 for p in values))
