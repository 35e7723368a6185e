"""Left-edge channel routing: track assignment inside a channel.

The paper's final step sizes each channel to its routed demand.  The
classical way to turn "wires through a channel" into "tracks needed" is the
left-edge algorithm (Hashimoto-Stevens): each wire occupies an interval
along the channel; intervals are sorted by left endpoint and greedily packed
onto tracks, never putting overlapping intervals on one track.  For
dogleg-free routing with no vertical constraints the result uses exactly
*density* tracks — the maximum number of intervals crossing any point —
which is optimal.

This module provides the algorithm plus the bridge from a global-routing
result to per-channel intervals, so channel widths can be validated (and
reported) at track precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.geometry.rect import GEOM_EPS
from repro.routing.channels import Channel
from repro.routing.graph import ChannelGraph
from repro.routing.result import RoutingResult


@dataclass(frozen=True)
class WireInterval:
    """One wire's extent along a channel: ``[lo, hi]`` owned by ``net``."""

    net: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"interval of net {self.net}: hi < lo")

    def overlaps(self, other: "WireInterval", eps: float = GEOM_EPS) -> bool:
        """True when the intervals share interior extent."""
        return self.lo < other.hi - eps and other.lo < self.hi - eps


@dataclass
class TrackAssignment:
    """Result of left-edge routing one channel.

    Attributes:
        tracks: per-track interval lists (track 0 first).
        density: maximum number of intervals crossing any coordinate — the
            lower bound the assignment achieves.
    """

    tracks: list[list[WireInterval]]
    density: int

    @property
    def n_tracks(self) -> int:
        """Tracks used."""
        return len(self.tracks)

    def track_of(self, net: str) -> int | None:
        """Track index carrying (a segment of) ``net``, or None."""
        for index, track in enumerate(self.tracks):
            if any(iv.net == net for iv in track):
                return index
        return None

    def validate(self) -> list[str]:
        """Problems with the assignment (empty = valid): no two
        overlapping intervals may share a track."""
        problems = []
        for index, track in enumerate(self.tracks):
            for i in range(len(track)):
                for j in range(i + 1, len(track)):
                    if track[i].overlaps(track[j]):
                        problems.append(
                            f"track {index}: nets {track[i].net} and "
                            f"{track[j].net} overlap")
        return problems


def channel_density(intervals: Sequence[WireInterval]) -> int:
    """Maximum number of intervals crossing any single coordinate."""
    events: list[tuple[float, int]] = []
    for iv in intervals:
        events.append((iv.lo, 1))
        events.append((iv.hi, -1))
    # Close before opening at the same coordinate: touching endpoints do
    # not conflict.
    events.sort(key=lambda e: (e[0], e[1]))
    depth = best = 0
    for _coord, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def left_edge(intervals: Sequence[WireInterval]) -> TrackAssignment:
    """Assign intervals to tracks with the left-edge algorithm.

    Intervals are processed by increasing left endpoint; each goes to the
    first existing track whose last interval ends at or before its start,
    else a new track opens.  Without vertical constraints this uses exactly
    ``channel_density(intervals)`` tracks.
    """
    ordered = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    tracks: list[list[WireInterval]] = []
    track_ends: list[float] = []
    for iv in ordered:
        placed = False
        for index, end in enumerate(track_ends):
            if end <= iv.lo + GEOM_EPS:
                tracks[index].append(iv)
                track_ends[index] = iv.hi
                placed = True
                break
        if not placed:
            tracks.append([iv])
            track_ends.append(iv.hi)
    return TrackAssignment(tracks=tracks,
                           density=channel_density(ordered))


def channel_intervals(channel: Channel, channel_graph: ChannelGraph,
                      routing: RoutingResult) -> list[WireInterval]:
    """Extract each net's extent along ``channel`` from a routing result.

    A net's interval is the union span of its route edges that run *along*
    the channel inside the channel rect (vertical edges for a vertical
    channel).  Nets merely crossing the channel perpendicular to it don't
    occupy a track and are excluded.
    """
    along = "h" if channel.orientation == "v" else "v"
    # edge orientation "h" = horizontal boundary = vertical wire
    spans: dict[str, tuple[float, float]] = {}
    for route in routing.routes:
        lo = hi = None
        for u, v in route.edges:
            edge = channel_graph.edge_id(u, v)
            if edge is None or channel_graph.orientation[edge] != along:
                continue
            span = channel_graph.cell_rect(u).union_bbox(
                channel_graph.cell_rect(v))
            if not channel.rect.overlaps(span):
                continue
            if channel.orientation == "v":
                seg_lo, seg_hi = span.y, span.y2
            else:
                seg_lo, seg_hi = span.x, span.x2
            lo = seg_lo if lo is None else min(lo, seg_lo)
            hi = seg_hi if hi is None else max(hi, seg_hi)
        if lo is not None and hi is not None and hi - lo > GEOM_EPS:
            spans[route.net] = (lo, hi)
    return [WireInterval(net, lo, hi) for net, (lo, hi) in sorted(spans.items())]


def route_channel(channel: Channel, channel_graph: ChannelGraph,
                  routing: RoutingResult) -> TrackAssignment:
    """Left-edge track assignment for one channel of a routed floorplan."""
    return left_edge(channel_intervals(channel, channel_graph, routing))


def required_width(channel: Channel, channel_graph: ChannelGraph,
                   routing: RoutingResult, pitch: float) -> float:
    """Exact channel width needed for the routed wires: tracks x pitch."""
    assignment = route_channel(channel, channel_graph, routing)
    return assignment.n_tracks * pitch
