"""Channel extraction: named routing channels with capacities.

The paper's router works on "the system of channels defined by envelopes"
and finally "widths of channels are adjusted".  The routing *graph*
(:mod:`repro.routing.graph`) is the fine-grained view; this module provides
the coarse, named view: maximal free rectangles between module edges,
classified as vertical or horizontal channels, each with a track capacity —
the unit the adjustment step reasons about and the unit reports tabulate.

A free region generally belongs to one vertical and one horizontal channel
(the classic channel-decomposition ambiguity); both are reported, and
consumers pick the orientation matching the wires they care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.placement import Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.routing.adjust import peak_demand, routed_crossings
from repro.routing.graph import ChannelGraph, _cuts, _free_cells
from repro.routing.result import RoutingResult
from repro.routing.technology import Technology


@dataclass(frozen=True)
class Channel:
    """A named routing channel.

    Attributes:
        name: stable identifier (``v0``, ``v1``, ... / ``h0``, ...).
        rect: the channel's free-space rectangle.
        orientation: ``"v"`` — wires run vertically (capacity set by the
            channel's width); ``"h"`` — wires run horizontally (capacity set
            by the height).
        capacity: number of parallel tracks the channel holds.
    """

    name: str
    rect: Rect
    orientation: str
    capacity: float


def extract_channels(placements: Sequence[Placement], chip: Rect,
                     technology: Technology,
                     min_extent: float = GEOM_EPS) -> list[Channel]:
    """Extract the floorplan's vertical and horizontal channels.

    The chip is cut at every module edge; maximal runs of free cells within
    each column interval become vertical channels, maximal runs within each
    row interval become horizontal ones.  Channels narrower than
    ``min_extent`` (in the track-stacking direction) are dropped.
    """
    xs = _cuts([chip.x, chip.x2]
               + [c for p in placements for c in (p.rect.x, p.rect.x2)],
               chip.x, chip.x2)
    ys = _cuts([chip.y, chip.y2]
               + [c for p in placements for c in (p.rect.y, p.rect.y2)],
               chip.y, chip.y2)
    free = _free_cells([p.rect for p in placements], xs, ys).tolist()
    n_cols, n_rows = len(xs) - 1, len(ys) - 1

    channels: list[Channel] = []
    # Vertical channels: per column interval, maximal free row runs.
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
    # Horizontal channels: per row interval, maximal free column runs.
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


def channel_utilization(channels: Sequence[Channel],
                        channel_graph: ChannelGraph,
                        routing: RoutingResult) -> dict[str, float]:
    """Peak wires-through over capacity, per channel.

    For a vertical channel the wires running along it cross the grid's
    horizontal boundaries inside the channel rect; their peak per-boundary
    sum over the channel's capacity is the utilization (the adjustment
    step's corridor-demand measure, :func:`~repro.routing.adjust.peak_demand`,
    over the channel rect).
    """
    crossings = routed_crossings(channel_graph, routing)
    result: dict[str, float] = {}
    for channel in channels:
        r = channel.rect
        if channel.orientation == "v":
            demand = peak_demand(crossings["h"], r.y, r.y2, r.x, r.x2)
        else:
            demand = peak_demand(crossings["v"], r.x, r.x2, r.y, r.y2)
        result[channel.name] = demand / channel.capacity \
            if channel.capacity > 0 else 0.0
    return result


def congested_channels(channels: Sequence[Channel],
                       utilization: Mapping[str, float],
                       threshold: float = 1.0) -> list[Channel]:
    """Channels whose utilization meets or exceeds ``threshold``."""
    return [c for c in channels
            if utilization.get(c.name, 0.0) >= threshold]

