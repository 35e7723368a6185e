"""Floorplan rendering: SVG and ASCII (Figures 5-6).

No external plotting dependency: SVG is emitted as text, and a coarse ASCII
raster serves terminal output.  :func:`render_svg` draws module rectangles,
envelope outlines, and (optionally) routed net trees over the channel graph,
regenerating the paper's Figure 5 (the ami33 floorplan) and Figure 6 (the
final floorplan with routing space).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.routing.graph import ChannelGraph
from repro.routing.result import RoutingResult

#: Fill palette cycled over modules.
_PALETTE = (
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
)


def render_svg(placements: Mapping[str, Placement], chip: Rect, *,
               routing: RoutingResult | None = None,
               channel_graph: ChannelGraph | None = None,
               show_envelopes: bool = True,
               scale: float = 6.0, label_modules: bool = True) -> str:
    """Render a floorplan (optionally with routes) as an SVG document.

    Args:
        placements: placed modules.
        chip: the chip rectangle.
        routing: routed nets to overlay (requires ``channel_graph``).
        channel_graph: the graph the routes refer to.
        show_envelopes: draw dashed envelope outlines where they differ from
            the module rects.
        scale: SVG pixels per floorplan unit.
        label_modules: write module names inside the rectangles.

    Returns:
        The SVG text.
    """
    margin = 10.0
    width = chip.w * scale + 2 * margin
    height = chip.h * scale + 2 * margin

    def sx(x: float) -> float:
        return margin + x * scale

    def sy(y: float) -> float:
        # SVG y grows downward; floorplan y grows upward.
        return margin + (chip.h - y) * scale

    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="{sx(chip.x):.1f}" y="{sy(chip.y2):.1f}" '
        f'width="{chip.w * scale:.1f}" height="{chip.h * scale:.1f}" '
        'fill="#f7f7f7" stroke="#333" stroke-width="1.5"/>',
    ]

    for index, (name, p) in enumerate(sorted(placements.items())):
        color = _PALETTE[index % len(_PALETTE)]
        if show_envelopes and p.envelope.area > p.rect.area + 1e-9:
            e = p.envelope
            parts.append(
                f'<rect x="{sx(e.x):.1f}" y="{sy(e.y2):.1f}" '
                f'width="{e.w * scale:.1f}" height="{e.h * scale:.1f}" '
                'fill="none" stroke="#999" stroke-width="0.6" '
                'stroke-dasharray="3,2"/>')
        r = p.rect
        parts.append(
            f'<rect x="{sx(r.x):.1f}" y="{sy(r.y2):.1f}" '
            f'width="{r.w * scale:.1f}" height="{r.h * scale:.1f}" '
            f'fill="{color}" stroke="#222" stroke-width="0.8"/>')
        if label_modules:
            font = max(6.0, min(r.w, r.h) * scale * 0.35)
            parts.append(
                f'<text x="{sx(r.cx):.1f}" y="{sy(r.cy):.1f}" '
                f'font-size="{font:.0f}" text-anchor="middle" '
                f'dominant-baseline="middle" font-family="sans-serif">'
                f'{name}</text>')

    if routing is not None and channel_graph is not None:
        parts.extend(_route_lines(routing, channel_graph, sx, sy))

    parts.append("</svg>")
    return "\n".join(parts)


def _route_lines(routing: RoutingResult, channel_graph: ChannelGraph,
                 sx, sy) -> list[str]:
    """Polyline segments for every routed edge, opacity scaled by usage."""
    lines: list[str] = []
    max_usage = max(routing.edge_usage.values(), default=1.0)
    for (u, v), usage in sorted(routing.edge_usage.items()):
        if channel_graph.edge_id(u, v) is None:
            continue
        cu = channel_graph.cell_rect(u).center
        cv = channel_graph.cell_rect(v).center
        width = 0.6 + 1.6 * (usage / max_usage)
        lines.append(
            f'<line x1="{sx(cu[0]):.1f}" y1="{sy(cu[1]):.1f}" '
            f'x2="{sx(cv[0]):.1f}" y2="{sy(cv[1]):.1f}" '
            f'stroke="#d62728" stroke-width="{width:.1f}" '
            'stroke-opacity="0.55"/>')
    return lines


def render_augmentation_frames(trace, chip: Rect, *,
                               scale: float = 6.0) -> list[tuple[str, str]]:
    """SVG frames of the successive-augmentation sequence (Figure 2).

    Requires a trace recorded with
    :attr:`~repro.core.config.FloorplanConfig.record_snapshots`.  Each frame
    shows the floorplan after one step, with that step's covering rectangles
    drawn as gray dashed outlines and the newly added modules highlighted.

    Returns:
        ``(frame_name, svg_text)`` pairs, one per recorded step.
    """
    frames: list[tuple[str, str]] = []
    for step in trace.steps:
        if step.snapshot is None:
            continue
        placements = {p.name: p for p in step.snapshot}
        svg = render_svg(placements, chip, scale=scale)
        overlays: list[str] = []
        margin = 10.0

        def sx(x: float) -> float:
            return margin + x * scale

        def sy(y: float) -> float:
            return margin + (chip.h - y) * scale

        for obstacle in step.snapshot_obstacles or ():
            overlays.append(
                f'<rect x="{sx(obstacle.x):.1f}" y="{sy(obstacle.y2):.1f}" '
                f'width="{obstacle.w * scale:.1f}" '
                f'height="{obstacle.h * scale:.1f}" fill="none" '
                'stroke="#555" stroke-width="1.2" stroke-dasharray="5,3"/>')
        for name in step.group:
            if name in placements:
                r = placements[name].rect
                overlays.append(
                    f'<rect x="{sx(r.x):.1f}" y="{sy(r.y2):.1f}" '
                    f'width="{r.w * scale:.1f}" height="{r.h * scale:.1f}" '
                    'fill="none" stroke="#d62728" stroke-width="2.0"/>')
        svg = svg.replace("</svg>", "\n".join(overlays) + "\n</svg>")
        frames.append((f"step{step.index:02d}", svg))
    return frames


def render_ascii(placements: Mapping[str, Placement], chip: Rect, *,
                 columns: int = 72) -> str:
    """Render a floorplan as an ASCII raster (terminal Figure 5).

    Each module fills its footprint with a distinct letter; ``.`` is empty
    chip area.
    """
    if chip.w <= 0 or chip.h <= 0:
        return "(empty chip)"
    rows = max(4, round(columns * (chip.h / chip.w) * 0.5))
    grid = [["." for _ in range(columns)] for _ in range(rows)]
    symbols = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
    legend: list[str] = []

    for index, (name, p) in enumerate(sorted(placements.items())):
        symbol = symbols[index % len(symbols)]
        legend.append(f"{symbol}={name}")
        r = p.rect
        c1 = int(r.x / chip.w * columns)
        c2 = max(c1 + 1, int(r.x2 / chip.w * columns))
        r1 = int(r.y / chip.h * rows)
        r2 = max(r1 + 1, int(r.y2 / chip.h * rows))
        for row in range(r1, min(r2, rows)):
            for col in range(c1, min(c2, columns)):
                grid[row][col] = symbol

    lines = ["".join(row) for row in reversed(grid)]
    lines.append("")
    for start in range(0, len(legend), 8):
        lines.append("  ".join(legend[start:start + 8]))
    return "\n".join(lines)
