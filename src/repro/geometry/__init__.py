"""Planar rectilinear geometry substrate.

This subpackage provides the geometric primitives the floorplanner is built
on: axis-aligned rectangles (:class:`~repro.geometry.rect.Rect`), 1-D
intervals, the skyline (upper contour) of a placed module set, the covering
polygon of a partial floorplan, and the covering-rectangle decomposition of
Figure 4 / Theorems 1-2 of the paper.
"""

from repro.geometry.rect import Rect
from repro.geometry.interval import Interval, merge_intervals
from repro.geometry.skyline import Skyline, SkylineStep
from repro.geometry.polygon import CoveringPolygon, HorizontalEdge
from repro.geometry.covering import (
    covering_rectangles,
    horizontal_cut_decomposition,
    merge_covering_rectangles,
)

__all__ = [
    "Rect",
    "Interval",
    "merge_intervals",
    "Skyline",
    "SkylineStep",
    "CoveringPolygon",
    "HorizontalEdge",
    "covering_rectangles",
    "horizontal_cut_decomposition",
    "merge_covering_rectangles",
]
