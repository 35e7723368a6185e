"""Covering-rectangle decomposition (Figure 4, Theorems 1-2).

Successive augmentation replaces the ``N`` already-placed modules by ``d <= N``
fixed *covering rectangles*, shrinking the integer-variable count of each MILP
subproblem.  The paper's algorithm cuts the covering polygon with horizontal
edge-cut lines from the bottom up (Figure 4c/4d); Theorem 2 shows the cut
count is at most ``n - 1`` where ``n`` is the polygon's horizontal edge count,
and the corollary gives ``N* <= N``.

:func:`covering_rectangles` composes two steps:

* :func:`horizontal_cut_decomposition` — the paper's Figure-4 algorithm,
  generalized to skylines with valleys (each slab may then contribute more
  than one rectangle; for the paper's staircase polygons the Theorem-2 bound
  holds and is asserted in tests).
* :func:`merge_covering_rectangles` — the paper's closing remark that a set of
  *overlapping* partitions can reduce the count further: every covering
  rectangle is extended down to the chip bottom (still inside the polygon),
  after which rectangles contained in others are dropped.

Both operate on the skyline's breakpoint/height arrays directly: the
per-slab maximal-run scan and the containment screening are numpy mask
operations rather than per-step python loops (see the vectorized parity
suite).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.geometry.rect import GEOM_EPS, Rect
from repro.geometry.skyline import Skyline


def horizontal_cut_decomposition(skyline: Skyline, eps: float = GEOM_EPS) -> list[Rect]:
    """Decompose the region under ``skyline`` by horizontal edge-cuts.

    Distinct step heights are visited bottom-up; the slab between consecutive
    heights is cut into one rectangle per maximal run of steps at least as
    tall as the slab top (exactly one run for staircase skylines, hence the
    Theorem-2 count of at most ``n - 1``).

    Returns an exact, interior-disjoint cover of the region under the skyline
    (zero-height regions excluded).
    """
    heights = [h for h in skyline.distinct_heights() if h > eps]
    x = skyline.breakpoints
    step_h = skyline.heights
    rects: list[Rect] = []
    prev = 0.0
    for h in heights:
        # Within the slab [prev, h], the region exists where skyline >= h.
        # Maximal runs of qualifying steps are the mask's rising/falling
        # edges; each run [x[a], x[b]] becomes one slab rectangle.
        tall = step_h >= h - eps
        edges = np.diff(np.concatenate([[False], tall, [False]]).astype(np.int8))
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1)
        for a, b in zip(starts, ends):
            rects.append(Rect(float(x[a]), prev, float(x[b] - x[a]), h - prev))
        prev = h
    return rects


def merge_covering_rectangles(rects: Iterable[Rect], eps: float = GEOM_EPS) -> list[Rect]:
    """Reduce a covering-rectangle set by allowing overlaps.

    Every rectangle produced by the horizontal decomposition spans an x-range
    over which the skyline is at least its top edge, so extending it down to
    ``y = 0`` keeps it inside the covering polygon.  After extension,
    rectangles contained in another are redundant and dropped.

    The result still covers the same region (it is a superset union-wise of
    the input) but typically with fewer rectangles — the paper's "overlapping
    partitions" refinement.
    """
    extended = [Rect(r.x, 0.0, r.w, r.y2) for r in rects]
    # Drop exact duplicates and contained rectangles; prefer keeping taller /
    # wider rects by scanning in decreasing area order.  Containment against
    # the kept set is one vectorized comparison per candidate.
    extended.sort(key=lambda r: r.area, reverse=True)
    if not extended:
        return []
    kept: list[Rect] = []
    kx = np.empty(len(extended))
    ky = np.empty(len(extended))
    kx2 = np.empty(len(extended))
    ky2 = np.empty(len(extended))
    for r in extended:
        n = len(kept)
        contained = (
            (kx[:n] - eps <= r.x) & (ky[:n] - eps <= r.y)
            & (r.x2 <= kx2[:n] + eps) & (r.y2 <= ky2[:n] + eps)
        )
        if not contained.any():
            kx[n], ky[n], kx2[n], ky2[n] = r.x, r.y, r.x2, r.y2
            kept.append(r)
    return kept


def covering_rectangles(placed: Iterable[Rect] | Skyline,
                        x_min: float | None = None,
                        x_max: float | None = None) -> list[Rect]:
    """Covering rectangles for a placed module set (section 3.1 entry point):
    the horizontal edge-cut decomposition of the placed set's skyline,
    reduced by :func:`merge_covering_rectangles`.

    Args:
        placed: the fixed modules of the partial floorplan, or their
            skyline (the augmentation loop keeps one across steps, so each
            step adds only its new modules).
        x_min, x_max: horizontal span of the covering polygon; defaults to the
            modules' extent.  Pass the chip span so that side notches are
            represented faithfully.  A skyline argument carries its own span
            and ignores these.

    Returns:
        Fixed rectangles whose union contains every placed module and is
        contained in the region under the placed modules' skyline.
    """
    if isinstance(placed, Skyline):
        sky = placed
    else:
        placed_list = list(placed)
        if not placed_list:
            return []
        sky = Skyline.from_rects(placed_list, x_min=x_min, x_max=x_max)
    return merge_covering_rectangles(horizontal_cut_decomposition(sky))
