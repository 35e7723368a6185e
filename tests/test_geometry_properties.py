"""Property-based tests (hypothesis) for the geometry substrate.

Invariants under test:

* rectangle algebra (symmetry, intersection/containment consistency);
* skylines are exact upper envelopes;
* covering decompositions exactly tile the region under the skyline and
  never exceed it;
* for bottom-up ("paper discipline") placements the covering-rectangle
  count respects the Theorem-2 corollary ``N* <= N``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.covering import (
    covering_rectangles,
    horizontal_cut_decomposition,
)
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline

coords = st.floats(min_value=0.0, max_value=50.0, allow_nan=False,
                   allow_infinity=False)
dims = st.floats(min_value=0.5, max_value=20.0, allow_nan=False,
                 allow_infinity=False)


@st.composite
def rects(draw) -> Rect:
    return Rect(draw(coords), draw(coords), draw(dims), draw(dims))


@st.composite
def bottom_up_placements(draw) -> list[Rect]:
    """Rectangles placed greedily on the skyline (each sits on the floor or
    on top of previously placed modules) — the paper's placement discipline."""
    n = draw(st.integers(min_value=1, max_value=8))
    span = 30.0
    sky = Skyline(0.0, span)
    placed: list[Rect] = []
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    for _ in range(n):
        w = rng.uniform(1.0, 10.0)
        h = rng.uniform(1.0, 8.0)
        x = rng.uniform(0.0, span - w)
        # drop the rect onto the skyline
        y = max(sky.height_at(x + t * w / 8.0) for t in range(9))
        rect = Rect(x, y, w, h)
        placed.append(rect)
        sky.add_rect(rect)
    return placed


class TestRectProperties:
    @given(rects(), rects())
    def test_overlap_symmetry(self, a: Rect, b: Rect):
        assert a.overlaps(b) == b.overlaps(a)

    @given(rects(), rects())
    def test_intersection_consistent_with_overlap(self, a: Rect, b: Rect):
        inter = a.intersection(b)
        if a.overlaps(b):
            assert inter is not None
            assert a.contains_rect(inter)
            assert b.contains_rect(inter)
        else:
            assert inter is None or inter.is_degenerate()

    @given(rects(), rects())
    def test_union_bbox_contains_both(self, a: Rect, b: Rect):
        box = a.union_bbox(b)
        assert box.contains_rect(a)
        assert box.contains_rect(b)

    @given(rects())
    def test_rotation_preserves_area(self, r: Rect):
        assert abs(r.rotated().area - r.area) < 1e-9

    @given(rects(), coords, coords)
    def test_translation_preserves_dims(self, r: Rect, dx: float, dy: float):
        t = r.translated(dx, dy)
        assert t.w == r.w and t.h == r.h


class TestSkylineProperties:
    @given(st.lists(rects(), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_skyline_is_upper_envelope(self, rect_list: list[Rect]):
        sky = Skyline.from_rects(rect_list)
        for r in rect_list:
            for frac in (0.25, 0.5, 0.75):
                x = r.x + frac * r.w
                if sky.x_min <= x <= sky.x_max:
                    assert sky.height_at(x) >= r.y2 - 1e-7

    @given(st.lists(rects(), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_steps_tile_span_exactly(self, rect_list: list[Rect]):
        sky = Skyline.from_rects(rect_list)
        steps = sky.steps
        assert abs(steps[0].x1 - sky.x_min) < 1e-9
        assert abs(steps[-1].x2 - sky.x_max) < 1e-9
        for a, b in zip(steps, steps[1:]):
            assert abs(a.x2 - b.x1) < 1e-7

    @given(st.lists(rects(), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_adding_rect_never_lowers(self, rect_list: list[Rect]):
        sky = Skyline.from_rects(rect_list)
        before = [(s.x1, s.x2, s.height) for s in sky.steps]
        extra = Rect(sky.x_min, 0, (sky.x_max - sky.x_min) / 2, 1.0)
        sky.add_rect(extra)
        for x1, x2, h in before:
            mid = (x1 + x2) / 2
            assert sky.height_at(mid) >= h - 1e-9


class TestCoveringProperties:
    @given(st.lists(rects(), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_horizontal_decomposition_is_exact_cover(self, rect_list):
        sky = Skyline.from_rects(rect_list)
        cover = horizontal_cut_decomposition(sky)
        assert abs(sum(r.area for r in cover) - sky.area_under()) < 1e-6
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                assert not cover[i].overlaps(cover[j])

    @given(bottom_up_placements())
    @settings(max_examples=60)
    def test_corollary_bound_on_paper_discipline(self, placed: list[Rect]):
        """Theorem 2 corollary: N* <= N for the paper's bottom-up polygons."""
        cover = covering_rectangles(placed, x_min=0.0, x_max=30.0)
        assert len(cover) <= max(1, len(placed))

    @given(bottom_up_placements())
    @settings(max_examples=60)
    def test_cover_contains_every_module(self, placed: list[Rect]):
        cover = covering_rectangles(placed, x_min=0.0, x_max=30.0)
        for module in placed:
            center_covered = any(c.contains_point(module.cx, module.cy)
                                 for c in cover)
            assert center_covered
