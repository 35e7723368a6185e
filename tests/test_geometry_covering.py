"""Unit tests for covering polygons and covering-rectangle decomposition
(Figure 4, Theorems 1-2)."""

import pytest

from repro.geometry.covering import (
    covering_rectangles,
    horizontal_cut_decomposition,
    merge_covering_rectangles,
)
from repro.geometry.polygon import CoveringPolygon
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline


def region_covers(rects: list[Rect], point: tuple[float, float]) -> bool:
    return any(r.contains_point(*point) for r in rects)


class TestCoveringPolygon:
    def test_top_edges_of_staircase(self):
        poly = CoveringPolygon.from_rects(
            [Rect(0, 0, 3, 6), Rect(3, 0, 3, 4), Rect(6, 0, 3, 2)])
        edges = poly.top_edges()
        assert [e.y for e in edges] == [6.0, 4.0, 2.0]
        assert poly.n_horizontal_edges() == 4  # 3 tops + flat bottom

    def test_theorem1_bound_for_bottom_up_placements(self):
        # modules on the floor or on top of another -> n <= N + 1
        rects = [Rect(0, 0, 4, 2), Rect(4, 0, 2, 5), Rect(0, 2, 4, 2),
                 Rect(6, 0, 3, 1)]
        poly = CoveringPolygon.from_rects(rects)
        assert poly.satisfies_theorem1()

    def test_area_fills_bottom_holes(self):
        # A module floating above the floor: the hole below it is ignored
        poly = CoveringPolygon.from_rects([Rect(0, 3, 4, 1)])
        assert poly.area() == 4 * 4  # full column under the skyline

    def test_covers(self):
        poly = CoveringPolygon.from_rects([Rect(0, 0, 3, 6), Rect(3, 0, 3, 2)])
        assert poly.covers(Rect(0, 0, 3, 6))
        assert poly.covers(Rect(3, 0, 2, 2))
        assert not poly.covers(Rect(3, 2, 2, 2))  # above the low step
        assert not poly.covers(Rect(-1, 0, 1, 1))  # outside the span


class TestHorizontalCutDecomposition:
    def test_staircase_gives_n_minus_one_rects(self):
        # Figure 4 flavor: staircase polygon with 3 distinct heights
        sky = Skyline.from_rects(
            [Rect(0, 0, 3, 6), Rect(3, 0, 3, 4), Rect(6, 0, 3, 2)])
        rects = horizontal_cut_decomposition(sky)
        assert len(rects) == 3
        # Exact cover: total area equals area under skyline
        assert sum(r.area for r in rects) == pytest.approx(sky.area_under())

    def test_rects_are_interior_disjoint(self):
        sky = Skyline.from_rects(
            [Rect(0, 0, 2, 5), Rect(2, 0, 2, 3), Rect(4, 0, 2, 7)])
        rects = horizontal_cut_decomposition(sky)
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].overlaps(rects[j])

    def test_flat_skyline_single_rect(self):
        sky = Skyline.from_rects([Rect(0, 0, 5, 3), Rect(5, 0, 5, 3)])
        rects = horizontal_cut_decomposition(sky)
        assert rects == [Rect(0, 0, 10, 3)]

    def test_valley_produces_split_slab(self):
        sky = Skyline.from_rects(
            [Rect(0, 0, 2, 5), Rect(2, 0, 2, 1), Rect(4, 0, 2, 5)])
        rects = horizontal_cut_decomposition(sky)
        assert sum(r.area for r in rects) == pytest.approx(sky.area_under())
        # slab above the valley splits into two runs
        tall = [r for r in rects if r.y2 == 5.0]
        assert len(tall) == 2

    def test_empty_skyline_no_rects(self):
        assert horizontal_cut_decomposition(Skyline(0, 10)) == []


class TestMergeCoveringRectangles:
    def test_extension_to_floor(self):
        merged = merge_covering_rectangles([Rect(0, 2, 4, 2)])
        assert merged == [Rect(0, 0, 4, 4)]

    def test_contained_rects_dropped(self):
        merged = merge_covering_rectangles(
            [Rect(0, 0, 6, 4), Rect(1, 4, 2, 1), Rect(1, 0, 2, 3)])
        # the (1,0,2,3) rect extends to (1,0,2,3) and is inside (0,0,6,4)
        assert Rect(1, 0, 2, 3) not in merged
        assert len(merged) == 2


class TestCoveringRectanglesEntryPoint:
    def _placed(self) -> list[Rect]:
        return [Rect(0, 0, 4, 3), Rect(4, 0, 2, 5), Rect(0, 3, 4, 1)]

    def test_cover_contains_all_modules(self):
        placed = self._placed()
        cover = covering_rectangles(placed, x_min=0, x_max=6)
        for module in placed:
            for corner in ((module.x, module.y), (module.x2 - 1e-9, module.y2 - 1e-9)):
                assert region_covers(cover, corner)

    def test_cover_stays_under_skyline(self):
        placed = self._placed()
        sky = Skyline.from_rects(placed, x_min=0, x_max=6)
        cover = covering_rectangles(placed, x_min=0, x_max=6)
        for r in cover:
            for x in (r.x + 1e-6, r.cx, r.x2 - 1e-6):
                assert r.y2 <= sky.height_at(x) + 1e-9

    def test_corollary_count_at_most_n_modules(self):
        # N* <= N for bottom-up (paper-discipline) placements
        placed = self._placed()
        cover = covering_rectangles(placed, x_min=0, x_max=6)
        assert len(cover) <= len(placed)

    def test_empty_input(self):
        assert covering_rectangles([]) == []

    def test_merge_reduces_or_keeps_count(self):
        placed = [Rect(0, 0, 2, 6), Rect(2, 0, 2, 4), Rect(4, 0, 2, 2),
                  Rect(6, 0, 2, 7)]
        plain = horizontal_cut_decomposition(Skyline.from_rects(placed))
        merged = covering_rectangles(placed)
        assert len(merged) <= len(plain)
