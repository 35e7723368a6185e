"""Tests for the independent geometric floorplan validator, including
property-based checks of the Theorem 1-2 covering-count bounds on random
bottom-up (rectilinear, no-valley) placements."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    GeometryReport,
    check_cover,
    check_floorplan,
    check_placements,
    uncovered_area,
)
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.core.placement import Placement
from repro.geometry.covering import (
    covering_rectangles,
    horizontal_cut_decomposition,
)
from repro.geometry.polygon import CoveringPolygon
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline
from repro.netlist.module import Module


def rigid_placement(name: str, x: float, y: float, w: float, h: float,
                    rotated: bool = False) -> Placement:
    module = Module.rigid(name, h if rotated else w, w if rotated else h)
    rect = Rect(x, y, w, h)
    return Placement(module=module, rect=rect, rotated=rotated, envelope=rect)


CHIP = Rect(0.0, 0.0, 10.0, 10.0)


class TestUncoveredArea:
    def test_exact_cover_has_no_gap(self):
        target = Rect(0, 0, 4, 4)
        cover = [Rect(0, 0, 2, 4), Rect(2, 0, 2, 4)]
        assert uncovered_area(target, cover) == pytest.approx(0.0)

    def test_gap_measured_exactly(self):
        target = Rect(0, 0, 4, 4)
        cover = [Rect(0, 0, 4, 3)]  # top 4x1 strip uncovered
        assert uncovered_area(target, cover) == pytest.approx(4.0)

    def test_empty_cover_misses_everything(self):
        target = Rect(1, 1, 3, 2)
        assert uncovered_area(target, []) == pytest.approx(6.0)


class TestCheckPlacements:
    def test_legal_placements_pass(self):
        placements = [rigid_placement("a", 0, 0, 4, 3),
                      rigid_placement("b", 4, 0, 3, 5)]
        report = check_placements(placements, CHIP)
        assert report.ok
        assert report.n_pairs_checked == 1

    def test_overlap_detected(self):
        placements = [rigid_placement("a", 0, 0, 4, 3),
                      rigid_placement("b", 2, 0, 4, 3)]
        report = check_placements(placements, CHIP)
        assert not report.ok
        assert any("overlap" in v.detail for v in report.violations)

    def test_outside_chip_detected(self):
        report = check_placements([rigid_placement("a", 8, 0, 4, 3)], CHIP)
        assert not report.ok

    def test_above_chip_ok_when_height_unchecked(self):
        tall = [rigid_placement("a", 0, 8, 3, 5)]
        assert not check_placements(tall, CHIP).ok
        assert check_placements(tall, CHIP, check_chip_height=False).ok

    def test_rotated_dimensions_validated(self):
        # Module is 3 wide x 5 tall; rotated placement must be 5x3.
        good = rigid_placement("a", 0, 0, 5, 3, rotated=True)
        assert check_placements([good], CHIP).ok
        module = Module.rigid("b", 3.0, 5.0)
        bad = Placement(module=module, rect=Rect(0, 0, 3, 5), rotated=True,
                        envelope=Rect(0, 0, 3, 5))
        assert not check_placements([bad], CHIP).ok

    def test_flexible_area_conserved(self):
        module = Module.flexible_area("f", 9.0, aspect_low=0.5,
                                      aspect_high=2.0)
        good = Placement(module=module, rect=Rect(0, 0, 3, 3),
                         rotated=False, envelope=Rect(0, 0, 3, 3))
        assert check_placements([good], CHIP).ok
        shrunk = Placement(module=module, rect=Rect(0, 0, 2, 2),
                           rotated=False, envelope=Rect(0, 0, 2, 2))
        assert not check_placements([shrunk], CHIP).ok

    def test_flexible_aspect_enforced(self):
        module = Module.flexible_area("f", 8.0, aspect_low=0.5,
                                      aspect_high=2.0)
        # 8x1 has aspect 8 (h/w = 0.125): far outside [0.5, 2.0].
        squashed = Placement(module=module, rect=Rect(0, 0, 8, 1),
                             rotated=False, envelope=Rect(0, 0, 8, 1))
        assert not check_placements([squashed], CHIP).ok


class TestCheckCover:
    def test_valid_cover_passes(self):
        placed = [Rect(0, 0, 4, 2), Rect(4, 0, 4, 5)]
        cover = covering_rectangles(placed, x_min=0.0, x_max=10.0)
        report = check_cover(placed, cover, x_min=0.0, x_max=10.0)
        assert report.ok
        assert report.n_cover_rects == len(cover)

    def test_missing_cover_detected(self):
        placed = [Rect(0, 0, 4, 2), Rect(4, 0, 4, 5)]
        report = check_cover(placed, [Rect(0, 0, 4, 2)],
                             x_min=0.0, x_max=10.0)
        assert any("uncovered" in v.detail for v in report.violations)

    def test_protruding_obstacle_detected(self):
        placed = [Rect(0, 0, 4, 2)]
        report = check_cover(placed, [Rect(0, 0, 4, 2), Rect(0, 2, 4, 3)],
                             x_min=0.0, x_max=10.0)
        assert any("pokes outside" in v.detail for v in report.violations)

    def test_empty_placed_with_obstacles_flagged(self):
        report = check_cover([], [Rect(0, 0, 1, 1)], x_min=0.0, x_max=10.0)
        assert not report.ok


class TestCheckFloorplan:
    def test_clean_run_certifies(self, tiny_netlist):
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 subproblem_time_limit=10.0,
                                 record_snapshots=True)
        plan = Floorplanner(tiny_netlist, config).run()
        report = check_floorplan(plan)
        assert report.ok, [v.detail for v in report.violations]
        assert report.n_placements == len(tiny_netlist)

    def test_tampered_placement_detected(self, tiny_netlist):
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 subproblem_time_limit=10.0)
        plan = Floorplanner(tiny_netlist, config).run()
        name = next(iter(plan.placements))
        victim = plan.placements[name]
        plan.placements[name] = Placement(
            module=victim.module,
            rect=Rect(-50.0, 0.0, victim.rect.w, victim.rect.h),
            rotated=victim.rotated,
            envelope=Rect(-50.0, 0.0, victim.envelope.w, victim.envelope.h))
        assert not check_floorplan(plan).ok

    def test_missing_module_detected(self, tiny_netlist):
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 subproblem_time_limit=10.0)
        plan = Floorplanner(tiny_netlist, config).run()
        plan.placements.pop(next(iter(plan.placements)))
        report = check_floorplan(plan)
        assert any(v.kind == "completeness" for v in report.violations)


class TestReportSerialization:
    def test_round_trip(self):
        placements = [rigid_placement("a", 0, 0, 4, 3),
                      rigid_placement("b", 2, 0, 4, 3)]
        report = check_placements(placements, CHIP)
        back = GeometryReport.from_dict(report.to_dict())
        assert back.ok == report.ok
        assert len(back.violations) == len(report.violations)
        assert back.n_pairs_checked == report.n_pairs_checked


# ---------------------------------------------------------------------------
# Theorems 1-2 property tests on random bottom-up placements
# ---------------------------------------------------------------------------

@st.composite
def bottom_up_placements(draw) -> list[Rect]:
    """Rectangles dropped onto the skyline: every module rests on the chip
    floor or on earlier modules, the paper's placement discipline (the
    resulting covering polygon has no valleys by construction... not quite —
    side-by-side towers of different heights DO form valleys, which is
    exactly the general case Theorem 2's proof machinery must survive)."""
    n = draw(st.integers(min_value=1, max_value=8))
    span = 30.0
    sky = Skyline(0.0, span)
    placed: list[Rect] = []
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    for _ in range(n):
        w = rng.uniform(1.0, 10.0)
        h = rng.uniform(1.0, 8.0)
        x = rng.uniform(0.0, span - w)
        y = max(sky.height_at(x + t * w / 8.0) for t in range(9))
        rect = Rect(x, y, w, h)
        placed.append(rect)
        sky.add_rect(rect)
    return placed


class TestCoveringTheoremProperties:
    @given(bottom_up_placements())
    @settings(max_examples=60, deadline=None)
    def test_generated_cover_always_certifies(self, placed):
        cover = covering_rectangles(placed, x_min=0.0, x_max=30.0)
        report = check_cover(placed, cover, x_min=0.0, x_max=30.0)
        assert report.ok, [v.detail for v in report.violations]

    @given(bottom_up_placements())
    @settings(max_examples=60, deadline=None)
    def test_theorem2_count_bound_when_no_valley(self, placed):
        polygon = CoveringPolygon.from_rects(placed, x_min=0.0, x_max=30.0)
        if polygon.skyline.has_valley():
            return
        cover = horizontal_cut_decomposition(polygon.skyline)
        assert len(cover) <= max(1, polygon.n_horizontal_edges() - 1)

    @given(bottom_up_placements())
    @settings(max_examples=60, deadline=None)
    def test_corollary_count_at_most_n_modules(self, placed):
        # Corollary to Theorems 1-2: d <= N, valid when both premises hold.
        polygon = CoveringPolygon.from_rects(placed, x_min=0.0, x_max=30.0)
        if polygon.skyline.has_valley() or not polygon.satisfies_theorem1():
            return
        cover = covering_rectangles(placed, x_min=0.0, x_max=30.0)
        assert len(cover) <= max(1, len(placed))

    @given(bottom_up_placements())
    @settings(max_examples=40, deadline=None)
    def test_cover_exactness(self, placed):
        # The decomposition covers every placed rect with zero residual and
        # every covering rect stays inside the polygon (both directions of
        # the "exact cover of the region under the skyline" claim).
        cover = covering_rectangles(placed, x_min=0.0, x_max=30.0)
        polygon = CoveringPolygon.from_rects(placed, x_min=0.0, x_max=30.0)
        for rect in placed:
            assert uncovered_area(rect, cover) <= 1e-6 * max(1.0, rect.area)
        for obs in cover:
            assert polygon.covers(obs, 1e-6)
