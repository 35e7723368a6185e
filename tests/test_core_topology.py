"""Unit tests for the section-2.5 given-topology LP."""

import pytest

from repro.core.flexible import linearize_at
from repro.core.placement import Placement
from repro.core.topology import Relation, derive_relations, optimize_topology
from repro.geometry.rect import Rect, any_overlap
from repro.netlist.module import Module


def _place(name: str, x: float, y: float, w: float, h: float,
           flexible: bool = False) -> Placement:
    if flexible:
        module = Module.flexible_area(name, w * h, aspect_low=0.25,
                                      aspect_high=4.0)
    else:
        module = Module.rigid(name, w, h)
    return Placement(module, Rect(x, y, w, h))


class TestRelation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Relation("a", "b", "z")
        with pytest.raises(ValueError):
            Relation("a", "b", "x", gap=-1.0)


class TestDeriveRelations:
    def test_one_relation_per_pair(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 3, 0, 2, 2),
                      _place("c", 0, 3, 2, 2)]
        relations = derive_relations(placements)
        assert len(relations) == 3

    def test_axis_matches_geometry(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 5, 0, 2, 2)]
        (rel,) = derive_relations(placements)
        assert rel.axis == "x"
        assert rel.first == "a" and rel.second == "b"

    def test_vertical_relation(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 0, 5, 2, 2)]
        (rel,) = derive_relations(placements)
        assert rel.axis == "y"
        assert rel.first == "a"

    def test_relations_satisfied_by_input(self):
        """Relations derived from a legal placement hold in that placement."""
        placements = [_place("a", 0, 0, 4, 3), _place("b", 4, 0, 2, 5),
                      _place("c", 0, 3, 4, 1), _place("d", 6, 0, 3, 2)]
        pos = {p.name: p.envelope for p in placements}
        for rel in derive_relations(placements):
            a, b = pos[rel.first], pos[rel.second]
            if rel.axis == "x":
                assert a.x2 <= b.x + 1e-9
            else:
                assert a.y2 <= b.y + 1e-9

    def test_gap_fn_applied(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 5, 0, 2, 2)]
        relations = derive_relations(placements,
                                     gap_fn=lambda f, s, axis: 1.5)
        assert relations[0].gap == 1.5

    def test_negative_gap_clamped(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 5, 0, 2, 2)]
        relations = derive_relations(placements,
                                     gap_fn=lambda f, s, axis: -3.0)
        assert relations[0].gap == 0.0


class TestOptimizeTopology:
    def test_compacts_spread_placement(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 10, 0, 2, 2)]
        result = optimize_topology(placements)
        assert result.chip_width == pytest.approx(4.0)
        assert result.chip_height == pytest.approx(2.0)
        assert any_overlap([p.rect for p in result.placements]) is None

    def test_respects_gaps(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 10, 0, 2, 2)]
        relations = [Relation("a", "b", "x", gap=3.0)]
        result = optimize_topology(placements, relations)
        assert result.chip_width == pytest.approx(7.0)
        pos = {p.name: p.rect for p in result.placements}
        assert pos["b"].x - pos["a"].x2 >= 3.0 - 1e-6

    def test_max_chip_width_enforced(self):
        placements = [_place("a", 0, 0, 3, 2), _place("b", 4, 0, 3, 2)]
        result = optimize_topology(placements, max_chip_width=10.0)
        assert result.chip_width <= 10.0 + 1e-6

    def test_legalizes_small_overlaps(self):
        """Tangent-linearization aftermath: slightly overlapping input is
        separated while preserving the dominant topology."""
        placements = [_place("a", 0, 0, 4, 3), _place("b", 3.8, 0, 4, 3)]
        result = optimize_topology(placements)
        assert any_overlap([p.rect for p in result.placements]) is None
        pos = {p.name: p.rect for p in result.placements}
        assert pos["a"].x2 <= pos["b"].x + 1e-6

    def test_flexible_resizing_reduces_area(self):
        """A flexible module squeezed beside a tall one can reshape to fill
        the freed width."""
        rigid = _place("r", 0, 0, 2, 8)
        flex = _place("f", 2, 0, 4, 4, flexible=True)
        fixed = optimize_topology([rigid, flex], resize_flexible=False)
        resized = optimize_topology([rigid, flex], resize_flexible=True)
        assert resized.chip_width * resized.chip_height <= \
            fixed.chip_width * fixed.chip_height + 1e-6

    def test_flexible_area_preserved(self):
        """Under the default secant and under a tangent the map names."""
        flex = _place("f", 0, 0, 4, 4, flexible=True)
        for tangents in (None, {"f": linearize_at(flex.module, 3.0)}):
            result = optimize_topology([flex], resize_flexible=True,
                                       flex_linearizations=tangents)
            assert result.placements[0].rect.area == \
                pytest.approx(16.0, rel=1e-6)

    def test_cyclic_relations_raise(self):
        placements = [_place("a", 0, 0, 2, 2), _place("b", 3, 0, 2, 2),
                      _place("c", 6, 0, 2, 2)]
        cyclic = [Relation("a", "b", "x"), Relation("b", "c", "x"),
                  Relation("c", "a", "x")]
        with pytest.raises(RuntimeError):
            optimize_topology(placements, cyclic)

    def test_unknown_module_in_relation_rejected(self):
        placements = [_place("a", 0, 0, 2, 2)]
        with pytest.raises(ValueError):
            optimize_topology(placements, [Relation("a", "ghost", "x")])

    def test_duplicate_placements_rejected(self):
        p = _place("a", 0, 0, 2, 2)
        with pytest.raises(ValueError):
            optimize_topology([p, p])

    def test_simplex_backend_agrees(self):
        placements = [_place("a", 0, 0, 2, 3), _place("b", 5, 0, 3, 2),
                      _place("c", 0, 6, 4, 2)]
        via_highs = optimize_topology(placements, backend="highs")
        via_simplex = optimize_topology(placements, backend="simplex")
        assert via_simplex.chip_width * via_simplex.chip_height == \
            pytest.approx(via_highs.chip_width * via_highs.chip_height,
                          rel=1e-6)

    def test_envelope_margins_preserved(self):
        module = Module.rigid("a", 2, 2)
        placed = Placement(module, Rect(1, 1, 2, 2), envelope=Rect(0, 0, 4, 4))
        result = optimize_topology([placed])
        out = result.placements[0]
        assert out.envelope.w == pytest.approx(4.0)
        assert out.rect.x - out.envelope.x == pytest.approx(1.0)
