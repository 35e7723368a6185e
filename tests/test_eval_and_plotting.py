"""Unit tests for metrics, report formatting, and renderers."""

import pytest

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import floorplan
from repro.core.placement import Placement
from repro.eval.metrics import area_utilization, hpwl, total_module_area
from repro.eval.report import format_table
from repro.geometry.rect import Rect
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.plotting import render_ascii, render_svg
from repro.routing.flow import route_and_adjust
from repro.routing.technology import Technology


def _placements() -> dict[str, Placement]:
    return {
        "a": Placement(Module.rigid("a", 2, 2), Rect(0, 0, 2, 2)),
        "b": Placement(Module.rigid("b", 2, 2), Rect(4, 0, 2, 2)),
    }


class TestMetrics:
    def test_total_module_area(self):
        assert total_module_area(_placements()) == 8.0

    def test_area_utilization(self):
        assert area_utilization(_placements(), Rect(0, 0, 8, 2)) == \
            pytest.approx(0.5)

    def test_area_utilization_zero_chip(self):
        assert area_utilization(_placements(), Rect(0, 0, 0, 0)) == 0.0

    def test_hpwl(self):
        nl = Netlist([Module.rigid("a", 2, 2), Module.rigid("b", 2, 2)],
                     [Net("n", ("a", "b"), weight=2.0)])
        # centers (1,1) and (5,1): HPWL = 4, weighted = 8
        assert hpwl(nl, _placements()) == pytest.approx(8.0)


class TestReport:
    def test_empty(self):
        assert format_table([]) == ""

    def test_dataclass_rows(self):
        from dataclasses import dataclass

        @dataclass
        class Row:
            name: str
            value: float
            ok: bool

        text = format_table([Row("a", 1.2345, True), Row("bb", 2.0, False)],
                            title="T", floatfmt=".2f")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.23" in text and "yes" in text and "no" in text

    def test_mapping_rows(self):
        text = format_table([{"x": 1, "y": "z"}])
        assert "x" in text and "z" in text

    def test_alignment(self):
        text = format_table([{"col": "short"}, {"col": "a much longer cell"}])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[-1])


class TestRenderers:
    def test_svg_structure(self):
        svg = render_svg(_placements(), Rect(0, 0, 8, 4))
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= 3  # chip + 2 modules
        assert ">a</text>" in svg and ">b</text>" in svg
        assert svg.endswith("</svg>")

    def test_svg_envelopes_dashed(self):
        placements = {
            "a": Placement(Module.rigid("a", 2, 2), Rect(1, 1, 2, 2),
                           envelope=Rect(0, 0, 4, 4)),
        }
        svg = render_svg(placements, Rect(0, 0, 8, 4))
        assert "stroke-dasharray" in svg

    def test_svg_without_labels(self):
        svg = render_svg(_placements(), Rect(0, 0, 8, 4),
                         label_modules=False)
        assert "<text" not in svg

    def test_svg_with_routes(self):
        nl = random_netlist(5, seed=31)
        plan = floorplan(nl, FloorplanConfig(seed_size=3, group_size=2))
        tech = Technology.around_the_cell()
        routed = route_and_adjust(plan.placements, plan.chip, nl, tech)
        svg = render_svg(routed.placements, routed.chip,
                         routing=routed.routing, channel_graph=routed.graph)
        assert "<line" in svg  # routed wires drawn

    def test_ascii_contains_all_modules(self):
        text = render_ascii(_placements(), Rect(0, 0, 8, 4))
        assert "A" in text and "B" in text
        assert "A=a" in text and "B=b" in text

    def test_ascii_aspect(self):
        text = render_ascii(_placements(), Rect(0, 0, 8, 4), columns=40)
        grid_lines = [line for line in text.splitlines()
                      if line and "=" not in line]
        assert all(len(line) == 40 for line in grid_lines)

    def test_ascii_empty_chip(self):
        assert "empty" in render_ascii({}, Rect(0, 0, 0, 0))
