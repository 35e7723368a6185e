"""Tests for JSON persistence, channel extraction, scaling analysis, and
the re-linearization loop."""

import json

import pytest

from repro.core.config import FloorplanConfig, Linearization, Objective, Ordering
from repro.core.flexible import linearize_at
from repro.core.floorplanner import floorplan
from repro.core.placement import Placement
from repro.eval.scaling import fit_linear, growth_exponent
from repro.geometry.rect import Rect
from repro.netlist.generators import random_netlist
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.routing.channels import (
    channel_utilization,
    congested_channels,
    extract_channels,
)
from repro.routing.graph import build_channel_graph
from repro.routing.router import GlobalRouter
from repro.routing.technology import Technology
from repro.serialize import (
    config_from_dict,
    config_to_dict,
    floorplan_from_dict,
    floorplan_to_dict,
    load_floorplan,
    netlist_from_dict,
    netlist_to_dict,
    save_floorplan,
)


class TestNetlistSerialization:
    def test_roundtrip(self):
        nl = random_netlist(8, seed=91, flexible_fraction=0.25,
                            critical_fraction=0.2)
        back = netlist_from_dict(netlist_to_dict(nl))
        assert back.module_names == nl.module_names
        for a, b in zip(nl.modules, back.modules):
            assert a == b
        for a, b in zip(nl.nets, back.nets):
            assert a == b

    def test_max_length_preserved(self):
        nl = Netlist([Module.rigid("a", 1, 1), Module.rigid("b", 1, 1)],
                     [Net("n", ("a", "b"), max_length=4.5)])
        back = netlist_from_dict(netlist_to_dict(nl))
        assert back.net("n").max_length == 4.5


class TestFloorplanSerialization:
    def test_roundtrip_preserves_geometry(self):
        nl = random_netlist(6, seed=92)
        plan = floorplan(nl, FloorplanConfig(seed_size=3, group_size=2))
        back = floorplan_from_dict(floorplan_to_dict(plan))
        assert back.chip_area == pytest.approx(plan.chip_area)
        assert back.is_legal
        for name in nl.module_names:
            assert back.placement(name).rect == plan.placement(name).rect

    def test_config_roundtrip(self):
        nl = random_netlist(4, seed=93)
        cfg = FloorplanConfig(seed_size=2, group_size=2,
                              use_envelopes=True,
                              technology=Technology.around_the_cell(0.3, 0.4),
                              linearization=Linearization.TANGENT)
        plan = floorplan(nl, cfg)
        back = floorplan_from_dict(floorplan_to_dict(plan))
        assert back.config.use_envelopes
        assert back.config.technology.pitch_h == 0.3
        assert back.config.linearization is Linearization.TANGENT

        # Every field a job may set survives the codec at a non-default
        # value (the service re-solves loaded plans under their config).
        from repro.service.runner import CONFIG_FIELDS

        changed = dict(
            chip_width=9.0, whitespace_factor=1.5,
            outline=(9.0, 7.0), outline_aspect=1.5, whitespace_target=0.2,
            seed_size=3, group_size=2, objective=Objective.PERIMETER,
            wirelength_weight=0.5, ordering=Ordering.RANDOM, ordering_seed=7,
            allow_rotation=False, linearization=Linearization.TANGENT,
            relinearization_rounds=2, use_envelopes=True,
            use_covering_rectangles=False, record_snapshots=True,
            backend="bnb", formulation="unary", subproblem_time_limit=5.0,
            mip_rel_gap=1e-3, int_tol=1e-5, node_limit=500,
            lp_engine="simplex", certify=True, presolve=False,
            warm_start=False, solve_cache=False, cache_dir="plans/cache",
            eco_margin=2.0, eco_quality_bound=2.0, eco_max_levels=3)
        assert set(changed) == CONFIG_FIELDS
        defaults = FloorplanConfig()
        assert [name for name, value in changed.items()
                if getattr(defaults, name) == value] == []
        doc = json.loads(json.dumps(config_to_dict(FloorplanConfig(**changed))))
        back_config = config_from_dict(doc)
        assert {name: getattr(back_config, name) for name in changed} \
            == changed

    def test_documents_with_retired_config_fields_load(self):
        """Older documents carry four retired config fields at the one
        value that still runs; such a document loads as if it had none."""
        plan = floorplan(random_netlist(5, seed=94),
                         FloorplanConfig(seed_size=3, group_size=2))
        doc = json.loads(json.dumps(floorplan_to_dict(plan)))
        old = json.loads(json.dumps(doc))
        old["config"].update(chip_aspect=1.0, covering_style="horizontal",
                             merge_covering=True, legalize=True)
        back = floorplan_from_dict(old)
        assert json.loads(json.dumps(floorplan_to_dict(back))) == doc

    @pytest.mark.parametrize("field,value", [
        ("legalize", False), ("covering_style", "vertical"),
        ("merge_covering", False), ("chip_aspect", 2.0)])
    def test_retired_config_field_at_another_value_refused(self, field,
                                                           value):
        """A plan made without the final LP, or with another covering or
        chip aspect, can no longer be re-solved as it was made."""
        doc = config_to_dict(FloorplanConfig())
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            config_from_dict(doc)

    def test_file_roundtrip(self, tmp_path):
        nl = random_netlist(5, seed=94)
        plan = floorplan(nl, FloorplanConfig(seed_size=3, group_size=2))
        path = tmp_path / "plan.json"
        save_floorplan(plan, str(path))
        back = load_floorplan(str(path))
        assert back.chip_area == pytest.approx(plan.chip_area)


class TestChannels:
    def _setup(self):
        placements = {
            "a": Placement(Module.rigid("a", 4, 4), Rect(0, 0, 4, 4)),
            "b": Placement(Module.rigid("b", 4, 4), Rect(6, 0, 4, 4)),
        }
        chip = Rect(0, 0, 10, 6)
        tech = Technology.around_the_cell(pitch_h=0.5, pitch_v=0.5)
        return placements, chip, tech

    def test_vertical_channel_found(self):
        placements, chip, tech = self._setup()
        channels = extract_channels(list(placements.values()), chip, tech)
        vertical = [c for c in channels if c.orientation == "v"
                    and c.rect.x == 4.0 and c.rect.w == 2.0]
        assert vertical
        assert vertical[0].capacity == pytest.approx(4.0)  # 2.0 / 0.5

    def test_horizontal_channel_above_modules(self):
        placements, chip, tech = self._setup()
        channels = extract_channels(list(placements.values()), chip, tech)
        horizontal = [c for c in channels if c.orientation == "h"
                      and c.rect.y == 4.0]
        assert horizontal
        assert any(c.rect.w == 10.0 for c in horizontal)

    def test_empty_chip_single_channels(self):
        tech = Technology.around_the_cell()
        channels = extract_channels([], Rect(0, 0, 10, 10), tech)
        assert len(channels) == 2  # one v, one h covering everything
        assert {c.orientation for c in channels} == {"v", "h"}

    def test_utilization_reflects_routing(self):
        placements, chip, tech = self._setup()
        graph = build_channel_graph(list(placements.values()), chip, tech,
                                    ring_width=0.0)
        nets = [Net(f"n{i}", ("a", "b")) for i in range(4)]
        routing = GlobalRouter(graph).route(nets, placements)
        channels = extract_channels(list(placements.values()), chip, tech)
        utilization = channel_utilization(channels, graph, routing)
        assert any(u > 0 for u in utilization.values())

    def test_congested_channels_filter(self):
        placements, chip, tech = self._setup()
        channels = extract_channels(list(placements.values()), chip, tech)
        utilization = {c.name: 0.0 for c in channels}
        utilization[channels[0].name] = 2.0
        hot = congested_channels(channels, utilization, threshold=1.0)
        assert hot == [channels[0]]


class TestScaling:
    def test_perfect_line(self):
        fit = fit_linear([10, 20, 30], [1.0, 2.0, 3.0])
        assert fit.slope == pytest.approx(0.1)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_linear([1, 2, 3], [2.0, 4.0, 6.0])
        assert fit.predict(5) == pytest.approx(10.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear([1], [1.0])

    def test_growth_exponent_linear(self):
        sizes = [10, 20, 40, 80]
        times = [s * 0.3 for s in sizes]
        assert growth_exponent(sizes, times) == pytest.approx(1.0)

    def test_growth_exponent_quadratic(self):
        sizes = [10, 20, 40, 80]
        times = [s * s * 0.01 for s in sizes]
        assert growth_exponent(sizes, times) == pytest.approx(2.0)

    def test_growth_exponent_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            growth_exponent([1, 2], [0.0, 1.0])


class TestRelinearization:
    def test_linearize_at_exact_at_reference(self):
        m = Module.flexible_area("f", 16.0, aspect_low=0.25, aspect_high=4.0)
        w0 = (m.width_min + m.width_max) / 2
        lin = linearize_at(m, w0)
        dw0 = m.width_max - w0
        assert lin.height_linear(dw0) == pytest.approx(16.0 / w0)

    def test_linearize_at_rejects_out_of_range(self):
        m = Module.flexible_area("f", 16.0)
        with pytest.raises(ValueError):
            linearize_at(m, m.width_max * 3)
        with pytest.raises(ValueError):
            linearize_at(Module.rigid("r", 2, 2), 2.0)

    def test_relinearization_improves_tangent_accuracy(self):
        """With re-linearization the tangent mode's raw overlaps shrink or
        vanish, and the floorplan stays legal."""
        nl = random_netlist(8, seed=95, flexible_fraction=0.6)
        base = FloorplanConfig(seed_size=4, group_size=2,
                               linearization=Linearization.TANGENT,
                               subproblem_time_limit=15.0)
        refined = FloorplanConfig(seed_size=4, group_size=2,
                                  linearization=Linearization.TANGENT,
                                  relinearization_rounds=3,
                                  subproblem_time_limit=15.0)
        plan_base = floorplan(nl, base)
        plan_refined = floorplan(nl, refined)
        assert plan_base.is_legal and plan_refined.is_legal
        # refinement should not lose area (it models true shapes better)
        assert plan_refined.chip_area <= plan_base.chip_area * 1.10

    def test_relinearization_noop_for_rigid(self):
        nl = random_netlist(5, seed=96, flexible_fraction=0.0)
        cfg = FloorplanConfig(seed_size=3, group_size=2,
                              relinearization_rounds=2)
        plan = floorplan(nl, cfg)
        assert plan.is_legal

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            FloorplanConfig(relinearization_rounds=-1)


class TestCertificationSerialization:
    def test_certified_floorplan_roundtrip(self):
        netlist = random_netlist(5, seed=8)
        config = FloorplanConfig(seed_size=3, group_size=2, certify=True,
                                 subproblem_time_limit=10.0)
        plan = floorplan(netlist, config)
        assert plan.certification is not None
        assert all(s.certification is not None for s in plan.trace.steps)

        back = floorplan_from_dict(floorplan_to_dict(plan))
        assert back.config.certify is True
        assert back.certification is not None
        assert back.certification.ok == plan.certification.ok
        assert back.certification.n_placements == \
            plan.certification.n_placements
        for orig, restored in zip(plan.trace.steps, back.trace.steps):
            assert restored.certification is not None
            assert restored.certification.ok == orig.certification.ok
            cert = restored.certification.certificate
            assert cert.backend == orig.certification.certificate.backend

    def test_uncertified_floorplan_roundtrip_stays_none(self):
        netlist = random_netlist(4, seed=8)
        config = FloorplanConfig(seed_size=2, group_size=2,
                                 subproblem_time_limit=10.0)
        plan = floorplan(netlist, config)
        back = floorplan_from_dict(floorplan_to_dict(plan))
        assert back.certification is None
        assert all(s.certification is None for s in back.trace.steps)
