"""Fixed-outline mode: config plumbing, the feasibility search, the
structured ``INFEASIBLE_OUTLINE`` contract, and direct-vs-service parity
for outline jobs."""

from __future__ import annotations

import pytest

from repro.check.geometry import check_outline
from repro.core import (
    FEASIBLE,
    INFEASIBLE_OUTLINE,
    FloorplanConfig,
    Floorplanner,
    solve_fixed_outline,
)
from repro.core.augmentation import FloorplanError, resolve_outline
from repro.netlist.module import Module
from repro.netlist.netlist import Netlist
from repro.serialize import (config_from_dict, config_to_dict,
                             floorplan_from_dict, netlist_to_dict)

from service_helpers import running_service


def _netlist() -> Netlist:
    modules = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
        Module.rigid("d", 5.0, 2.0),
        Module.rigid("e", 2.0, 2.0, rotatable=False),
    ]
    return Netlist(modules, [], name="outline5")


def _config(**overrides) -> FloorplanConfig:
    defaults = dict(outline=(8.0, 10.0), seed_size=3, group_size=2,
                    use_envelopes=False, solve_cache=False,
                    subproblem_time_limit=20.0)
    defaults.update(overrides)
    return FloorplanConfig(**defaults)


class TestConfigPlumbing:
    def test_outline_mode_flag(self):
        assert not FloorplanConfig().outline_mode
        assert FloorplanConfig(outline=(8.0, 10.0)).outline_mode
        assert FloorplanConfig(outline_aspect=1.5).outline_mode
        assert FloorplanConfig(whitespace_target=0.2).outline_mode

    def test_outline_normalizes_json_lists(self):
        config = FloorplanConfig(outline=[8, 10])
        assert config.outline == (8.0, 10.0)
        assert isinstance(config.outline, tuple)

    def test_outline_validation(self):
        with pytest.raises(ValueError):
            FloorplanConfig(outline=(8.0,))
        with pytest.raises(ValueError):
            FloorplanConfig(outline=(0.0, 10.0))
        with pytest.raises(ValueError):
            FloorplanConfig(outline_aspect=-1.0)
        with pytest.raises(ValueError):
            FloorplanConfig(whitespace_target=1.0)

    def test_chip_width_conflict_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            FloorplanConfig(chip_width=7.0, outline=(8.0, 10.0))
        # Agreeing values are fine.
        config = FloorplanConfig(chip_width=8.0, outline=(8.0, 10.0))
        assert config.resolved_chip_width(45.0) == 8.0

    def test_explicit_outline_fixes_chip_width(self):
        config = FloorplanConfig(outline=(8.0, 10.0))
        assert config.resolved_chip_width(45.0, widest_module=4.0) == 8.0

    def test_derived_outline_honors_whitespace_target(self):
        config = FloorplanConfig(whitespace_target=0.2)
        outline = config.resolved_outline(80.0)
        assert outline is not None
        width, height = outline
        assert width * height == pytest.approx(80.0 / 0.8)
        assert width == pytest.approx(height)

    def test_derived_outline_respects_widest_module(self):
        config = FloorplanConfig(outline_aspect=1.0)
        width, height = config.resolved_outline(16.0, widest_module=10.0)
        assert width == 10.0
        assert width * height == pytest.approx(16.0 * config.whitespace_factor)

    def test_resolve_outline_from_netlist(self):
        config = _config()
        assert resolve_outline(_netlist(), config) == (8.0, 10.0)
        assert resolve_outline(_netlist(), FloorplanConfig()) is None

    def test_config_serialization_roundtrip(self):
        config = FloorplanConfig(outline=(8.0, 10.0), outline_aspect=1.5,
                                 whitespace_target=0.25)
        doc = config_to_dict(config)
        assert doc["outline"] == [8.0, 10.0]
        restored = config_from_dict(doc)
        assert restored.outline == (8.0, 10.0)
        assert restored.outline_aspect == 1.5
        assert restored.whitespace_target == 0.25

    def test_open_outline_config_serializes_without_outline_keys(self):
        doc = config_to_dict(FloorplanConfig())
        assert "outline" not in doc
        assert "outline_aspect" not in doc
        assert "whitespace_target" not in doc


class TestAugmentationCap:
    def test_outline_config_caps_augmentation(self):
        plan = Floorplanner(_netlist(), _config()).run()
        assert plan.chip_width == 8.0
        assert plan.chip_height <= 10.0 + 1e-9
        assert plan.is_legal

    def test_impossible_cap_raises_floorplan_error_with_status(self):
        with pytest.raises(FloorplanError) as excinfo:
            Floorplanner(_netlist(), _config(), height_cap=1.0).run()
        assert excinfo.value.status == "infeasible"

    def test_telemetry_carries_outline_provenance(self):
        plan = Floorplanner(_netlist(), _config()).run()
        for step in plan.trace.steps:
            assert step.telemetry.context.outline == (8.0, 10.0)

    def test_open_outline_telemetry_has_no_outline(self):
        plan = Floorplanner(_netlist(), FloorplanConfig(
            seed_size=3, group_size=2, use_envelopes=False,
            solve_cache=False)).run()
        for step in plan.trace.steps:
            assert step.telemetry.context.outline is None


class TestFeasibilitySearch:
    @pytest.mark.parametrize("formulation", ["bigm", "unary"])
    def test_feasible_outline_certified_in_outline(self, formulation):
        result = solve_fixed_outline(
            _netlist(), _config(formulation=formulation), max_probes=4)
        assert result.status == FEASIBLE
        assert result.feasible
        plan = result.plan
        assert plan is not None and plan.is_legal
        report = check_outline(list(plan.placements.values()),
                               result.outline,
                               claimed_whitespace=result.whitespace)
        assert report.ok, [v.detail for v in report.violations]

    def test_search_converges_downward(self):
        """Probes must monotonically improve (or fail) — the kept plan is
        the lowest realized height of any feasible probe."""
        result = solve_fixed_outline(_netlist(), _config(), max_probes=5)
        assert result.feasible
        feasible_heights = [p.realized_height for p in result.probes
                            if p.feasible]
        assert feasible_heights
        assert result.plan.chip_height == min(feasible_heights)
        assert 1 <= result.n_probes <= 5
        assert result.used_whitespace <= result.whitespace

    def test_whitespace_target_stops_search_early(self):
        loose = solve_fixed_outline(_netlist(), _config(), max_probes=5)
        eager = solve_fixed_outline(
            _netlist(), _config(whitespace_target=0.9), max_probes=5)
        assert eager.feasible
        # A 90% whitespace budget is satisfied by the very first probe.
        assert eager.n_probes <= loose.n_probes
        assert eager.n_probes == 1

    def test_area_infeasibility_is_certified_without_solving(self):
        result = solve_fixed_outline(_netlist(), _config(outline=(4.0, 4.0)))
        assert result.status == INFEASIBLE_OUTLINE
        assert not result.feasible
        assert result.plan is None
        assert result.n_probes == 0  # no MILP was solved
        cert = result.certificate
        assert cert["reason"] == "area"
        assert cert["proven"] is True
        assert cert["module_area"] > cert["outline_area"]

    def test_geometric_infeasibility_returns_structured_result(self):
        """Area fits (12 < 14) but two non-rotatable 3x2 modules cannot
        pack into a 4 x 3.5 die — no exception, a structured result."""
        netlist = Netlist([Module.rigid("p", 3.0, 2.0, rotatable=False),
                           Module.rigid("q", 3.0, 2.0, rotatable=False)],
                          [], name="geom")
        result = solve_fixed_outline(
            netlist, _config(outline=(4.0, 3.5), seed_size=2))
        assert result.status == INFEASIBLE_OUTLINE
        assert result.certificate["reason"] == "solver"
        assert result.certificate["proven"] is False
        assert result.n_probes == 1

    def test_result_to_dict_roundtrips_through_json(self):
        import json

        result = solve_fixed_outline(_netlist(), _config(), max_probes=2)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["status"] == FEASIBLE
        assert doc["outline"] == [8.0, 10.0]
        assert len(doc["probes"]) == result.n_probes
        served = floorplan_from_dict(doc["floorplan"])
        assert served.is_legal
        assert served.chip_height == result.plan.chip_height

    def test_outline_mode_required(self):
        with pytest.raises(ValueError, match="outline"):
            solve_fixed_outline(_netlist(), FloorplanConfig())


class TestServiceParity:
    def test_outline_job_matches_direct_solve(self, tmp_path):
        netlist = _netlist()
        config_fields = dict(outline=[8.0, 10.0], seed_size=3, group_size=2,
                             use_envelopes=False, solve_cache=False,
                             subproblem_time_limit=20.0)
        direct = solve_fixed_outline(
            netlist, FloorplanConfig(**config_fields))
        assert direct.feasible

        service_config = FloorplanConfig(cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "floorplan",
                "netlist": netlist_to_dict(netlist),
                "config": config_fields,
            })
            assert code == 202
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        outline_doc = res["result"]["outline"]
        assert outline_doc["status"] == FEASIBLE
        assert outline_doc["outline"] == [8.0, 10.0]
        served = floorplan_from_dict(res["result"]["floorplan"])
        assert served.is_legal
        assert served.chip_width == direct.plan.chip_width
        assert served.chip_height == direct.plan.chip_height
        for name, placement in direct.plan.placements.items():
            assert served.placements[name].rect == placement.rect
        assert res["result"]["summary"]["legal"]

    def test_infeasible_outline_job_completes_with_certificate(self,
                                                               tmp_path):
        netlist = _netlist()
        service_config = FloorplanConfig(cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "floorplan",
                "netlist": netlist_to_dict(netlist),
                "config": {"outline": [4.0, 4.0], "solve_cache": False},
            })
            assert code == 202
            code, res = client.result(doc["job_id"], wait=60.0)
        assert code == 200  # the job is DONE — infeasibility is an answer
        outline_doc = res["result"]["outline"]
        assert outline_doc["status"] == INFEASIBLE_OUTLINE
        assert outline_doc["certificate"]["reason"] == "area"
        assert "floorplan" not in res["result"]

    def test_server_default_outline_applies_to_bare_jobs(self, tmp_path):
        netlist = _netlist()
        service_config = FloorplanConfig(
            outline=(8.0, 10.0), cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "floorplan",
                "netlist": netlist_to_dict(netlist),
                "config": {"seed_size": 3, "group_size": 2,
                           "use_envelopes": False, "solve_cache": False},
            })
            assert code == 202
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        assert res["result"]["outline"]["status"] == FEASIBLE
        assert res["result"]["outline"]["outline"] == [8.0, 10.0]

    def test_server_default_outline_yields_to_a_job_chip_width(self,
                                                               tmp_path):
        """A job that fixes only its chip width runs open-outline at that
        width; the server's default die does not conflict with it."""
        netlist = _netlist()
        service_config = FloorplanConfig(
            outline=(8.0, 10.0), cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "floorplan",
                "netlist": netlist_to_dict(netlist),
                "config": {"chip_width": 7.0, "seed_size": 3,
                           "group_size": 2, "use_envelopes": False,
                           "solve_cache": False},
            })
            assert code == 202, doc
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        assert "outline" not in res["result"]
        assert "outline" not in res["result"]["config"]
        assert floorplan_from_dict(res["result"]["floorplan"]).chip_width \
            == 7.0

    def test_width_search_rejects_outline_configs(self, tmp_path):
        netlist = _netlist()
        service_config = FloorplanConfig(cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "width_search",
                "netlist": netlist_to_dict(netlist),
                "config": {"outline": [8.0, 10.0]},
            })
        assert code == 400
        assert "open-outline" in doc["error"]["message"]
