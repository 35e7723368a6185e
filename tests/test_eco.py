"""Incremental ECO: delta plumbing, window selection, the escalation
ladder, cold-vs-ECO parity on the golden fixtures, telemetry/cache
provenance, and direct-vs-service parity for ``kind="eco"`` jobs."""

from __future__ import annotations

import json
from typing import Any

import pytest

from repro.core import (
    ECO_INFEASIBLE,
    ECO_PATCHED,
    ECO_UNCHANGED,
    FloorplanConfig,
    Floorplanner,
    NetlistDelta,
    disturbed_modules,
    eco_window,
    solve_eco,
)
from repro.milp.model import Model
from repro.milp.solvers.registry import solve
from repro.milp.telemetry import SolveContext, SolveTelemetry
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.serialize import (delta_from_dict, delta_to_dict,
                             floorplan_from_dict, floorplan_to_dict)

from eco_helpers import windowed_resize
from service_helpers import running_service


def _netlist() -> Netlist:
    modules = [
        Module.rigid("a", 4.0, 3.0, rotatable=False),
        Module.rigid("b", 2.0, 5.0, rotatable=False),
        Module.rigid("c", 3.0, 3.0, rotatable=False),
        Module.rigid("d", 5.0, 2.0, rotatable=False),
        Module.rigid("e", 2.0, 2.0, rotatable=False),
    ]
    nets = [Net("n1", ("a", "b")), Net("n2", ("c", "d"))]
    return Netlist(modules, nets, name="eco5")


def _config(**overrides) -> FloorplanConfig:
    defaults = dict(seed_size=3, group_size=2, use_envelopes=False,
                    solve_cache=False, subproblem_time_limit=20.0)
    defaults.update(overrides)
    return FloorplanConfig(**defaults)


@pytest.fixture(scope="module")
def baseline():
    return Floorplanner(_netlist(), _config()).run()


# ---------------------------------------------------------------------------
# the delta
# ---------------------------------------------------------------------------

class TestDelta:
    def test_noop(self):
        assert NetlistDelta().is_noop
        assert not NetlistDelta(removed=("a",)).is_noop

    def test_apply_resize_and_remove(self):
        netlist = _netlist()
        delta = NetlistDelta(removed=("e",), resized={"a": (5.0, 2.0)})
        patched = delta.apply(netlist)
        assert "e" not in patched
        assert patched.module("a").width == 5.0
        assert patched.module("a").height == 2.0
        # untouched modules are the same objects
        assert patched.module("b") is netlist.module("b")

    def test_apply_net_edits(self):
        netlist = _netlist()
        delta = NetlistDelta(removed_nets=("n1",),
                             added_nets=(Net("n9", ("a", "e"), weight=2.0),))
        patched = delta.apply(netlist)
        names = [n.name for n in patched.nets]
        assert "n1" not in names and "n9" in names

    def test_removing_endpoint_prunes_net(self):
        """A net whose removal leaves fewer than two endpoints disappears;
        one that keeps two survives with the endpoint dropped."""
        netlist = Netlist([Module.rigid(x, 1.0, 1.0) for x in "pqr"],
                          [Net("n", ("p", "q", "r")), Net("m", ("p", "q"))])
        patched = NetlistDelta(removed=("q",)).apply(netlist)
        assert [n.name for n in patched.nets] == ["n"]
        assert patched.net("n").modules == ("p", "r")

    def test_apply_validation(self):
        netlist = _netlist()
        with pytest.raises(ValueError, match="unknown modules"):
            NetlistDelta(removed=("zz",)).apply(netlist)
        with pytest.raises(ValueError, match="resize missing"):
            NetlistDelta(resized={"zz": (1.0, 1.0)}).apply(netlist)
        with pytest.raises(ValueError, match="already exist"):
            NetlistDelta(added=(Module.rigid("a", 1.0, 1.0),)).apply(netlist)
        with pytest.raises(ValueError, match="unknown nets"):
            NetlistDelta(removed_nets=("zz",)).apply(netlist)
        with pytest.raises(ValueError, match="missing modules"):
            NetlistDelta(added_nets=(Net("x", ("a", "zz")),)).apply(netlist)
        with pytest.raises(ValueError, match="positive"):
            NetlistDelta(resized={"a": (0.0, 1.0)})

    def test_codec_round_trip(self):
        delta = NetlistDelta(
            added=(Module.rigid("x", 1.5, 2.5),
                   Module.flexible_area("f", 4.0, aspect_low=0.5,
                                        aspect_high=2.0)),
            removed=("a", "b"), resized={"c": (3.5, 2.0)},
            added_nets=(Net("nx", ("x", "c"), weight=2.0, criticality=0.3,
                            max_length=9.0),),
            removed_nets=("n1",))
        doc = json.loads(json.dumps(delta_to_dict(delta)))
        assert delta_from_dict(doc) == delta
        assert delta.to_dict() == delta_to_dict(delta)

    def test_codec_rejects_unknown_fields(self):
        """A mistyped document must not degrade into a silent no-op."""
        with pytest.raises(ValueError, match="unknown delta fields"):
            delta_from_dict({"remove": ["a"]})


# ---------------------------------------------------------------------------
# window selection
# ---------------------------------------------------------------------------

class TestWindow:
    def test_removal_disturbs_nothing(self, baseline):
        assert disturbed_modules(baseline, NetlistDelta(removed=("e",)),
                                 baseline.config) == set()

    def test_resize_and_add_disturb(self, baseline):
        delta = NetlistDelta(added=(Module.rigid("x", 1.0, 1.0),),
                             resized={"a": (5.0, 3.0)})
        assert disturbed_modules(baseline, delta, baseline.config) \
            == {"a", "x"}

    def test_net_edit_disturbs_only_when_geometry_relevant(self, baseline):
        plain = NetlistDelta(added_nets=(Net("nx", ("a", "e")),))
        assert disturbed_modules(baseline, plain, baseline.config) == set()
        bounded = NetlistDelta(added_nets=(Net("nx", ("a", "e"),
                                               max_length=5.0),))
        assert disturbed_modules(baseline, bounded, baseline.config) \
            == {"a", "e"}

    def test_window_grows_monotonically_with_level(self, baseline):
        delta = NetlistDelta(resized={"e": (2.5, 2.5)})
        config = _config(eco_margin=0.25)
        windows = [eco_window(baseline, delta, config, level)
                   for level in range(4)]
        for smaller, larger in zip(windows, windows[1:]):
            assert smaller <= larger
        assert "e" in windows[0]

    def test_window_excludes_removed(self, baseline):
        delta = NetlistDelta(removed=("b",), resized={"a": (5.0, 3.0)})
        window = eco_window(baseline, delta, baseline.config, 0)
        assert "b" not in window


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class TestEngine:
    def test_noop_returns_baseline_instance_at_zero_solves(self, baseline):
        result = solve_eco(baseline, NetlistDelta())
        assert result.status == ECO_UNCHANGED
        assert result.plan is baseline        # the very same object
        assert result.solver_invocations == 0
        assert result.attempts == []
        assert result.patched
        # byte-identical serialization, not merely equal geometry
        assert json.dumps(floorplan_to_dict(result.plan), sort_keys=True) \
            == json.dumps(floorplan_to_dict(baseline), sort_keys=True)

    def test_removal_only_is_zero_solve(self, baseline):
        result = solve_eco(baseline, NetlistDelta(removed=("e",)))
        assert result.status == ECO_PATCHED
        assert result.solver_invocations == 0
        assert result.attempts[0].kind == "removal"
        assert result.attempts[0].accepted
        assert "e" not in result.plan.placements
        assert result.plan.is_legal
        # surviving placements are verbatim
        for name in result.plan.placements:
            assert result.plan.placements[name].rect \
                == baseline.placements[name].rect

    def test_windowed_patch_freezes_the_rest(self, baseline):
        config = _config(certify=True)
        delta = NetlistDelta(resized={"e": (2.0, 2.5)})
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_PATCHED
        assert result.certification is not None and result.certification.ok
        assert set(result.window) | set(result.frozen) \
            == set(result.plan.placements)
        for name in result.frozen:
            assert result.plan.placements[name].rect \
                == baseline.placements[name].rect
        assert result.plan.placements["e"].rect.h == 2.5
        assert result.plan.is_legal

    def test_quality_gate_escalates_to_full(self, baseline):
        """An unreachable quality bound fails every windowed rung; the
        final full rung is always accepted and matches a cold solve."""
        config = _config(eco_quality_bound=1.0, eco_max_levels=2)
        delta = NetlistDelta(resized={"e": (2.0, 2.5)})
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_PATCHED
        assert result.attempts[-1].kind == "full"
        assert result.attempts[-1].accepted
        assert all(not a.accepted for a in result.attempts[:-1])
        assert result.frozen == ()
        cold = Floorplanner(delta.apply(baseline.netlist), config).run()
        assert result.plan.chip_height == cold.chip_height
        for name, placement in cold.placements.items():
            assert result.plan.placements[name].rect == placement.rect

    def test_max_levels_zero_skips_windowed_rungs(self, baseline):
        config = _config(eco_max_levels=0)
        result = solve_eco(baseline, NetlistDelta(resized={"e": (2.0, 2.5)}),
                           config)
        assert result.status == ECO_PATCHED
        assert [a.kind for a in result.attempts] == ["full"]

    def test_escalation_ladder_is_recorded_in_order(self, baseline):
        config = _config(eco_quality_bound=1.0, eco_margin=0.25,
                         eco_max_levels=3)
        delta = NetlistDelta(resized={"e": (2.0, 2.5)})
        result = solve_eco(baseline, delta, config)
        kinds = [a.kind for a in result.attempts]
        assert kinds[-1] == "full"
        assert all(k == "window" for k in kinds[:-1])
        levels = [a.level for a in result.attempts[:-1]]
        assert levels == sorted(levels)
        # identical windows are skipped, so every recorded rung differs
        windows = [a.window for a in result.attempts[:-1]]
        assert len(set(windows)) == len(windows)

    def test_infeasible_delta_is_an_answer(self):
        config = _config(outline=(8.0, 10.0))
        baseline = Floorplanner(_netlist(), config).run()
        delta = NetlistDelta(added=(Module.rigid("huge", 9.0, 9.0,
                                                 rotatable=False),))
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_INFEASIBLE
        assert result.plan is None
        assert not result.patched
        assert result.attempts[-1].kind == "full"
        assert not result.attempts[-1].accepted

    def test_solves_avoided_accounting(self, baseline):
        result = solve_eco(baseline, NetlistDelta(resized={"e": (2.0, 2.5)}))
        assert result.cold_solve_estimate == 2  # seed(3) + 1 group of 2
        assert result.solves_avoided \
            == result.cold_solve_estimate - result.solver_invocations
        doc = result.to_dict(include_plan=False)
        assert doc["solves_avoided"] == result.solves_avoided
        assert "floorplan" not in doc


# ---------------------------------------------------------------------------
# cold-vs-ECO parity on the golden fixtures
# ---------------------------------------------------------------------------

class TestGoldenFixtureParity:
    @pytest.mark.parametrize("name", ["rigid", "flexible", "apte"])
    def test_eco_never_worse_than_bound_times_cold(self, name):
        from test_golden_traces import FIXTURES

        netlist, config = FIXTURES[name]()
        config = FloorplanConfig(**{**config.__dict__, "certify": True})
        baseline = Floorplanner(netlist, config).run()
        victim = baseline.netlist.modules[-1]
        delta = NetlistDelta(
            resized={victim.name: (victim.width * 0.9, victim.height)})
        result = solve_eco(baseline, delta, config)
        assert result.status == ECO_PATCHED
        assert result.certification is not None and result.certification.ok
        assert result.plan.is_legal
        cold = Floorplanner(delta.apply(netlist), config).run()
        assert result.plan.chip_height \
            <= config.eco_quality_bound * cold.chip_height + 1e-9
        # full-rung escalations must reproduce the cold plan exactly
        if result.attempts[-1].kind == "full":
            for mod_name, placement in cold.placements.items():
                assert result.plan.placements[mod_name].rect == placement.rect


# ---------------------------------------------------------------------------
# telemetry + cache provenance
# ---------------------------------------------------------------------------

def _tiny_model() -> Model:
    model = Model("eco_provenance")
    x = model.add_continuous("x", lb=0.0, ub=4.0)
    b = model.add_binary("b")
    model.add_constraint(x + 2.0 * b >= 2.0)
    model.set_objective(x + b)
    return model


class TestProvenance:
    def test_solve_stamps_eco_telemetry(self):
        solution = solve(_tiny_model(), backend="highs",
                         context=SolveContext(eco=(2, 7)))
        assert solution.telemetry.context.eco == (2, 7)
        doc = solution.telemetry.to_dict()
        assert doc["eco"] == {"window": 2, "frozen": 7}
        assert SolveTelemetry.from_dict(doc).context.eco == (2, 7)

    def test_non_eco_solves_omit_the_field(self):
        solution = solve(_tiny_model(), backend="highs")
        assert solution.telemetry.context.eco is None
        assert "eco" not in solution.telemetry.to_dict()

    def test_eco_context_splits_the_cache_key(self, tmp_path):
        """The same model solved as an ECO subform and cold must not share
        a cache entry — the context is part of the key."""
        from repro.milp.cache import SolveCache

        cache = SolveCache(tmp_path)
        solve(_tiny_model(), backend="highs", cache=cache)
        assert cache.stats.misses == 1
        solve(_tiny_model(), backend="highs", cache=cache,
              context=SolveContext(eco=(1, 2)))
        assert cache.stats.misses == 2
        solve(_tiny_model(), backend="highs", cache=cache,
              context=SolveContext(eco=(1, 2)))
        assert cache.stats.hits == 1 and cache.stats.misses == 2

    def test_windowed_rung_counts_binaries_and_obstacles(self, baseline):
        delta = windowed_resize(baseline)
        result = solve_eco(baseline, delta)
        windowed = [a for a in result.attempts if a.kind == "window"]
        assert windowed and windowed[0].n_frozen > 0, \
            f"resizing {delta.resized} needs a windowed rung with frozen " \
            f"modules; attempts: {[a.to_dict() for a in result.attempts]}"
        assert windowed[0].n_obstacles > 0
        assert windowed[0].n_binaries > 0

    def test_windowed_rung_solves_under_its_shape(self, baseline,
                                                  monkeypatch):
        """A windowed rung goes through the augmentation step's window
        solve, and every solve it makes carries the rung's ``(window,
        frozen)`` shape, which keys it apart from a cold solve."""
        import repro.core.augmentation as augmentation

        shapes = []

        def recorded(model, **kwargs):
            shapes.append(kwargs["context"].eco)
            return solve(model, **kwargs)

        monkeypatch.setattr(augmentation, "solve", recorded)
        result = solve_eco(baseline, windowed_resize(baseline))
        windowed = [a for a in result.attempts if a.kind == "window"]
        assert windowed and shapes
        assert set(shapes) == {(len(a.window), a.n_frozen) for a in windowed}


# ---------------------------------------------------------------------------
# direct-vs-service parity
# ---------------------------------------------------------------------------

def _strip_timing(value: Any, key: str | None = None) -> Any:
    """Zero wall-clock fields and incumbent timestamps and null cache
    provenance, so two runs of the same deterministic solve compare
    byte-for-byte (the golden discipline)."""
    if key in ("wall_seconds", "elapsed_seconds", "solve_seconds",
               "key_seconds", "total_solve_seconds"):
        return 0.0
    if key == "cache":
        return None
    if key == "incumbents":
        return [[0.0, objective] for _seconds, objective in value]
    if isinstance(value, dict):
        return {k: _strip_timing(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


class TestServiceParity:
    def test_eco_job_matches_direct_solve(self, tmp_path):
        baseline = Floorplanner(_netlist(), _config()).run()
        delta = NetlistDelta(resized={"e": (2.0, 2.5)},
                             added=(Module.rigid("x", 1.5, 1.5,
                                                 rotatable=False),))
        direct = solve_eco(baseline, delta)
        assert direct.status == ECO_PATCHED

        service_config = FloorplanConfig(cache_dir=str(tmp_path / "cache"))
        with running_service(service_config) as (_service, client):
            code, doc = client.submit({
                "kind": "eco",
                "baseline": floorplan_to_dict(baseline),
                "delta": delta_to_dict(delta),
            })
            assert code == 202
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        assert res["result"]["kind"] == "eco"
        eco_doc = res["result"]["eco"]
        # byte parity of the full provenance document, timing zeroed
        direct_doc = json.loads(json.dumps(
            direct.to_dict(include_plan=True)))
        assert json.dumps(_strip_timing(eco_doc), sort_keys=True) \
            == json.dumps(_strip_timing(direct_doc), sort_keys=True)
        served = floorplan_from_dict(eco_doc["floorplan"])
        assert served.is_legal
        for name, placement in direct.plan.placements.items():
            assert served.placements[name].rect == placement.rect
        assert res["result"]["summary"]["legal"]

    def test_eco_job_validation(self, tmp_path):
        baseline = Floorplanner(_netlist(), _config()).run()
        with running_service() as (_service, client):
            code, err = client.submit({"kind": "eco",
                                       "delta": {"removed": ["a"]}})
            assert code == 400
            assert "baseline" in err["error"]["message"]
            code, err = client.submit({
                "kind": "eco",
                "baseline": floorplan_to_dict(baseline),
                "delta": {"nonsense": True},
            })
            assert code == 400
            assert "unknown delta fields" in err["error"]["message"]
            # A retired config field at a value that no longer runs.
            baseline_doc = floorplan_to_dict(baseline)
            baseline_doc["config"]["legalize"] = False
            code, err = client.submit({"kind": "eco",
                                       "baseline": baseline_doc,
                                       "delta": {"removed": ["a"]}})
            assert code == 400
            assert "invalid baseline document" in err["error"]["message"]
            assert "legalize" in err["error"]["message"]

    def test_eco_job_on_a_baseline_with_retired_config_fields(self):
        """Saved plans carry four retired config fields; at the one value
        that still runs, the baseline loads."""
        baseline_doc = json.loads(json.dumps(floorplan_to_dict(
            Floorplanner(_netlist(), _config()).run())))
        baseline_doc["config"].update(
            chip_aspect=1.0, covering_style="horizontal",
            merge_covering=True, legalize=True)
        with running_service() as (_service, client):
            code, doc = client.submit({"kind": "eco",
                                       "baseline": baseline_doc,
                                       "delta": {"removed": ["a"]}})
            assert code == 202
            code, res = client.result(doc["job_id"], wait=120.0)
        assert code == 200
        assert res["result"]["kind"] == "eco"

    def test_noop_eco_job_round_trips_baseline_bytes(self, tmp_path):
        """A served no-op delta returns the baseline document unchanged —
        the service cannot drift a plan it did not re-solve."""
        baseline = Floorplanner(_netlist(), _config()).run()
        baseline_doc = json.loads(json.dumps(floorplan_to_dict(baseline)))
        with running_service() as (_service, client):
            code, doc = client.submit({
                "kind": "eco",
                "baseline": baseline_doc,
                "delta": {},
            })
            assert code == 202
            code, res = client.result(doc["job_id"], wait=60.0)
        assert code == 200
        eco_doc = res["result"]["eco"]
        assert eco_doc["status"] == ECO_UNCHANGED
        assert eco_doc["solver_invocations"] == 0
        assert json.dumps(eco_doc["floorplan"], sort_keys=True) \
            == json.dumps(baseline_doc, sort_keys=True)
