"""Golden-trace regression suite.

Seeded fixtures run the full pipeline and their canonicalized
telemetry + floorplan JSON is byte-compared against committed goldens in
``tests/goldens/``.  Any behavioral drift — a different placement, a changed
step shape, a new telemetry field — shows up as a readable unified diff.
The routed fixture also runs the Series-3 routing flow and pins both
routing passes and the channel adjustment.

To accept intentional changes, regenerate the files with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --update-goldens

and commit the result.  The goldens are produced with ``solve_cache=False``
so they pin down the *solver* behavior; cache-parity tests separately assert
that a warm cache reproduces these same answers.
"""

from __future__ import annotations

import difflib
import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.core.config import FloorplanConfig, Linearization
from repro.core.eco import ECO_PATCHED, NetlistDelta, solve_eco
from repro.core.floorplanner import Floorplanner
from repro.eval.report import canonicalize_telemetry, telemetry_report
from repro.netlist.mcnc import apte_like
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.routing.flow import route_and_adjust
from repro.routing.result import RoutingResult
from repro.routing.router import RouterMode
from repro.routing.technology import Technology
from repro.serialize import floorplan_to_dict

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Keys whose values are wall-clock measurements, zeroed before comparison.
_TIMING_KEYS = frozenset({"elapsed_seconds", "solve_seconds", "wall_seconds",
                          "total_solve_seconds", "key_seconds"})


def _golden_config(**overrides: Any) -> FloorplanConfig:
    """The pinned configuration of every golden run: deterministic ordering,
    the default backend, no cache (the goldens pin solver behavior, not
    cache behavior)."""
    params: dict[str, Any] = dict(
        seed_size=3, group_size=2, ordering_seed=0, backend="highs",
        subproblem_time_limit=20.0, solve_cache=False, certify=False)
    params.update(overrides)
    return FloorplanConfig(**params)


def _rigid_fixture() -> Netlist:
    modules = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
        Module.rigid("d", 5.0, 2.0),
        Module.rigid("e", 2.0, 2.0, rotatable=False),
    ]
    nets = [
        Net("n1", ("a", "b")),
        Net("n2", ("b", "c", "d")),
        Net("n3", ("a", "d", "e"), criticality=0.8),
    ]
    return Netlist(modules, nets, name="golden_rigid")


def _flexible_fixture() -> Netlist:
    modules = [
        Module.rigid("r1", 4.0, 2.0),
        Module.rigid("r2", 3.0, 3.0, rotatable=False),
        Module.flexible_area("f1", 9.0, aspect_low=0.5, aspect_high=2.0),
        Module.flexible_area("f2", 6.0, aspect_low=0.25, aspect_high=4.0),
        Module.flexible_area("f3", 4.0, aspect_low=0.5, aspect_high=2.0),
    ]
    nets = [
        Net("n1", ("r1", "f1")),
        Net("n2", ("r2", "f2")),
        Net("n3", ("f1", "f2", "r1")),
        Net("n4", ("f3", "r2")),
    ]
    return Netlist(modules, nets, name="golden_flexible")


FIXTURES = {
    "rigid": lambda: (_rigid_fixture(), _golden_config()),
    "flexible": lambda: (_flexible_fixture(), _golden_config(
        linearization=Linearization.TANGENT, relinearization_rounds=1)),
    "apte": lambda: (apte_like(), _golden_config(seed_size=4, group_size=3)),
    # Fixed-outline runs pin the outline-capped augmentation under both
    # encodings: telemetry carries outline provenance and the realized
    # plan must fit the 8x10 die.
    "outline_bigm": lambda: (_rigid_fixture(), _golden_config(
        outline=(8.0, 10.0))),
    "outline_unary": lambda: (_rigid_fixture(), _golden_config(
        outline=(8.0, 10.0), formulation="unary")),
    # The ECO golden re-runs the apte fixture, then patches it through the
    # incremental engine; the delta below disturbs only the top-right
    # corner, so the level-0 window is a 3-module subset and the golden
    # pins the windowed re-solve path (plan bytes + escalation provenance).
    "eco_bigm": lambda: (apte_like(), _golden_config(seed_size=4,
                                                     group_size=3)),
    # The routed golden plans apte with envelopes, then runs the Series-3
    # flow (around-the-cell, weighted router): it pins both routing passes
    # and the channel adjustment.
    "routed_apte": lambda: (apte_like(), _golden_config(
        seed_size=4, group_size=3, use_envelopes=True,
        technology=Technology.around_the_cell())),
}

#: Fixtures whose plan is also routed and adjusted by ``route_and_adjust``.
ROUTED = frozenset({"routed_apte"})

#: Deltas applied on top of the cold plan for the ECO goldens.
ECO_DELTAS = {
    "eco_bigm": lambda: NetlistDelta(resized={"m08": (11.0, 13.0)}),
}


def _canonical(value: Any, key: str | None = None) -> Any:
    """Recursively normalize a JSON document for byte comparison: timing
    keys zeroed, cache provenance nulled, incumbent timestamps zeroed, and
    every float rounded to 9 decimals (well above solver noise, well below
    real geometry differences)."""
    if key in _TIMING_KEYS:
        return 0.0
    if key == "cache":
        return None
    if key == "incumbents" and isinstance(value, list):
        return [[0.0, _canonical(obj)] for _sec, obj in value]
    if isinstance(value, dict):
        return {k: _canonical(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        rounded = round(value, 9)
        return 0.0 if rounded == 0.0 else rounded  # avoid -0.0
    return value


def _routing_document(routing: RoutingResult) -> dict[str, Any]:
    """Per-net lengths and edge lists (as a SHA-256 of their JSON) plus the
    pass totals."""
    return {
        "routes": [{
            "net": route.net,
            "length": route.length,
            "n_terminals": route.n_terminals,
            "n_edges": len(route.edges),
            "edges_sha256": hashlib.sha256(json.dumps(
                [list(map(list, e)) for e in route.edges]).encode()
            ).hexdigest(),
        } for route in routing.routes],
        "failed_nets": list(routing.failed_nets),
        "total_wirelength": routing.total_wirelength,
        "total_overflow": routing.total_overflow,
        "max_edge_utilization": routing.max_edge_utilization,
    }


def _routed_document(plan, netlist: Netlist,
                     config: FloorplanConfig) -> dict[str, Any]:
    """The routing flow on a plan: adjusted chip and placements, both
    routing passes, and the adjustment's demands and gaps."""
    routed = route_and_adjust(plan.placements, plan.chip, netlist,
                              config.technology, mode=RouterMode.WEIGHTED)
    adjustment = routed.adjustment
    return {
        "chip": [routed.chip.x, routed.chip.y, routed.chip.w, routed.chip.h],
        "placements": {
            name: {"rect": [p.rect.x, p.rect.y, p.rect.w, p.rect.h],
                   "rotated": p.rotated}
            for name, p in routed.placements.items()},
        "preliminary_routing": _routing_document(routed.preliminary_routing),
        "routing": _routing_document(routed.routing),
        "channel_demands": {
            "|".join(key): value
            for key, value in adjustment.channel_demands.items()},
        "gaps_added": {
            "|".join(key): value
            for key, value in adjustment.gaps_added.items()},
    }


def golden_document(name: str) -> str:
    """Run fixture ``name`` through the pipeline and render its canonical
    JSON text (telemetry report + full floorplan serialization)."""
    netlist, config = FIXTURES[name]()
    plan = Floorplanner(netlist, config).run()
    assert plan.is_legal, f"golden fixture {name} produced an illegal plan"
    doc = {
        "fixture": name,
        "telemetry": canonicalize_telemetry(telemetry_report(plan)),
        "floorplan": floorplan_to_dict(plan),
    }
    if name in ECO_DELTAS:
        result = solve_eco(plan, ECO_DELTAS[name](), config)
        assert result.status == ECO_PATCHED, \
            f"eco golden fixture {name} did not patch: {result.status}"
        doc["eco"] = result.to_dict(include_plan=True)
    if name in ROUTED:
        doc["routed"] = _routed_document(plan, netlist, config)
    return json.dumps(_canonical(doc), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_trace(name: str, update_goldens: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    text = golden_document(name)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        pytest.skip(f"rewrote {path}")
    if not path.exists():
        pytest.fail(f"golden file {path} is missing; run pytest with "
                    "--update-goldens and commit the result")
    expected = path.read_text()
    if text != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), text.splitlines(),
            fromfile=f"goldens/{name}.json (committed)",
            tofile=f"goldens/{name}.json (this run)", lineterm="", n=3))
        pytest.fail(
            f"golden trace {name!r} drifted from the committed baseline.\n"
            "If the change is intentional, regenerate with "
            "--update-goldens and commit.\n" + diff)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_document_is_reproducible_in_process(name: str) -> None:
    """The same fixture canonicalizes byte-identically twice in a row —
    the determinism the committed goldens rely on."""
    assert golden_document(name) == golden_document(name)
