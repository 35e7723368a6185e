"""JSON persistence for netlists and floorplans.

Experiments that take minutes shouldn't be rerun to re-examine a result:
these helpers serialize netlists and completed floorplans to plain JSON and
restore them, self-contained (a saved floorplan embeds its netlist and the
configuration that produced it).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

from repro.core.augmentation import AugmentationStep, AugmentationTrace
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplan
from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.milp.expr import LinExpr, VarKind
from repro.milp.model import Constraint, Model, Sense
from repro.milp.telemetry import SolveTelemetry
from repro.netlist.module import Module, PinCounts
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist
from repro.routing.technology import RoutingStyle, Technology

#: Format version stamped into every document.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# netlists
# ---------------------------------------------------------------------------

def netlist_to_dict(netlist: Netlist) -> dict[str, Any]:
    """A JSON-safe representation of a netlist."""
    return {
        "version": FORMAT_VERSION,
        "name": netlist.name,
        "modules": [
            {
                "name": m.name,
                "width": m.width,
                "height": m.height,
                "flexible": m.flexible,
                "aspect_low": m.aspect_low,
                "aspect_high": m.aspect_high,
                "rotatable": m.rotatable,
                "pins": {"left": m.pins.left, "right": m.pins.right,
                         "bottom": m.pins.bottom, "top": m.pins.top},
            }
            for m in netlist.modules
        ],
        "nets": [
            {
                "name": n.name,
                "modules": list(n.modules),
                "weight": n.weight,
                "criticality": n.criticality,
                "max_length": n.max_length,
            }
            for n in netlist.nets
        ],
    }


def netlist_from_dict(data: dict[str, Any]) -> Netlist:
    """Rebuild a netlist from :func:`netlist_to_dict` output."""
    modules = [
        Module(name=m["name"], width=m["width"], height=m["height"],
               flexible=m["flexible"], aspect_low=m["aspect_low"],
               aspect_high=m["aspect_high"], rotatable=m["rotatable"],
               pins=PinCounts(**m["pins"]))
        for m in data["modules"]
    ]
    nets = [
        Net(name=n["name"], modules=tuple(n["modules"]), weight=n["weight"],
            criticality=n["criticality"], max_length=n.get("max_length"))
        for n in data["nets"]
    ]
    return Netlist(modules, nets, name=data["name"])


# ---------------------------------------------------------------------------
# solve telemetry and augmentation traces
# ---------------------------------------------------------------------------

def telemetry_to_dict(telemetry: SolveTelemetry) -> dict[str, Any]:
    """A JSON-safe representation of one solve's telemetry."""
    return telemetry.to_dict()


def telemetry_from_dict(data: dict[str, Any]) -> SolveTelemetry:
    """Rebuild telemetry from :func:`telemetry_to_dict` output."""
    return SolveTelemetry.from_dict(data)


def _step_to_dict(step: AugmentationStep) -> dict[str, Any]:
    """One augmentation step without its (optional, heavy) snapshots."""
    return {
        "index": step.index,
        "group": list(step.group),
        "n_placed_before": step.n_placed_before,
        "n_obstacles": step.n_obstacles,
        "n_binaries": step.n_binaries,
        "n_constraints": step.n_constraints,
        "solve_seconds": step.solve_seconds,
        "status": step.status,
        "objective": step.objective,
        "chip_height_after": step.chip_height_after,
        "n_polygon_edges": step.n_polygon_edges,
        "theorem2_holds": step.theorem2_holds,
        "telemetry": telemetry_to_dict(step.telemetry)
        if step.telemetry else None,
        "certification": step.certification.to_dict()
        if step.certification else None,
    }


def _step_from_dict(data: dict[str, Any]) -> AugmentationStep:
    from repro.check.certify import StepCertification

    telemetry = data.get("telemetry")
    certification = data.get("certification")
    return AugmentationStep(
        index=data["index"],
        group=tuple(data["group"]),
        n_placed_before=data["n_placed_before"],
        n_obstacles=data["n_obstacles"],
        n_binaries=data["n_binaries"],
        n_constraints=data["n_constraints"],
        solve_seconds=data["solve_seconds"],
        status=data["status"],
        objective=data["objective"],
        chip_height_after=data["chip_height_after"],
        n_polygon_edges=data["n_polygon_edges"],
        theorem2_holds=data["theorem2_holds"],
        telemetry=telemetry_from_dict(telemetry) if telemetry else None,
        certification=StepCertification.from_dict(certification)
        if certification else None,
    )


def trace_to_dict(trace: AugmentationTrace) -> dict[str, Any]:
    """A JSON-safe representation of an augmentation trace."""
    return {"steps": [_step_to_dict(s) for s in trace.steps]}


def trace_from_dict(data: dict[str, Any]) -> AugmentationTrace:
    """Rebuild a trace from :func:`trace_to_dict` output (snapshots are not
    persisted and come back as None)."""
    return AugmentationTrace(
        steps=[_step_from_dict(s) for s in data.get("steps", [])])


# ---------------------------------------------------------------------------
# MILP models (differential-fuzzing reproducers)
# ---------------------------------------------------------------------------

def _bound_to_json(value: float) -> float | None:
    """Infinite bounds become None (JSON has no inf)."""
    return None if math.isinf(value) else value


def _bound_from_json(value: float | None, sign: float) -> float:
    return sign * math.inf if value is None else float(value)


def _expr_to_dict(expr: LinExpr) -> dict[str, Any]:
    """Terms as ``[column index, coefficient]`` pairs plus the constant."""
    return {
        "terms": sorted([v.index, c] for v, c in expr.terms.items()),
        "constant": expr.constant,
    }


def model_to_dict(model: Model) -> dict[str, Any]:
    """A JSON-safe, fully self-contained representation of a MILP model.

    Used by the differential fuzzer to persist minimized disagreement
    reproducers; :func:`model_from_dict` rebuilds an equivalent model whose
    standard form matches the original's arrays exactly.
    """
    return {
        "version": FORMAT_VERSION,
        "name": model.name,
        "variables": [
            {"name": v.name, "lb": _bound_to_json(v.lb),
             "ub": _bound_to_json(v.ub), "kind": v.kind.value}
            for v in model.variables
        ],
        "constraints": [
            {"name": con.name, "sense": con.sense.value,
             **_expr_to_dict(con.expr)}
            for con in model.constraints
        ],
        "objective": _expr_to_dict(model.objective),
        "objective_sense": model.objective_sense.value,
    }


def model_from_dict(data: dict[str, Any]) -> Model:
    """Rebuild a MILP model from :func:`model_to_dict` output."""
    model = Model(name=data.get("name", "model"))
    variables = [
        model.add_var(v["name"], lb=_bound_from_json(v["lb"], -1.0),
                      ub=_bound_from_json(v["ub"], 1.0),
                      kind=VarKind(v["kind"]))
        for v in data["variables"]
    ]

    def expr_from(entry: dict[str, Any]) -> LinExpr:
        return LinExpr({variables[int(j)]: float(c)
                        for j, c in entry["terms"]}, entry["constant"])

    for con in data["constraints"]:
        model.add_constraint(
            Constraint(expr_from(con), Sense(con["sense"])),
            name=con["name"])
    model.set_objective(expr_from(data["objective"]),
                        sense=data["objective_sense"])
    return model


# ---------------------------------------------------------------------------
# floorplans
# ---------------------------------------------------------------------------

def _rect_to_list(rect: Rect) -> list[float]:
    return [rect.x, rect.y, rect.w, rect.h]


def _rect_from_list(values: list[float]) -> Rect:
    return Rect(*values)


#: Config fields written only when they differ from their dataclass
#: default, in document order.  Each was added after documents that omit it
#: — the committed goldens among them — so those keep their bytes, and
#: FloorplanConfig restores the default on load.
_WRITTEN_WHEN_SET = ("formulation", "outline", "outline_aspect",
                     "whitespace_target", "eco_margin", "eco_quality_bound",
                     "eco_max_levels", "int_tol", "node_limit", "lp_engine",
                     "record_snapshots")
_CONFIG_DEFAULTS = {f.name: f.default
                    for f in dataclasses.fields(FloorplanConfig)
                    if f.name in _WRITTEN_WHEN_SET}
#: Retired config fields that older documents carry, each with the one
#: behaviour that remains.  Loading drops a retired field at that value
#: and refuses any other, which no longer runs.
_RETIRED_FIELDS = {"chip_aspect": 1.0, "covering_style": "horizontal",
                   "merge_covering": True, "legalize": True}


def _config_to_dict(config: FloorplanConfig) -> dict[str, Any]:
    out = {
        "chip_width": config.chip_width,
        "whitespace_factor": config.whitespace_factor,
        "seed_size": config.seed_size,
        "group_size": config.group_size,
        "objective": config.objective.value,
        "wirelength_weight": config.wirelength_weight,
        "ordering": config.ordering.value,
        "ordering_seed": config.ordering_seed,
        "allow_rotation": config.allow_rotation,
        "linearization": config.linearization.value,
        "relinearization_rounds": config.relinearization_rounds,
        "use_envelopes": config.use_envelopes,
        "technology": {
            "pitch_h": config.technology.pitch_h,
            "pitch_v": config.technology.pitch_v,
            "style": config.technology.style.value,
        },
        "use_covering_rectangles": config.use_covering_rectangles,
        "backend": config.backend,
        "subproblem_time_limit": config.subproblem_time_limit,
        "mip_rel_gap": config.mip_rel_gap,
        "certify": config.certify,
        "presolve": config.presolve,
        "warm_start": config.warm_start,
        "solve_cache": config.solve_cache,
        "cache_dir": config.cache_dir,
    }
    for name in _WRITTEN_WHEN_SET:
        value = getattr(config, name)
        if value != _CONFIG_DEFAULTS[name]:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out


def _config_from_dict(data: dict[str, Any]) -> FloorplanConfig:
    fields = dict(data)
    for name, kept in _RETIRED_FIELDS.items():
        if name in fields and fields.pop(name) != kept:
            raise ValueError(f"config field {name!r} is retired; only "
                             f"{kept!r} is supported, got {data[name]!r}")
    tech = fields.pop("technology")
    fields["technology"] = Technology(pitch_h=tech["pitch_h"],
                                      pitch_v=tech["pitch_v"],
                                      style=RoutingStyle(tech["style"]))
    return FloorplanConfig(**fields)


def config_to_dict(config: FloorplanConfig) -> dict[str, Any]:
    """A JSON-safe representation of a run configuration.

    The same codec embedded floorplan documents use; the job service
    round-trips request/response configurations through it.  Service-level
    knobs (queue, pool, deadlines) are deliberately not part of the
    document — they describe the server, not the floorplan.
    """
    return _config_to_dict(config)


def config_from_dict(data: dict[str, Any]) -> FloorplanConfig:
    """Rebuild a configuration from :func:`config_to_dict` output."""
    return _config_from_dict(data)


def floorplan_to_dict(plan: Floorplan) -> dict[str, Any]:
    """A self-contained JSON-safe representation of a floorplan."""
    return {
        "version": FORMAT_VERSION,
        "netlist": netlist_to_dict(plan.netlist),
        "config": _config_to_dict(plan.config),
        "chip_width": plan.chip_width,
        "chip_height": plan.chip_height,
        "elapsed_seconds": plan.elapsed_seconds,
        "certification": plan.certification.to_dict()
        if plan.certification else None,
        "trace": trace_to_dict(plan.trace),
        "placements": {
            name: {
                "rect": _rect_to_list(p.rect),
                "rotated": p.rotated,
                "envelope": _rect_to_list(p.envelope),
            }
            for name, p in plan.placements.items()
        },
    }


def floorplan_from_dict(data: dict[str, Any]) -> Floorplan:
    """Rebuild a floorplan from :func:`floorplan_to_dict` output."""
    from repro.check.geometry import GeometryReport

    netlist = netlist_from_dict(data["netlist"])
    placements = {
        name: Placement(
            module=netlist.module(name),
            rect=_rect_from_list(entry["rect"]),
            rotated=entry["rotated"],
            envelope=_rect_from_list(entry["envelope"]),
        )
        for name, entry in data["placements"].items()
    }
    return Floorplan(
        netlist=netlist,
        config=_config_from_dict(data["config"]),
        placements=placements,
        chip_width=data["chip_width"],
        chip_height=data["chip_height"],
        trace=trace_from_dict(data.get("trace", {})),
        elapsed_seconds=data.get("elapsed_seconds", 0.0),
        certification=GeometryReport.from_dict(data["certification"])
        if data.get("certification") else None,
    )


# ---------------------------------------------------------------------------
# netlist deltas (incremental ECO)
# ---------------------------------------------------------------------------

def delta_to_dict(delta: "NetlistDelta") -> dict[str, Any]:
    """A JSON-safe representation of a :class:`~repro.core.eco.NetlistDelta`.

    Reuses the netlist codec's module/net shapes, so a delta document reads
    like a fragment of a netlist document.
    """
    # Added nets may reference pre-existing modules, so they cannot ride
    # through a temporary Netlist (it enforces referential integrity).
    added = netlist_to_dict(Netlist(list(delta.added), name="_delta_"))
    return {
        "version": FORMAT_VERSION,
        "added": added["modules"],
        "removed": list(delta.removed),
        "resized": {name: [w, h] for name, (w, h)
                    in sorted(delta.resized.items())},
        "added_nets": [
            {"name": n.name, "modules": list(n.modules), "weight": n.weight,
             "criticality": n.criticality, "max_length": n.max_length}
            for n in delta.added_nets
        ],
        "removed_nets": list(delta.removed_nets),
    }


def delta_from_dict(data: dict[str, Any]) -> "NetlistDelta":
    """Rebuild a delta from :func:`delta_to_dict` output.

    Unknown keys raise — a mistyped delta document must not silently
    degrade into a no-op edit.
    """
    from repro.core.eco import NetlistDelta

    unknown = set(data) - {"version", "added", "removed", "resized",
                           "added_nets", "removed_nets"}
    if unknown:
        raise ValueError(f"unknown delta fields: {sorted(unknown)}")
    added = tuple(
        Module(name=m["name"], width=m["width"], height=m["height"],
               flexible=m.get("flexible", False),
               aspect_low=m.get("aspect_low", 1.0),
               aspect_high=m.get("aspect_high", 1.0),
               rotatable=m.get("rotatable", True),
               pins=PinCounts(**m["pins"]) if "pins" in m else PinCounts())
        for m in data.get("added", []))
    added_nets = tuple(
        Net(name=n["name"], modules=tuple(n["modules"]),
            weight=n.get("weight", 1.0),
            criticality=n.get("criticality", 0.0),
            max_length=n.get("max_length"))
        for n in data.get("added_nets", []))
    return NetlistDelta(
        added=added,
        removed=tuple(data.get("removed", [])),
        resized={name: (float(w), float(h))
                 for name, (w, h) in data.get("resized", {}).items()},
        added_nets=added_nets,
        removed_nets=tuple(data.get("removed_nets", [])),
    )


def save_floorplan(plan: Floorplan, path: str) -> None:
    """Write a floorplan to a JSON file."""
    with open(path, "w") as f:
        json.dump(floorplan_to_dict(plan), f, indent=1)


def load_floorplan(path: str) -> Floorplan:
    """Read a floorplan from a JSON file."""
    with open(path) as f:
        return floorplan_from_dict(json.load(f))
