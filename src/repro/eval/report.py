"""Experiment reporting: ASCII tables and solve-telemetry JSON.

:func:`format_table` renders dataclass rows (or any mapping sequence) in
the paper's plain table style so bench output reads like Tables 1-3.
:func:`telemetry_report` flattens a floorplan's per-step
:class:`~repro.milp.telemetry.SolveTelemetry` records into one JSON-safe
document — the machine-readable perf artifact the CI benchmark jobs upload
and ``repro-floorplan telemetry`` emits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

if TYPE_CHECKING:
    from repro.core.floorplanner import Floorplan


def format_table(rows: Sequence[Any], title: str = "",
                 floatfmt: str = ".1f") -> str:
    """Render rows as an aligned ASCII table.

    Args:
        rows: dataclass instances or mappings, all with the same keys.
        title: optional heading line.
        floatfmt: format spec applied to float cells.

    Returns:
        The formatted table text (empty string for no rows).
    """
    if not rows:
        return ""
    dicts: list[Mapping[str, Any]] = [
        asdict(r) if is_dataclass(r) else dict(r) for r in rows]
    headers = list(dicts[0])

    def cell(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    table = [[cell(d[h]) for h in headers] for d in dicts]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(headers)]
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def telemetry_report(plan: "Floorplan") -> dict[str, Any]:
    """A JSON-safe per-step solve-telemetry document for ``plan``.

    The document carries the run-level outcome (instance, chip geometry,
    utilization, wall time, backend) plus one entry per augmentation step
    with the subproblem shape and, when the backend recorded it, the
    structured :class:`~repro.milp.telemetry.SolveTelemetry` (LP calls,
    nodes, incumbent trace, gap).
    """
    from repro.serialize import trace_to_dict

    trace = trace_to_dict(plan.trace)
    return {
        "version": 1,
        "instance": plan.netlist.name,
        "n_modules": len(plan.placements),
        "n_nets": len(plan.netlist.nets),
        "backend": plan.config.backend,
        "chip_width": plan.chip_width,
        "chip_height": plan.chip_height,
        "chip_area": plan.chip_area,
        "utilization": plan.utilization,
        "elapsed_seconds": plan.elapsed_seconds,
        "n_steps": plan.trace.n_steps,
        "max_binaries": plan.trace.max_binaries,
        "total_solve_seconds": plan.trace.total_solve_seconds,
        "total_nodes": plan.trace.total_nodes,
        "total_lp_calls": plan.trace.total_lp_calls,
        "cache_hits": plan.trace.cache_hits,
        "cache_misses": plan.trace.cache_misses,
        "steps": trace["steps"],
    }


def canonicalize_telemetry(doc: dict[str, Any]) -> dict[str, Any]:
    """A copy of a :func:`telemetry_report` document with all wall-clock
    fields zeroed.

    Runtime varies between machines and runs, but everything else in a
    telemetry document (step shapes, statuses, objectives, node and LP-call
    counts) is deterministic for a fixed seed and backend.  Zeroing the
    timings makes two runs of the same configuration byte-identical, so CI
    can diff the artifact to catch behavioral changes.

    Solve-cache provenance is stripped for the same reason: whether a solve
    was a hit or a miss depends on cache warmth, not on the configuration,
    and a hit serves the stored solve's telemetry — so once the provenance
    is nulled, a cold run and a warm run of the same configuration
    canonicalize identically.

    Frontier and batch counters are execution provenance too: the frontier
    counters (peak size, reclaimed rows) and the
    :func:`~repro.milp.solvers.registry.solve_many` batch shape describe
    *how* a solve ran, not *what* it computed, so they are nulled to keep
    batched/sequential runs byte-comparable.
    """
    out = json.loads(json.dumps(doc))
    out["elapsed_seconds"] = 0.0
    out["total_solve_seconds"] = 0.0
    out["cache_hits"] = 0
    out["cache_misses"] = 0
    for step in out.get("steps", []):
        step["solve_seconds"] = 0.0
        telemetry = step.get("telemetry")
        if telemetry:
            telemetry["wall_seconds"] = 0.0
            telemetry["incumbents"] = [
                [0.0, objective]
                for _seconds, objective in telemetry.get("incumbents", [])]
            telemetry["cache"] = None
            telemetry["frontier"] = None
            telemetry["batch"] = None
            # Removed (not nulled): goldens recorded before the formulation
            # axis existed have no such key, and the default-"bigm" pipeline
            # must keep canonicalizing byte-identically to them.
            telemetry.pop("formulation", None)
    return out


def write_telemetry_json(plan: "Floorplan", path: str | Path) -> None:
    """Write :func:`telemetry_report` output to ``path`` as JSON."""
    Path(path).write_text(json.dumps(telemetry_report(plan), indent=1) + "\n")
