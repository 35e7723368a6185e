"""Job kinds: what a service worker actually executes.

Each runner is a module-level callable ``runner(request, ctx) -> result``
(module-level so forked worker processes resolve them without pickling
closures).  Four kinds ship by default:

* ``floorplan`` — one instance through the full analytical pipeline
  (:class:`~repro.core.floorplanner.Floorplanner`), streaming one progress
  event per augmentation step derived from its
  :class:`~repro.milp.telemetry.SolveTelemetry`;
* ``width_search`` — the chip-width sweep, sharding candidate widths
  across processes via :func:`repro.core.width_search.search_chip_width`
  (which fans out on :func:`repro.parallel.parallel_map`);
* ``solve`` — a batch of raw MILP models round-tripped through the
  :func:`repro.serialize.model_to_dict` codec and solved through the
  batched :func:`repro.milp.solvers.registry.solve_many` entry point;
* ``eco`` — incremental re-floorplanning of a certified baseline under a
  structured netlist delta (:func:`repro.core.eco.solve_eco`), returning
  the patched plan plus the escalation provenance.

All request/response artifacts go through the :mod:`repro.serialize`
codecs, so a client can rebuild every result with the same functions the
on-disk formats use.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable

from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.service.jobs import JobCancelled, JobExpired


class BadRequest(ValueError):
    """A submission the service cannot execute (HTTP 400)."""


@dataclass
class JobContext:
    """What a runner may do besides computing: emit events and notice that
    the caller wants out.

    ``cancel_event`` / ``deadline`` are None under process execution — the
    parent monitors the child from outside instead (terminating it), so the
    runner's :meth:`check` calls simply never fire there.
    """

    emit: Callable[..., None] | None = None
    cancel_event: threading.Event | None = None
    deadline: float | None = None

    def send(self, event_type: str, **data: Any) -> None:
        """Emit one progress event (no-op without an emitter)."""
        if self.emit is not None:
            self.emit(event_type, **data)

    def check(self) -> None:
        """Raise :class:`JobCancelled` / :class:`JobExpired` when the job
        should stop.  Runners call this at natural yield points (between
        augmentation steps)."""
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise JobCancelled("cancellation requested")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise JobExpired("deadline exceeded while running")


#: FloorplanConfig fields a submission may set.  ``technology`` needs the
#: nested codec (service requests use the default); service_* knobs
#: describe the server, not a job.
CONFIG_FIELDS = frozenset(
    f.name for f in fields(FloorplanConfig)
    if f.name != "technology" and not f.name.startswith("service_"))


def config_from_request(doc: dict[str, Any] | None,
                        defaults: FloorplanConfig) -> FloorplanConfig:
    """Build the run configuration of one job.

    Args:
        doc: the submission's ``config`` object (may be None/empty);
            unknown keys raise :class:`BadRequest`.
        defaults: the server's configuration.  Its shared warm-tier
            ``cache_dir`` — what makes every worker (and worker process)
            hit the same on-disk cache — and its default ``formulation``
            apply when the submission names none.  Its fixed ``outline``
            (``repro-floorplan serve --outline``) applies when the
            submission sets no outline, outline knob or chip width of its
            own; job kinds it does not apply to pass ``defaults`` without
            it.
    """
    doc = dict(doc or {})
    unknown = set(doc) - CONFIG_FIELDS
    if unknown:
        raise BadRequest(f"unknown config fields: {sorted(unknown)}")
    doc.setdefault("cache_dir", defaults.cache_dir)
    doc.setdefault("formulation", defaults.formulation)
    if defaults.outline is not None and "outline" not in doc \
            and doc.get("outline_aspect") is None \
            and doc.get("whitespace_target") is None \
            and doc.get("chip_width") is None:
        doc["outline"] = list(defaults.outline)
    try:
        return FloorplanConfig(**doc)
    except (ValueError, TypeError) as exc:
        raise BadRequest(f"invalid config: {exc}") from exc


def step_event(step) -> dict[str, Any]:
    """The progress-event payload of one augmentation step, derived from
    its :class:`~repro.milp.telemetry.SolveTelemetry`."""
    data: dict[str, Any] = {
        "index": step.index,
        "group": list(step.group),
        "status": step.status,
        "objective": step.objective
        if math.isfinite(step.objective) else None,
        "n_binaries": step.n_binaries,
        "n_constraints": step.n_constraints,
        "chip_height_after": step.chip_height_after,
        "solve_seconds": step.solve_seconds,
    }
    telemetry = step.telemetry
    if telemetry is not None:
        data.update({
            "backend": telemetry.backend,
            "nodes": telemetry.nodes,
            "lp_calls": telemetry.lp_calls,
            "gap": telemetry.gap if math.isfinite(telemetry.gap) else None,
            "cache": telemetry.cache,
        })
    return data


def _parse_netlist(request: dict[str, Any]):
    from repro.serialize import netlist_from_dict

    doc = request.get("netlist")
    if not isinstance(doc, dict):
        raise BadRequest("request needs a 'netlist' object "
                         "(repro.serialize.netlist_to_dict format)")
    try:
        return netlist_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"invalid netlist document: {exc}") from exc


def _summary(plan) -> dict[str, Any]:
    return {
        "chip_width": plan.chip_width,
        "chip_height": plan.chip_height,
        "chip_area": plan.chip_area,
        "utilization": plan.utilization,
        "elapsed_seconds": plan.elapsed_seconds,
        "n_steps": plan.trace.n_steps,
        "cache_hits": plan.trace.cache_hits,
        "cache_misses": plan.trace.cache_misses,
        "legal": plan.is_legal,
    }


def run_floorplan(request: dict[str, Any], ctx: JobContext,
                  defaults: FloorplanConfig) -> dict[str, Any]:
    """The ``floorplan`` kind: one netlist through the full pipeline.

    An outline-mode configuration (its own, or the server default) routes
    through the fixed-outline feasibility search
    (:func:`repro.core.outline.solve_fixed_outline`); infeasibility comes
    back as a *completed* job whose result carries the structured
    ``INFEASIBLE_OUTLINE`` status — it is an answer, not an error.
    """
    from repro.serialize import config_to_dict, floorplan_to_dict

    netlist = _parse_netlist(request)
    config = config_from_request(request.get("config"), defaults)

    def on_step(step) -> None:
        ctx.check()
        ctx.send("step", **step_event(step))

    ctx.check()
    if config.outline_mode:
        from repro.core.outline import solve_fixed_outline

        result = solve_fixed_outline(netlist, config, on_step=on_step)
        out: dict[str, Any] = {
            "kind": "floorplan",
            "netlist": netlist.name,
            "config": config_to_dict(config),
            "outline": result.to_dict(include_plan=False),
        }
        if result.plan is not None:
            out["summary"] = _summary(result.plan)
            out["floorplan"] = floorplan_to_dict(result.plan)
        return out
    plan = Floorplanner(netlist, config, on_step=on_step).run()
    return {
        "kind": "floorplan",
        "netlist": netlist.name,
        "config": config_to_dict(config),
        "summary": _summary(plan),
        "floorplan": floorplan_to_dict(plan),
    }


def _width_search_config(request: dict[str, Any],
                         defaults: FloorplanConfig) -> FloorplanConfig:
    """The configuration of a ``width_search`` job.  The width search is
    inherently open-outline (the chip width is what it sweeps), so the
    server's default outline does not apply and an outline-mode config is
    rejected."""
    config = config_from_request(request.get("config"),
                                 replace(defaults, outline=None))
    if config.outline_mode:
        raise BadRequest("width_search is an open-outline job; submit a "
                         "'floorplan' job for fixed-outline runs")
    return config


def run_width_search(request: dict[str, Any], ctx: JobContext,
                     defaults: FloorplanConfig) -> dict[str, Any]:
    """The ``width_search`` kind: shard candidate chip widths across
    processes and keep the best floorplan.

    Candidate workers are separate processes (``repro.parallel``), so their
    solves share warmth only through the on-disk cache tier — exactly the
    service's shared-cache architecture in miniature.
    """
    from repro.core.width_search import search_chip_width
    from repro.serialize import config_to_dict, floorplan_to_dict

    netlist = _parse_netlist(request)
    config = _width_search_config(request, defaults)
    params = dict(request.get("width_search") or {})
    unknown = set(params) - {"n_candidates", "spread", "aspect_weight",
                             "workers"}
    if unknown:
        raise BadRequest(f"unknown width_search fields: {sorted(unknown)}")

    ctx.check()
    try:
        result = search_chip_width(
            netlist, config,
            n_candidates=int(params.get("n_candidates", 5)),
            spread=float(params.get("spread", 0.35)),
            aspect_weight=float(params.get("aspect_weight", 0.0)),
            workers=params.get("workers"))
    except ValueError as exc:
        raise BadRequest(str(exc)) from exc
    candidates = [{
        "chip_width": c.chip_width,
        "chip_area": c.chip_area,
        "aspect": c.aspect,
        "utilization": c.utilization,
        "score": c.score,
        "cache_hits": c.cache_hits,
        "cache_misses": c.cache_misses,
    } for c in result.candidates]
    for candidate in candidates:
        ctx.send("candidate", **candidate)
    return {
        "kind": "width_search",
        "netlist": netlist.name,
        "config": config_to_dict(config),
        "best_width": result.best_width,
        "candidates": candidates,
        "summary": _summary(result.best),
        "floorplan": floorplan_to_dict(result.best),
    }


def _solve_axes(request: dict[str, Any]) -> tuple[str, str | None]:
    """The ``solve`` kind's backend and request-level formulation, each
    rejected unless registered."""
    from repro.milp.solvers.registry import available_backends
    from repro.milp.telemetry import FORMULATIONS

    backend = request.get("backend", "highs")
    if backend not in available_backends():
        raise BadRequest(f"unknown backend {backend!r}; available: "
                         f"{available_backends()}")
    formulation = request.get("formulation")
    if formulation is not None and formulation not in FORMULATIONS:
        raise BadRequest(f"unknown formulation {formulation!r}; "
                         f"available: {list(FORMULATIONS)}")
    return backend, formulation


def run_solve(request: dict[str, Any], ctx: JobContext,
              defaults: FloorplanConfig) -> dict[str, Any]:
    """The ``solve`` kind: a batch of raw MILP models through
    :func:`~repro.milp.solvers.registry.solve_many`.

    Of the server ``defaults`` only the shared cache dir applies here — raw
    model documents were built by the client, so the server cannot know
    their encoding or die; a request-level ``"formulation"`` is recorded as
    provenance.
    """
    from repro.milp.solvers.registry import solve_many
    from repro.milp.telemetry import SolveContext
    from repro.serialize import model_from_dict

    docs = request.get("models")
    if not isinstance(docs, list) or not docs:
        raise BadRequest("request needs a non-empty 'models' list "
                         "(repro.serialize.model_to_dict format)")
    try:
        models = [model_from_dict(doc) for doc in docs]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"invalid model document: {exc}") from exc
    backend, request_formulation = _solve_axes(request)

    cache = None
    if request.get("solve_cache", True):
        from repro.milp.cache import get_cache

        cache = get_cache(request.get("cache_dir") or defaults.cache_dir)
    options: dict[str, Any] = {}
    for key in ("time_limit", "mip_rel_gap"):
        if request.get(key) is not None:
            options[key] = float(request[key])

    ctx.check()
    solutions = solve_many(models, backend=backend,
                           presolve=bool(request.get("presolve", True)),
                           cache=cache,
                           workers=request.get("workers", 1),
                           context=SolveContext(
                               formulation=request_formulation),
                           on_error="capture", **options)
    out = []
    for index, (model, solution) in enumerate(zip(models, solutions)):
        doc = {
            "index": index,
            "name": model.name,
            "status": solution.status.value,
            "objective": solution.objective
            if math.isfinite(solution.objective) else None,
            "bound": solution.bound
            if math.isfinite(solution.bound) else None,
            "backend": solution.backend,
            "message": solution.message,
            "values": [solution.values.get(v) for v in model.variables],
            "telemetry": solution.telemetry.to_dict()
            if solution.telemetry is not None else None,
        }
        out.append(doc)
        ctx.send("solved", index=index, status=doc["status"],
                 objective=doc["objective"])
    return {"kind": "solve", "backend": backend, "solutions": out}


def _parse_eco(request: dict[str, Any]):
    from repro.serialize import delta_from_dict, floorplan_from_dict

    plan_doc = request.get("baseline")
    if not isinstance(plan_doc, dict):
        raise BadRequest("request needs a 'baseline' object "
                         "(repro.serialize.floorplan_to_dict format)")
    delta_doc = request.get("delta")
    if not isinstance(delta_doc, dict):
        raise BadRequest("request needs a 'delta' object "
                         "(repro.serialize.delta_to_dict format)")
    try:
        baseline = floorplan_from_dict(plan_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"invalid baseline document: {exc}") from exc
    try:
        delta = delta_from_dict(delta_doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"invalid delta document: {exc}") from exc
    return baseline, delta


def run_eco(request: dict[str, Any], ctx: JobContext,
            defaults: FloorplanConfig) -> dict[str, Any]:
    """The ``eco`` kind: incrementally re-floorplan a certified baseline
    under a structured netlist delta (:func:`repro.core.eco.solve_eco`).

    The submission carries the baseline floorplan document and the delta
    document; a ``config`` object overrides the baseline's own embedded
    configuration (absent, the run uses the baseline's verbatim — the
    server's shared cache tier and default formulation only apply to an
    explicit config, mirroring how the baseline itself was produced; the
    server's default outline never applies).
    Infeasibility comes back as a *completed* job whose result carries the
    structured ``INFEASIBLE_ECO`` status — an answer, not an error.
    """
    from repro.core.eco import solve_eco
    from repro.serialize import config_to_dict

    baseline, delta = _parse_eco(request)
    if request.get("config") is not None:
        config = config_from_request(request.get("config"),
                                     replace(defaults, outline=None))
    else:
        config = baseline.config

    def on_step(step) -> None:
        ctx.check()
        ctx.send("step", **step_event(step))

    ctx.check()
    result = solve_eco(baseline, delta, config, on_step=on_step)
    for attempt in result.attempts:
        ctx.send("attempt", **attempt.to_dict())
    out: dict[str, Any] = {
        "kind": "eco",
        "netlist": baseline.netlist.name,
        "config": config_to_dict(config),
        "eco": result.to_dict(include_plan=True),
    }
    if result.plan is not None:
        out["summary"] = _summary(result.plan)
    return out


#: The default kind registry; :class:`~repro.service.server.FloorplanService`
#: copies it per instance so tests can register extra kinds.
JOB_RUNNERS: dict[str, Callable[..., dict[str, Any]]] = {
    "floorplan": run_floorplan,
    "width_search": run_width_search,
    "solve": run_solve,
    "eco": run_eco,
}


def validate_request(kind: str, request: dict[str, Any], *,
                     runners: dict[str, Callable[..., dict[str, Any]]],
                     defaults: FloorplanConfig) -> None:
    """Reject a malformed submission at submit time (HTTP 400), before it
    costs a queue slot — execution re-parses, so this only checks what is
    cheap to check."""
    if kind not in runners:
        raise BadRequest(f"unknown job kind {kind!r}; "
                         f"available: {sorted(runners)}")
    if kind == "floorplan":
        _parse_netlist(request)
        config_from_request(request.get("config"), defaults)
    elif kind == "width_search":
        _parse_netlist(request)
        _width_search_config(request, defaults)
    elif kind == "solve":
        docs = request.get("models")
        if not isinstance(docs, list) or not docs:
            raise BadRequest("request needs a non-empty 'models' list")
        _solve_axes(request)
    elif kind == "eco":
        _parse_eco(request)
        if request.get("config") is not None:
            config_from_request(request.get("config"),
                                replace(defaults, outline=None))
