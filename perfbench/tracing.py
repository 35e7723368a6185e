"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping that layer's public functions
where their callers look them up: a module global bound by ``from x import
f`` (``core.augmentation`` imports its callees that way), a module
attribute read at call time (the solver registry imports presolve and the
backends inside the call), or a class attribute.  The program under test is
not edited.

A span keeps its name, start, end and parent on a per-thread list; the
spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children, and a
layer's busy time is the summed self time of its spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterator


class Tracer:
    """Per-thread span lists plus counters filled by wrapper hooks.

    Wrappers record only while :attr:`active` is set, so the benchmark's
    own checks between operations leave no spans.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.active = False
        #: ``(thread index, span index)`` of each operation's root span.
        self.roots: dict[tuple[int, int], int] = {}
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------------

    def _thread_state(self) -> tuple[list[list], list[int]]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._local.index = len(self._threads)
                self._threads.append(spans)
        return spans, self._local.stack

    def wrap(self, name: str, fn: Callable, *,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call while the tracer is active.

        ``before(args, kwargs)`` runs inside the span and its return value
        is handed to ``after(tracer, args, kwargs, result, token)``, which
        runs once the span has ended.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans, stack = tracer._thread_state()
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                token = before(args, kwargs) if before is not None else None
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, number: int) -> Iterator[None]:
        """Record the benchmark's own root span (``"op"``) around one timed
        operation; its self time is the operation's time outside every
        named layer."""
        spans, stack = self._thread_state()
        record = ["op", time.perf_counter(), 0.0, -1]
        spans.append(record)
        stack.append(len(spans) - 1)
        self.roots[(self._local.index, len(spans) - 1)] = number
        self.active = True
        try:
            yield
        finally:
            self.active = False
            record[2] = time.perf_counter()
            stack.pop()

    def patch(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a module or class attribute, or a dict
        item) by its traced wrapper; :meth:`restore` undoes it."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **hooks)
            self._patches.append((owner, attr, original, True))
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            wrapped = self.wrap(name, raw, **hooks)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw, False))

    def restore(self) -> None:
        """Put every patched attribute back."""
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------------

    def threads(self) -> list[list[list]]:
        """Every thread's span list (``[name, start, end, parent]``)."""
        with self._lock:
            return [list(spans) for spans in self._threads]

    def dump(self, path: str) -> None:
        """Write the spans, roots and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"threads": self.threads(),
                       "roots": [[t, i, n] for (t, i), n
                                 in self.roots.items()],
                       "counts": dict(self.counts)}, fh)


def self_times(threads: list[list[list]]) -> Counter:
    """Summed self time per span name."""
    totals: Counter = Counter()
    for spans in threads:
        child = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(spans):
            totals[name] += (end - start) - child[i]
    return totals


def durations(threads: list[list[list]], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(end - start for spans in threads
               for span_name, start, end, _parent in spans
               if span_name == name)


def self_times_by_operation(threads: list[list[list]],
                            roots: dict[tuple[int, int], int]
                            ) -> dict[int, Counter]:
    """Self time per span name, grouped by the operation whose root span
    (see :meth:`Tracer.operation`) encloses it."""
    grouped: dict[int, Counter] = {}
    for t, spans in enumerate(threads):
        child = [0.0] * len(spans)
        owner = [-1] * len(spans)
        for i, (_name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                owner[i] = owner[parent]
            else:
                owner[i] = roots.get((t, i), -1)
        for i, (name, start, end, _parent) in enumerate(spans):
            if owner[i] >= 0:
                grouped.setdefault(owner[i], Counter())[name] += \
                    (end - start) - child[i]
    return grouped


# ---------------------------------------------------------------------------
# counting hooks
# ---------------------------------------------------------------------------

def _count_rects(tracer, args, kwargs, result, token) -> None:
    tracer.counts["covering.rects"] += len(result)


def _count_builder(tracer, args, kwargs, result, token) -> None:
    builder = args[0]
    tracer.counts["formulation.binaries"] += builder.n_integer_variables
    tracer.counts["formulation.rows"] += builder.model.n_constraints


def _count_backend(tracer, args, kwargs, result, token) -> None:
    tracer.counts["backend.calls"] += 1
    telemetry = result.telemetry
    if telemetry is not None:
        tracer.counts["backend.nodes"] += telemetry.nodes
        tracer.counts["backend.lp_calls"] += telemetry.lp_calls
    status = telemetry.status if telemetry is not None \
        else result.status.value
    if status != "optimal":
        tracer.counts["backend.limit_stops"] += 1


def _count_presolve(tracer, args, kwargs, result, token) -> None:
    tracer.counts["presolve.rows_removed"] += result.report.rows_removed
    tracer.counts["presolve.binaries_fixed"] += result.report.binaries_fixed


def _rejected_before(args, kwargs) -> int:
    return args[0].stats.rejected


def _count_serve(tracer, args, kwargs, result, rejected_before) -> None:
    if result is not None:
        tracer.counts["cache.hits"] += 1
    elif args[0].stats.rejected > rejected_before:
        tracer.counts["cache.rejected"] += 1
    else:
        tracer.counts["cache.misses"] += 1


def _count_topology(tracer, args, kwargs, result, token) -> None:
    tracer.counts["topology.calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the floorplanning layers (everything below the job service)."""
    import repro.check.certificate as certificate
    import repro.core.augmentation as augmentation
    import repro.core.eco as eco
    import repro.core.floorplanner as floorplanner
    import repro.core.formulation as formulation
    import repro.core.topology as topology
    import repro.geometry.polygon as polygon
    import repro.milp.cache as cache
    import repro.milp.model as model
    import repro.milp.presolve as presolve
    import repro.milp.solvers.scipy_backend as scipy_backend
    import repro.routing.flow as flow
    import repro.routing.router as router
    import repro.serialize as serialize

    # core.augmentation: the loop and the facade that drives it
    tracer.patch(floorplanner.Floorplanner, "run", "augmentation")
    tracer.patch(floorplanner, "run_augmentation", "augmentation")
    # core.selection, as core.augmentation looks it up
    tracer.patch(augmentation, "module_ordering", "selection")
    tracer.patch(augmentation, "next_group", "selection")
    # geometry.covering; ECO windows reach it through the same globals
    tracer.patch(augmentation, "covering_rectangles", "covering",
                 after=_count_rects)
    tracer.patch(polygon.CoveringPolygon, "from_rects", "covering")
    # core.formulation and milp.model
    tracer.patch(formulation.SubproblemBuilder, "__init__", "formulation",
                 after=_count_builder)
    for method in ("decode", "encode", "warm_start_stacked",
                   "symmetry_groups"):
        tracer.patch(formulation.SubproblemBuilder, method, "formulation")
    tracer.patch(model.Model, "to_standard_form", "model")
    # milp.solvers: the registry where its callers look it up, and HiGHS
    # where the registry imports it at call time
    tracer.patch(augmentation, "solve", "dispatch")
    tracer.patch(topology, "solve", "dispatch")
    tracer.patch(scipy_backend, "solve_highs", "backend",
                 after=_count_backend)
    # milp.cache: the registry reads these as module attributes
    tracer.patch(cache, "canonical_form_key", "cache.key")
    tracer.patch(cache, "serve_cached", "cache.serve",
                 before=_rejected_before, after=_count_serve)
    tracer.patch(cache, "record_store", "cache.store")
    # milp.presolve, imported inside the registry call
    tracer.patch(presolve, "presolve_form", "presolve",
                 after=_count_presolve)
    tracer.patch(presolve, "internal_objective", "presolve")
    tracer.patch(presolve.PresolveResult, "postsolve_solution", "presolve")
    tracer.patch(presolve.PresolveResult, "map_warm_start", "presolve")
    # check.certificate: serve_cached imports it at call time
    tracer.patch(certificate, "check_certificate", "certificate")
    # core.topology: legalization, as the floorplanner looks it up
    tracer.patch(floorplanner, "derive_relations", "topology")
    tracer.patch(floorplanner, "optimize_topology", "topology",
                 after=_count_topology)
    # routing, as routing.flow looks it up
    tracer.patch(flow, "build_channel_graph", "routing.graph")
    tracer.patch(router.GlobalRouter, "route", "routing.search")
    tracer.patch(flow, "adjust_floorplan", "routing.adjust")
    # core.eco: callers import solve_eco at call time
    tracer.patch(eco, "solve_eco", "eco")
    tracer.patch(eco, "eco_window", "eco")
    tracer.patch(eco, "disturbed_modules", "eco")
    # serialize: the service runner imports these at call time
    for fn in ("floorplan_to_dict", "config_to_dict", "netlist_from_dict"):
        tracer.patch(serialize, fn, "serialize")


def install_service(tracer: Tracer) -> None:
    """Wrap the job service: the HTTP handler, the submit path (validation
    and the dedup key), the floorplan runner, stats, and the blocking
    waits of long polls (attributed, but not busy time)."""
    import repro.service.jobs as jobs
    import repro.service.runner as runner
    import repro.service.server as server

    tracer.patch(server._ServiceHandler, "handle", "service.http")
    tracer.patch(server.FloorplanService, "submit", "service.submit")
    tracer.patch(server, "validate_request", "service.submit")
    tracer.patch(server, "request_key", "service.submit")
    tracer.patch(server.FloorplanService, "stats_doc", "service.stats")
    tracer.patch(runner.JOB_RUNNERS, "floorplan", "service.run")
    tracer.patch(jobs.Job, "wait_terminal", "service.wait")
    tracer.patch(jobs.Job, "wait_events", "service.wait")
