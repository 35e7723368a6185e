"""Timing loops, the machine-speed probe, summary statistics and the
per-layer metric tables shared by the workloads."""

from __future__ import annotations

import bisect
import gc
import heapq
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np
from scipy.optimize import linprog

from tracing import Tracer, self_times, self_times_by_operation

#: Seconds each part of the probe takes at the reference speed, about what
#: the parts took in the quiet spells of a 2-core machine: three Dijkstra
#: runs, one HiGHS solve, two dense NumPy kernels.
REFERENCE_S = {"interpreted": 0.00175, "highs": 0.0021, "numpy": 0.0005}
#: Probes taken within this many seconds of an interval set its speed.
SPEED_WINDOW_S = 0.5
#: After an operation, one probe per this much of its time (at least one,
#: at most :data:`MAX_PROBES`), so long operations have probes near them.
PROBE_EVERY_S = 0.1
MAX_PROBES = 20


def _grid(n: int = 24) -> dict[tuple[int, int], list]:
    """A fixed weighted grid graph, the probe's input."""
    adjacency = {}
    for x in range(n):
        for y in range(n):
            adjacency[x, y] = [
                ((u, v), 1.0 + (x * 7 + y * 13 + u * 3 + v) % 5 * 0.25)
                for u, v in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1))
                if 0 <= u < n and 0 <= v < n]
    return adjacency


_GRID = _grid()
_RNG = np.random.default_rng(0)
#: A fixed LP for HiGHS, the program's solver backend, and a fixed dense
#: system for NumPy.
_LP_A = _RNG.random((60, 40))
_LP_B = _LP_A.sum(axis=1)
_LP_C = -_RNG.random(40)
_DENSE = _RNG.random((120, 120))


def _shortest_paths() -> dict:
    """Dijkstra over :data:`_GRID` with a heap and dicts: the kind of
    interpreted work the router and the layers around the solver do."""
    far = float("inf")
    dist = {(0, 0): 0.0}
    heap = [(0.0, (0, 0))]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbour, weight in _GRID[node]:
            nd = d + weight
            if nd < dist.get(neighbour, far):
                dist[neighbour] = nd
                heapq.heappush(heap, (nd, neighbour))
    return dist


def _interpreted() -> None:
    for _ in range(3):
        _shortest_paths()


def _highs() -> None:
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0, 1), method="highs")


def _numpy() -> None:
    for _ in range(2):
        np.linalg.solve(_DENSE, _DENSE[:, 0])
        np.sort(_DENSE, axis=None)


PARTS = {"interpreted": _interpreted, "highs": _highs, "numpy": _numpy}


class Speed:
    """The machine's speed over a run, sampled with a fixed probe.

    The host this benchmark runs on changes the speed of each CPU on its
    own, by up to twice from one second to the next and over minutes, and
    process time moves with it, so raw times of the same code spread too
    far to gate a change.  A probe times fixed kernels (:data:`PARTS`,
    with the garbage collector off so the program's heap does not enter
    them) between operations.  The parts slow down by different amounts:
    in one slow spell interpreted code ran at half speed, HiGHS at 0.4-1.0
    and NumPy at full speed.  So a probe's slowdown is the workload's
    ``weights`` (its shares of time in each kind of code, from the traced
    run) times each part's time over :data:`REFERENCE_S`, and an
    interval's time at the reference speed is its wall time over the
    median slowdown of the probes within :data:`SPEED_WINDOW_S` of it.
    The probe is benchmark code, so a change to the program cannot move
    it.
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        self.weights = {part: w for part, w in weights.items() if w > 0}
        self.at: list[float] = []
        self.slowdown: list[float] = []
        # The first HiGHS call initialises the library: not a probe.
        self._probe()

    def _probe(self) -> float:
        slowdown = 0.0
        for part, weight in self.weights.items():
            started = time.perf_counter()
            PARTS[part]()
            slowdown += weight * (time.perf_counter() - started) \
                / REFERENCE_S[part]
        return slowdown

    def sample(self, count: int = 1, warm: bool = False) -> None:
        """Take ``count`` probes now; with ``warm``, after an untimed one
        (a probe right after a sleep runs cold)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            if warm:
                self._probe()
            for _ in range(count):
                self.at.append(time.perf_counter())
                self.slowdown.append(self._probe())
        finally:
            if enabled:
                gc.enable()

    def after(self, seconds: float) -> None:
        """Probes following an operation that took ``seconds``."""
        self.sample(max(1, min(MAX_PROBES, round(seconds / PROBE_EVERY_S))))

    def factor(self, start: float, end: float) -> float:
        """One over the median slowdown of the probes near ``[start, end]``
        (``perf_counter`` times); of every probe of the run when none is
        near."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        return 1.0 / statistics.median(self.slowdown[lo:hi] or self.slowdown)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the reference speed."""
        return seconds * self.factor(start, start + seconds)

    def report(self) -> dict[str, float]:
        """The probe's median slowdown and its quartile spread."""
        q1, median, q3 = statistics.quantiles(self.slowdown, n=4) \
            if len(self.slowdown) > 1 else [self.slowdown[0]] * 3
        return {"probes": len(self.slowdown), "probe_slowdown.p50": median,
                "probe_spread": (q3 - q1) / median}


def pin_to_fastest_cpu(weights: Mapping[str, float]) -> int:
    """Pin this process to the CPU where ``weights``' probe runs fastest
    now, and return it.  Processes it starts later inherit the pin."""
    cpus = sorted(os.sched_getaffinity(0))
    slowdown = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed = Speed(weights)
        speed.sample(8)
        slowdown[cpu] = statistics.median(speed.slowdown)
    best = min(cpus, key=slowdown.__getitem__)
    os.sched_setaffinity(0, {best})
    return best


@dataclass
class Op:
    """One timed operation: its time at the reference speed and on the
    wall clock, what it produced, and why its output check failed (empty
    when the check passed).  ``start`` is its ``perf_counter`` start."""

    seconds: float = 0.0
    modules: int = 0
    util: float = 0.0
    problem: str = ""
    info: dict[str, Any] = field(default_factory=dict)
    start: float = 0.0
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the operation completed and its output checked out."""
        return not self.problem


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at least
    ten samples above it: the eleventh-largest value.  Below 21 samples
    that value would fall under the median, so the median stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_ops(items: Iterable, execute: Callable, check: Callable,
            speed: Speed, *, seconds: float | None = None,
            round_size: int = 1, before: Callable | None = None,
            tracer: Tracer | None = None) -> tuple[list[Op], float]:
    """Run ``execute(item)`` for each item, closed loop on this thread.

    ``before(item)`` prepares an operation untimed (it clears a cache
    tier), and ``check(item, result)`` returns the operation's :class:`Op`,
    untimed too.  ``speed`` probes the machine after every operation, and
    each operation's ``seconds`` is its time at the reference speed.  With
    ``seconds`` the loop stops once that much reference time has been
    measured, at a multiple of ``round_size`` operations, so a run of the
    same code measures the same items whatever the host's speed, and a
    faster commit the same mix of items.  With a ``tracer`` each operation
    runs inside its root span.  Returns the operations and their summed
    time at the reference speed.
    """
    ops: list[Op] = []
    measured = 0.0
    speed.sample(3)
    for number, item in enumerate(items):
        if (seconds is not None and measured >= seconds
                and number % round_size == 0):
            break
        if before is not None:
            before(item)
        started = time.perf_counter()
        try:
            if tracer is None:
                result = execute(item)
            else:
                with tracer.operation(number):
                    result = execute(item)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            elapsed = time.perf_counter() - started
            speed.after(elapsed)
            op = Op(problem=f"{type(exc).__name__}: {exc}")
        else:
            elapsed = time.perf_counter() - started
            speed.after(elapsed)
            try:
                op = check(item, result)
            except Exception as exc:  # noqa: BLE001 - so is a failed check
                op = Op(problem=f"check raised {type(exc).__name__}: {exc}")
        op.start, op.wall_s = started, elapsed
        measured += speed.scaled(started, elapsed)
        ops.append(op)
    # Probes taken after an operation's stop check count for it too.
    for op in ops:
        op.seconds = speed.scaled(op.start, op.wall_s)
    return ops, sum(op.seconds for op in ops)


def end_to_end(ops: list[Op], measured: float, setup_s: float,
               speed: Speed, throughput: float | None = None
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics of a timed loop, plus what the report prints
    beside them: the tail's percentile and sample count, ``fail_frac``,
    the wall-clock latencies and the probe's figures.  ``throughput``
    overrides modules per second of timed work (the open-loop service
    reports its saturated rate instead)."""
    done = [op for op in ops if op.ok] or [Op(seconds=measured)]
    latencies = [op.seconds for op in done]
    tail_value, tail_pct = tail(latencies)
    if throughput is None:
        throughput = sum(op.modules for op in done) / measured \
            if measured > 0 else 0.0
    metrics = {
        "setup_s": setup_s,
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": tail_value,
        "modules_per_s": throughput,
        "util_mean": statistics.fmean(op.util for op in done),
    }
    wall = [op.wall_s for op in done]
    report = {
        "tail_percentile": tail_pct,
        "samples": len(latencies),
        "fail_frac": sum(not op.ok for op in ops) / max(1, len(ops)),
        "wall_latency_s": {"p50": statistics.median(wall),
                           "tail": tail(wall)[0]},
        **speed.report(),
    }
    return metrics, report


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Busy-time metrics: the summed self time of these span names.
BUSY = {
    "routing.graph_s": ("routing.graph",),
    "routing.search_s": ("routing.search",),
    "routing.adjust_s": ("routing.adjust",),
    "backend.self_s": ("backend",),
    "backend.dispatch_s": ("dispatch",),
    "presolve.self_s": ("presolve",),
    "cache.key_s": ("cache.key",),
    "cache.serve_s": ("cache.serve",),
    "cache.store_s": ("cache.store",),
    "certificate.self_s": ("certificate",),
    "formulation.self_s": ("formulation",),
    "model.self_s": ("model",),
    "covering.self_s": ("covering",),
    "selection.self_s": ("selection",),
    "augmentation.self_s": ("augmentation",),
    "topology.self_s": ("topology",),
    "eco.self_s": ("eco",),
    "service.submit_s": ("service.submit",),
    "service.http_s": ("service.http",),
    "service.serialize_s": ("serialize",),
    "service.stats_s": ("service.stats",),
}

#: Counts made by the wrapper hooks; they repeat exactly between runs.
COUNTS = ("backend.calls", "backend.nodes", "backend.lp_calls",
          "backend.limit_stops", "presolve.rows_removed",
          "presolve.binaries_fixed", "cache.hits", "cache.misses",
          "cache.rejected", "formulation.binaries", "formulation.rows",
          "covering.rects", "topology.calls")

#: Layers whose per-netlist self time the flow-cold traced run fits
#: against module count (``time ~ modules ** exponent``).
GROWTH = {
    "growth.routing.graph": ("routing.graph",),
    "growth.routing.search": ("routing.search",),
    "growth.routing.adjust": ("routing.adjust",),
    "growth.backend": ("backend",),
    "growth.presolve": ("presolve",),
    "growth.formulation": ("formulation", "model"),
    "growth.covering": ("covering",),
    "growth.cache": ("cache.key", "cache.serve", "cache.store"),
    "growth.topology": ("topology",),
    "growth.augmentation": ("augmentation", "selection", "dispatch"),
}


def layer_metrics(threads: list[list[list]],
                  counts: Mapping[str, int]) -> dict[str, float]:
    """Busy time and counts per layer from one traced pass."""
    busy = self_times(threads)
    metrics: dict[str, float] = {
        name: sum(busy[span] for span in spans)
        for name, spans in BUSY.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    lookups = sum(counts.get(name, 0)
                  for name in ("cache.hits", "cache.misses", "cache.rejected"))
    metrics["cache.hit_ratio"] = \
        counts.get("cache.hits", 0) / lookups if lookups else 0.0
    return metrics


def growth(threads: list[list[list]], roots: dict[tuple[int, int], int],
           sizes: list[int], seconds: list[float]) -> dict[str, float]:
    """Growth exponent of each :data:`GROWTH` layer's per-operation self
    time, and of the whole operation, against module count."""
    from repro.eval.scaling import growth_exponent

    per_op = self_times_by_operation(threads, roots)
    out = {"growth.total": growth_exponent(sizes, seconds)}
    for name, spans in GROWTH.items():
        points = [(sizes[k], sum(per_op[k][span] for span in spans))
                  for k in sorted(per_op)]
        points = [(n, t) for n, t in points if t > 0]
        out[name] = growth_exponent(*zip(*points)) \
            if len({n for n, _t in points}) >= 2 else 0.0
    return out
