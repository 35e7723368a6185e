"""From-scratch branch-and-bound MILP solver.

Solves mixed 0-1 integer programs the way LINDO did in 1982: LP relaxations
plus branching.  Features:

* best-bound node selection (priority queue) with depth-first plunging on
  ties, bounding memory while finding incumbents early;
* most-fractional branching with batched fractionality scoring (one vector
  pass over all integer columns per node);
* a rounding heuristic at every node to tighten the incumbent;
* relative-gap, node-count, and wall-clock limits — a wall-clock stop is
  reported as the distinct :attr:`~repro.milp.solution.SolveStatus.TIMEOUT`
  status carrying the best incumbent and the proven gap;
* a :class:`~repro.milp.telemetry.SolveTelemetry` record (LP calls, nodes,
  incumbent trace, final gap) attached to every solution.

Hot-path layout: the active-node frontier keeps per-node variable bounds in
two contiguous ``(capacity, n_cols)`` arenas instead of one pair of arrays
per node object; dominated rows are reclaimed in bulk whenever the incumbent
improves.

LP relaxations are solved by a persistent HiGHS instance
(``lp_engine="highs"``, the default): the model is passed to the solver once
per tree and every node only changes column bounds, then re-solves from
scratch (the solver state is cleared, so no basis carries over between
nodes).  That cuts ~100x of per-call python overhead compared to
:func:`scipy.optimize.linprog` (which rebuilds and re-validates the model on
every call); linprog remains the ``"highs"`` engine only where SciPy lacks
its vendored HiGHS bindings.  ``lp_engine="simplex"`` switches to the
repository's own :mod:`NumPy simplex <repro.milp.solvers.simplex>`, making
the entire solve chain self-contained.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Mapping

import numpy as np

from repro.milp.expr import Variable
from repro.milp.model import Model, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.solvers.simplex import LpStatus, solve_lp_arrays
from repro.milp.telemetry import SolveTelemetry

#: Default integrality tolerance: a variable value within this distance of
#: an integer counts as integral.  Overridable per solve via ``int_tol``.
INT_TOL = 1e-6


# ---------------------------------------------------------------------------
# LP relaxation engines


class _PersistentHighsEngine:
    """One HiGHS instance reused for every relaxation of a tree.

    ``passModel`` once, then per node only ``changeColsBounds`` +
    ``clearSolver`` + ``run``: none of linprog's per-call input cleaning,
    option validation, or sparse-matrix rebuilding happens (~12x less
    overhead per relaxation).  ``clearSolver`` keeps the tree identical to
    the :class:`_LinprogEngine` fallback: it drops the basis so every node
    solves from scratch, as each linprog call does — warm-basis resolves
    land on different degenerate vertices, which changes branching
    decisions, so the two ``"highs"`` engines would explore different trees.
    """

    engine = "highs"

    def __init__(self, form: StandardForm) -> None:
        from scipy.optimize._highspy import _core as hcore

        from repro.milp.solvers.scipy_backend import highs_lp

        self.form = form
        self.n_calls = 0
        self._hcore = hcore
        h = hcore._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("threads", 1)
        h.passModel(highs_lp(hcore, form))
        self._h = h
        self._n = n = len(form.variables)
        self._all_cols = np.arange(n, dtype=np.int32)

    def solve(self, lb: np.ndarray,
              ub: np.ndarray) -> tuple[str, np.ndarray | None, float]:
        self.n_calls += 1
        h = self._h
        h.changeColsBounds(self._n, self._all_cols,
                           np.ascontiguousarray(lb, dtype=np.float64),
                           np.ascontiguousarray(ub, dtype=np.float64))
        h.clearSolver()
        h.run()
        kind = self._hcore.HighsModelStatus
        status = h.getModelStatus()
        if status == kind.kUnboundedOrInfeasible:
            # Presolve could not tell the two apart; re-run without it.
            h.setOptionValue("presolve", "off")
            h.run()
            status = h.getModelStatus()
            h.setOptionValue("presolve", "choose")
        if status == kind.kOptimal:
            x = np.array(h.getSolution().col_value, dtype=np.float64)
            return "optimal", x, float(h.getInfo().objective_function_value)
        if status == kind.kInfeasible:
            return "infeasible", None, math.nan
        if status == kind.kUnbounded:
            return "unbounded", None, math.nan
        return "limit", None, math.nan


class _LinprogEngine:
    """The ``"highs"`` engine where SciPy lacks its vendored HiGHS bindings
    (``scipy.optimize._highspy``, absent from older supported releases):
    one :func:`scipy.optimize.linprog` call per node."""

    engine = "highs"

    def __init__(self, form: StandardForm) -> None:
        from repro.milp.solvers.scipy_backend import linprog_rows

        self.form = form
        self.n_calls = 0
        self._linprog_kwargs = linprog_rows(form)

    def solve(self, lb: np.ndarray,
              ub: np.ndarray) -> tuple[str, np.ndarray | None, float]:
        from scipy.optimize import linprog

        self.n_calls += 1
        result = linprog(
            self.form.c, bounds=np.column_stack([lb, ub]),
            method="highs", **self._linprog_kwargs)
        status = {0: "optimal", 1: "limit", 2: "infeasible",
                  3: "unbounded"}.get(result.status, "limit")
        x = np.asarray(result.x) if result.x is not None else None
        objective = float(result.fun) if result.fun is not None else math.nan
        return status, x, objective


class _SimplexEngine:
    """The repository's own dense NumPy simplex."""

    engine = "simplex"

    def __init__(self, form: StandardForm) -> None:
        self.form = form
        self.n_calls = 0
        self._dense_a = form.a_matrix.toarray()

    def solve(self, lb: np.ndarray,
              ub: np.ndarray) -> tuple[str, np.ndarray | None, float]:
        self.n_calls += 1
        result = solve_lp_arrays(self.form.c, self._dense_a, self.form.row_lb,
                                 self.form.row_ub, lb, ub)
        status = {LpStatus.OPTIMAL: "optimal",
                  LpStatus.INFEASIBLE: "infeasible",
                  LpStatus.UNBOUNDED: "unbounded",
                  LpStatus.ITERATION_LIMIT: "limit"}[result.status]
        return status, result.x, result.objective


#: The ``lp_engine`` names :func:`solve_bnb` accepts.
LP_ENGINES = ("highs", "simplex")


def _make_engine(form: StandardForm, engine: str):
    if engine == "highs":
        try:
            return _PersistentHighsEngine(form)
        except (ImportError, AttributeError):
            # scipy without the vendored highspy bindings: fall back to the
            # per-call linprog path under the same public engine name.
            return _LinprogEngine(form)
    if engine == "simplex":
        return _SimplexEngine(form)
    raise ValueError(f"unknown lp engine {engine!r}")


# ---------------------------------------------------------------------------
# Node frontiers


class _Popped:
    """What a frontier pop hands to the search loop.

    ``live`` is False for a tombstone — a heap entry whose arena rows were
    reclaimed when the incumbent dominated its bound.  A tombstone's bound is
    by construction >= the incumbent at reclamation time, and the incumbent
    only decreases, so the loop's prune test always fires before the (absent)
    rows would be needed.
    """

    __slots__ = ("bound", "depth", "slot", "lb", "ub", "live")

    def __init__(self, bound, depth, slot, lb, ub, live):
        self.bound = bound
        self.depth = depth
        self.slot = slot
        self.lb = lb
        self.ub = ub
        self.live = live


class _ArrayFrontier:
    """Contiguous-arena frontier: all per-node bounds in two 2-D arrays.

    Each live node owns one row of the ``_lb``/``_ub`` arenas plus scalar
    entries of the ``_bound``/``_depth`` arrays; the heap orders only
    ``(bound, tiebreak, slot, gen)`` tuples.  Branching copies a parent row
    into two child rows and patches one element — no per-node python object
    carries the bound vectors.  When the incumbent improves, every live row
    whose bound is dominated is reclaimed in one vectorized sweep; its heap
    entry stays behind as a tombstone (detected by a stale ``gen`` counter)
    so the pop order, node counts, and LP-call counts stay byte-identical to
    a per-node-object frontier that never reclaims
    (``tests/test_vectorized_parity.py`` keeps one as the reference).
    """

    def __init__(self, n_cols: int, capacity: int = 64) -> None:
        self._n_cols = n_cols
        self._lb = np.empty((capacity, n_cols))
        self._ub = np.empty((capacity, n_cols))
        self._bound = np.full(capacity, math.inf)
        self._depth = np.zeros(capacity, dtype=np.int64)
        self._gen = np.zeros(capacity, dtype=np.int64)
        self._live = np.zeros(capacity, dtype=bool)
        self._free = list(range(capacity - 1, -1, -1))
        self._heap: list[tuple[float, int, int, int]] = []
        self._counter = itertools.count()
        self.peak_nodes = 0
        self.rows_reclaimed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def _alloc(self) -> int:
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self._live[slot] = True
        return slot

    def _grow(self) -> None:
        old = self._lb.shape[0]
        new = old * 2
        for name in ("_lb", "_ub"):
            arena = np.empty((new, self._n_cols))
            arena[:old] = getattr(self, name)
            setattr(self, name, arena)
        self._bound = np.concatenate([self._bound, np.full(old, math.inf)])
        self._depth = np.concatenate(
            [self._depth, np.zeros(old, dtype=np.int64)])
        self._gen = np.concatenate([self._gen, np.zeros(old, dtype=np.int64)])
        self._live = np.concatenate(
            [self._live, np.zeros(old, dtype=bool)])
        self._free.extend(range(new - 1, old - 1, -1))

    def _release(self, slot: int) -> None:
        self._live[slot] = False
        self._gen[slot] += 1
        self._free.append(slot)

    def push_root(self, bound: float, lb: np.ndarray, ub: np.ndarray) -> None:
        slot = self._alloc()
        self._lb[slot] = lb
        self._ub[slot] = ub
        self._bound[slot] = bound
        self._depth[slot] = 0
        heapq.heappush(self._heap,
                       (bound, next(self._counter), slot,
                        int(self._gen[slot])))
        self.peak_nodes = max(self.peak_nodes, len(self._heap))

    def pop(self) -> _Popped:
        bound, _tiebreak, slot, gen = heapq.heappop(self._heap)
        if gen != self._gen[slot] or not self._live[slot]:
            return _Popped(bound, -1, -1, None, None, False)
        return _Popped(bound, int(self._depth[slot]), slot,
                       self._lb[slot], self._ub[slot], True)

    def branch(self, node: _Popped, bound: float, col: int,
               floor_val: float, ceil_val: float) -> None:
        parent = node.slot
        depth = int(self._depth[parent]) + 1
        down = self._alloc()
        up = self._alloc()
        self._lb[down] = self._lb[parent]
        self._ub[down] = self._ub[parent]
        self._ub[down, col] = floor_val
        self._lb[up] = self._lb[parent]
        self._ub[up] = self._ub[parent]
        self._lb[up, col] = ceil_val
        for slot in (down, up):
            self._bound[slot] = bound
            self._depth[slot] = depth
            heapq.heappush(self._heap,
                           (bound, next(self._counter), slot,
                            int(self._gen[slot])))
        self.peak_nodes = max(self.peak_nodes, len(self._heap))
        self._release(parent)

    def discard(self, node: _Popped) -> None:
        if node.live:
            self._release(node.slot)

    def prune_dominated(self, threshold: float) -> None:
        """Reclaim arena rows of every live node whose bound is dominated.

        Heap entries are left in place as tombstones so the pop sequence —
        and with it every count the telemetry records — is unchanged; only
        the memory behind hopeless nodes is returned to the free list early.
        """
        live = np.flatnonzero(self._live)
        if not live.size:
            return
        doomed = live[self._bound[live] >= threshold]
        for slot in doomed:
            self._release(int(slot))
        self.rows_reclaimed += int(doomed.size)


# ---------------------------------------------------------------------------
# Search


def solve_bnb(model: Model, *, time_limit: float | None = None,
              mip_rel_gap: float = DEFAULT_MIP_REL_GAP,
              node_limit: int = 200_000,
              lp_engine: str = "highs", int_tol: float = INT_TOL,
              form: StandardForm | None = None,
              warm_start: Mapping[Variable, float] | None = None) -> Solution:
    """Solve ``model`` with the from-scratch branch-and-bound.

    Args:
        model: the MILP (pure LPs are solved by a single relaxation).
        time_limit: wall-clock limit in seconds.  Hitting it with an
            incumbent yields status ``TIMEOUT`` (values + gap available);
            without an incumbent, status ``LIMIT``.
        mip_rel_gap: stop when ``(incumbent - best_bound)`` falls within this
            relative gap.
        node_limit: maximum number of explored nodes.
        lp_engine: one of :data:`LP_ENGINES` — ``"highs"`` (default, a
            persistent HiGHS instance re-run over changed column bounds) or
            ``"simplex"`` for the pure-NumPy relaxation solver.
        int_tol: integrality tolerance for rounding/branching decisions.
        form: a precomputed standard form of ``model`` (the registry's
            cache key shares it, or the reduced form from presolve); derived
            from ``model`` when omitted.
        warm_start: a claimed-feasible assignment covering every variable of
            ``form``.  Validated (bounds, integrality, rows) and, if it
            holds up, installed as the initial incumbent — an immediate
            upper bound that prunes the tree from node one.  Silently
            ignored when invalid.
    """
    form = form if form is not None else model.to_standard_form()
    engine = _make_engine(form, lp_engine)
    start = time.perf_counter()
    int_cols = np.flatnonzero(form.integrality == 1)
    telemetry = SolveTelemetry(
        backend=f"bnb[{engine.engine}]",
        n_variables=len(form.variables),
        n_integer=int(int_cols.size),
        n_constraints=form.a_matrix.shape[0])

    status, x, objective = engine.solve(form.lb, form.ub)
    if status == "infeasible":
        return _finish(model, form, SolveStatus.INFEASIBLE, None, math.nan,
                       math.nan, 1, start, engine, telemetry)
    if status == "unbounded":
        return _finish(model, form, SolveStatus.UNBOUNDED, None, math.nan,
                       math.nan, 1, start, engine, telemetry)
    if status == "limit" or x is None:
        return _finish(model, form, SolveStatus.ERROR, None, math.nan,
                       math.nan, 1, start, engine, telemetry)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf

    def try_incumbent(x_candidate: np.ndarray) -> bool:
        nonlocal incumbent_x, incumbent_obj
        obj = float(form.c @ x_candidate)
        if obj < incumbent_obj - 1e-12:
            incumbent_obj = obj
            incumbent_x = x_candidate.copy()
            telemetry.record_incumbent(time.perf_counter() - start, obj)
            return True
        return False

    branch_col = _select_branch(x, int_cols, int_tol)
    if branch_col < 0:
        try_incumbent(x)
        return _finish(model, form, SolveStatus.OPTIMAL, incumbent_x,
                       incumbent_obj, incumbent_obj, 1, start, engine,
                       telemetry)

    if warm_start is not None:
        seeded = _validated_warm_start(form, warm_start, int_tol)
        if seeded is not None:
            try_incumbent(seeded)

    rounded = _rounding_heuristic(engine, form, x, int_cols)
    if rounded is not None:
        try_incumbent(rounded)

    frontier = _ArrayFrontier(len(form.variables))
    frontier.push_root(objective, form.lb, form.ub)
    n_nodes = 1
    best_bound = objective
    timed_out = False

    while len(frontier):
        if time_limit is not None and time.perf_counter() - start > time_limit:
            timed_out = True
            break
        if n_nodes >= node_limit:
            break
        node = frontier.pop()
        best_bound = node.bound
        if incumbent_obj < math.inf:
            gap = (incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
            if gap <= mip_rel_gap:
                best_bound = incumbent_obj
                frontier.discard(node)
                break
        if node.bound >= incumbent_obj - 1e-12:
            frontier.discard(node)
            continue

        status, x, objective = engine.solve(node.lb, node.ub)
        n_nodes += 1
        if status != "optimal" or x is None:
            frontier.discard(node)
            continue
        if objective >= incumbent_obj - 1e-12:
            frontier.discard(node)
            continue
        branch_col = _select_branch(x, int_cols, int_tol)
        if branch_col < 0:
            if try_incumbent(x):
                frontier.prune_dominated(incumbent_obj - 1e-12)
            frontier.discard(node)
            continue
        rounded = _rounding_heuristic(engine, form, x, int_cols)
        if rounded is not None and try_incumbent(rounded):
            frontier.prune_dominated(incumbent_obj - 1e-12)

        value = x[branch_col]
        frontier.branch(node, objective, branch_col,
                        math.floor(value), math.ceil(value))

    if not len(frontier) and incumbent_x is not None:
        best_bound = incumbent_obj
    hit_limit = bool(len(frontier)) and (
        incumbent_obj == math.inf
        or (incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj)) > mip_rel_gap)
    telemetry.frontier = {
        "peak_nodes": frontier.peak_nodes,
        "rows_reclaimed": frontier.rows_reclaimed,
    }
    if incumbent_x is None:
        final = SolveStatus.LIMIT if hit_limit else SolveStatus.INFEASIBLE
        return _finish(model, form, final, None, math.nan, best_bound,
                       n_nodes, start, engine, telemetry)
    if hit_limit:
        final = SolveStatus.TIMEOUT if timed_out else SolveStatus.FEASIBLE
    else:
        final = SolveStatus.OPTIMAL
    return _finish(model, form, final, incumbent_x, incumbent_obj, best_bound,
                   n_nodes, start, engine, telemetry)


def _select_branch(x: np.ndarray, int_cols: np.ndarray,
                   int_tol: float = INT_TOL) -> int:
    """Batched fractionality scoring: the branching column, or -1.

    One vector pass computes every integer column's distance from the
    nearest integer; the most-fractional column wins (first occurrence on
    ties).  -1 means integral.
    """
    if not int_cols.size:
        return -1
    values = x[int_cols]
    distances = np.abs(values - np.round(values))
    fractional = distances > int_tol
    if not fractional.any():
        return -1
    distances[~fractional] = -1.0
    return int(int_cols[int(np.argmax(distances))])


def _validated_warm_start(form: StandardForm,
                          warm_start: Mapping[Variable, float],
                          int_tol: float) -> np.ndarray | None:
    """Turn a claimed-feasible assignment into a vetted incumbent vector.

    The point must cover every column; it is clipped to the variable box,
    integer columns are rounded (rejecting drifts beyond the tolerance),
    and every row must hold within a scaled feasibility tolerance.  Any
    failure returns None — a bad warm start must never become an incumbent,
    or the "upper bound" would cut off the true optimum.
    """
    x = np.empty(len(form.variables))
    for j, var in enumerate(form.variables):
        if var not in warm_start:
            return None
        x[j] = float(warm_start[var])
    x = np.clip(x, form.lb, form.ub)
    int_cols = np.flatnonzero(form.integrality == 1)
    if int_cols.size:
        rounded = np.round(x[int_cols])
        if np.any(np.abs(x[int_cols] - rounded) > max(int_tol, 1e-6)):
            return None
        x[int_cols] = rounded
        x = np.clip(x, form.lb, form.ub)
    activity = form.a_matrix @ x
    scale = 1.0 + np.abs(activity)
    if np.any(activity < form.row_lb - 1e-7 * scale) \
            or np.any(activity > form.row_ub + 1e-7 * scale):
        return None
    return x


def _rounding_heuristic(engine, form: StandardForm, x: np.ndarray,
                        int_cols: np.ndarray) -> np.ndarray | None:
    """Fix all integer columns to their rounded LP values and re-solve the
    continuous part; returns a feasible point or None."""
    lb = form.lb.copy()
    ub = form.ub.copy()
    rounded = np.round(x[int_cols])
    lb[int_cols] = rounded
    ub[int_cols] = rounded
    status, x_fixed, _objective = engine.solve(lb, ub)
    if status != "optimal" or x_fixed is None:
        return None
    return x_fixed


def _finish(model: Model, form: StandardForm, status: SolveStatus,
            x: np.ndarray | None, objective: float, bound: float,
            n_nodes: int, start: float, engine,
            telemetry: SolveTelemetry) -> Solution:
    elapsed = time.perf_counter() - start
    values: dict = {}
    reported_obj = math.nan
    reported_bound = math.nan
    if x is not None and status.has_solution:
        values = {var: float(x[j]) for j, var in enumerate(form.variables)}
        reported_obj = objective + form.c0
        if form.maximize:
            reported_obj = -reported_obj
    # The dual bound is valid whether or not an incumbent exists (a LIMIT
    # stop with no incumbent still proved a bound).
    if math.isfinite(bound):
        reported_bound = bound + form.c0
        if form.maximize:
            reported_bound = -reported_bound
    # Incumbents were recorded in the internal minimize sense; report them
    # in the model's own sense, constant term included.
    sense = -1.0 if form.maximize else 1.0
    telemetry.incumbents = [
        type(e)(e.seconds, sense * (e.objective + form.c0))
        for e in telemetry.incumbents]
    telemetry.status = status.value
    telemetry.lp_calls = engine.n_calls
    telemetry.nodes = n_nodes
    telemetry.wall_seconds = elapsed
    if status is SolveStatus.OPTIMAL:
        telemetry.gap = 0.0
    elif not math.isnan(objective) and not math.isnan(bound):
        telemetry.gap = abs(objective - bound) / max(1.0, abs(objective))
    else:
        telemetry.gap = math.inf
    return Solution(status=status, objective=reported_obj, values=values,
                    bound=reported_bound, n_nodes=n_nodes,
                    solve_seconds=elapsed, backend=f"bnb[{engine.engine}]",
                    telemetry=telemetry)
