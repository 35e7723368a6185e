"""Difference-logic SMT-style backend.

An LP-free solver for the rigid fragment of the floorplan formulation: a
DPLL(T)-style case split over the integer (relative-position) variables with
incremental interval propagation, and a difference-logic theory solver at
the leaves.  It shares *no* code with the LP-relaxation backends — no
simplex, no HiGHS, no relaxation of any kind — which is exactly why the
differential fuzzer and the solution certifier want it: a bug in the LP
worldview cannot reproduce here.

Supported fragment (checked by :func:`supports_model` /
:func:`unsupported_reason` *before* solving):

* every integer variable has finite bounds (the case split enumerates
  them);
* every continuous variable has a finite lower bound and a non-negative
  internal-minimize objective coefficient — then the *pointwise-minimal*
  feasible completion is objective-optimal, so each leaf needs a least
  fixpoint, not an optimizer;
* each row, restricted to its continuous columns, is one of

  - at most one term (a variable bound once the integers are fixed),
  - two terms with coefficients ``(a, -a)`` — a difference constraint
    ``x - y <= c`` / ``>= c``,
  - all-positive coefficients with no finite row lower bound, or
    all-negative with no finite upper bound — monotone rows whose activity
    at the pointwise-minimal completion is its best case, so they are
    decidable by an exact check there (this covers presolve's
    objective-cutoff row for the area and perimeter objectives).

Non-overlap disjunctions, chip bounds, symmetry rows, dominance cuts, and
the unary encoding's valid inequalities all live inside this fragment;
wirelength/length-bound auxiliaries and flexible-height couplings do not
(their rows mix three or more continuous terms), so those models are
rejected up front.

The theory solver at each leaf is Bellman-Ford-style lower-bound
relaxation: difference constraints over a meet-closed lattice have a least
element, reached from the variable lower bounds in at most ``n`` passes;
divergence past that is a positive-gain cycle, i.e. infeasibility.  The
same propagation runs at every internal node over the not-yet-fixed
integers for pruning, alongside an objective-bound cut against the
incumbent.
"""

from __future__ import annotations

import math
import time
from typing import Mapping

import numpy as np

from repro.milp.expr import Variable
from repro.milp.model import Model, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.telemetry import SolveTelemetry

#: Default integrality tolerance (mirrors the branch-and-bound default).
INT_TOL = 1e-6

_FEAS_TOL = 1e-7
_EPS = 1e-12


class UnsupportedModelError(ValueError):
    """The model is outside the difference-logic fragment."""


# ---------------------------------------------------------------------------
# fragment gate


def unsupported_reason(form: StandardForm) -> str | None:
    """Why this standard form is outside the fragment, or None if inside."""
    cont = form.integrality == 0
    if np.any(~np.isfinite(form.lb[~cont])) or \
            np.any(~np.isfinite(form.ub[~cont])):
        return "integer variable with infinite bounds"
    if np.any(~np.isfinite(form.lb[cont])):
        return "continuous variable with no finite lower bound"
    # form.c is already the internal-minimize vector (to_standard_form
    # negates a MAX objective), so it is inspected as-is.
    if np.any(form.c[cont] < -_EPS):
        return "continuous objective coefficient that rewards growth"
    a = form.a_matrix.tocsr()
    for i in range(a.shape[0]):
        cols = a.indices[a.indptr[i]:a.indptr[i + 1]]
        vals = a.data[a.indptr[i]:a.indptr[i + 1]]
        keep = cont[cols] & (vals != 0.0)
        ccoefs = vals[keep]
        if ccoefs.size <= 1:
            continue
        if ccoefs.size == 2 and abs(ccoefs[0] + ccoefs[1]) \
                <= 1e-9 * max(abs(ccoefs[0]), abs(ccoefs[1])):
            continue
        if np.all(ccoefs > 0) and not math.isfinite(form.row_lb[i]):
            continue
        if np.all(ccoefs < 0) and not math.isfinite(form.row_ub[i]):
            continue
        return (f"row {i} mixes {ccoefs.size} continuous terms outside the "
                "difference/monotone fragment")
    return None


def supports_model(model: Model) -> bool:
    """True when :func:`solve_smt` can decide this model exactly."""
    return unsupported_reason(model.to_standard_form()) is None


# ---------------------------------------------------------------------------
# propagation


def _propagate(rows: list[tuple[np.ndarray, np.ndarray, float, float]],
               lb: np.ndarray, ub: np.ndarray, int_mask: np.ndarray,
               int_tol: float) -> bool:
    """Tighten ``lb``/``ub`` in place to an interval fixpoint.

    One pass walks every row and sharpens each member variable's bounds
    from the residual activity of the others; integer bounds are rounded
    inward.  Lower bounds relax Bellman-Ford-style, so a feasible system
    reaches its least fixpoint within ``n + 1`` passes — continued strict
    progress past that is a positive-gain cycle and the domain is declared
    empty.  Returns False when any domain empties (prune), True otherwise.
    """
    n = lb.size
    max_passes = n + 5
    for _ in range(max_passes):
        changed = False
        for cols, vals, rlb, rub in rows:
            low = np.where(vals > 0, vals * lb[cols], vals * ub[cols])
            high = np.where(vals > 0, vals * ub[cols], vals * lb[cols])
            act_lo = float(low.sum())
            act_hi = float(high.sum())
            if act_lo > rub + _FEAS_TOL * (1.0 + abs(act_lo)) or \
                    act_hi < rlb - _FEAS_TOL * (1.0 + abs(act_hi)):
                return False
            for t in range(cols.size):
                j = int(cols[t])
                coef = float(vals[t])
                rest_lo = act_lo - float(low[t])
                rest_hi = act_hi - float(high[t])
                if coef > 0:
                    new_ub = (rub - rest_lo) / coef
                    new_lb = (rlb - rest_hi) / coef
                else:
                    new_ub = (rlb - rest_hi) / coef
                    new_lb = (rub - rest_lo) / coef
                if int_mask[j]:
                    if math.isfinite(new_ub):
                        new_ub = math.floor(new_ub + int_tol)
                    if math.isfinite(new_lb):
                        new_lb = math.ceil(new_lb - int_tol)
                if new_ub < ub[j] - _EPS:
                    ub[j] = new_ub
                    changed = True
                if new_lb > lb[j] + _EPS:
                    lb[j] = new_lb
                    changed = True
                if lb[j] > ub[j] + int_tol:
                    return False
        if not changed:
            return True
    # Still strictly improving after n + 5 full passes: a positive-gain
    # cycle is pumping the lower bounds — the domain is empty.
    return False


def _objective_floor(c: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> float:
    """A valid lower bound on ``c @ x`` over the box ``[lb, ub]``."""
    return float(np.sum(np.where(c > 0, c * lb, c * ub)))


def _leaf_point(form: StandardForm, lb: np.ndarray, ub: np.ndarray,
                int_tol: float) -> np.ndarray | None:
    """The pointwise-minimal completion of a fully-fixed case split.

    Propagation has already pushed every lower bound to its least fixpoint;
    the candidate point is simply ``lb`` (integers are fixed, continuous
    vars sit at their minimal values).  The candidate is then verified
    *exactly* against every original row — the one place monotone rows are
    decided — so nothing the propagation abstracted away can leak through.
    """
    x = lb.copy()
    if np.any(x > ub + int_tol):
        return None
    activity = form.a_matrix @ x
    scale = 1.0 + np.abs(activity)
    if np.any(activity < form.row_lb - _FEAS_TOL * scale) or \
            np.any(activity > form.row_ub + _FEAS_TOL * scale):
        return None
    return x


def _validated_warm_start(form: StandardForm,
                          warm_start: Mapping[Variable, float],
                          int_tol: float) -> np.ndarray | None:
    """A vetted incumbent vector from a claimed-feasible assignment, or
    None (bounds, integrality, and every row are re-checked — a bad warm
    start must never become the pruning incumbent)."""
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
    if np.any(activity < form.row_lb - _FEAS_TOL * scale) \
            or np.any(activity > form.row_ub + _FEAS_TOL * scale):
        return None
    return x


# ---------------------------------------------------------------------------
# search


def solve_smt(model: Model, *, time_limit: float | None = None,
              mip_rel_gap: float = DEFAULT_MIP_REL_GAP,
              node_limit: int | None = None,
              int_tol: float = INT_TOL,
              form: StandardForm | None = None,
              warm_start: Mapping[Variable, float] | None = None) -> Solution:
    """Solve ``model`` by difference-logic case-split search.

    Args:
        model: a model inside the fragment of :func:`supports_model`;
            anything outside raises :class:`UnsupportedModelError`.
        time_limit: wall-clock limit; hitting it with an incumbent yields
            ``TIMEOUT``, without one ``LIMIT``.
        mip_rel_gap: accepted for registry compatibility; the search prunes
            exactly, so a completed run is gap-0 optimal regardless.
        node_limit: case-split node limit (``FEASIBLE``/``LIMIT`` on hit).
        int_tol: integrality tolerance for warm-start vetting and rounding.
        form: precomputed standard form (shared by batching callers).
        warm_start: claimed-feasible assignment; vetted, then installed as
            the initial incumbent so the objective cut prunes from node one.
    """
    form = form if form is not None else model.to_standard_form()
    reason = unsupported_reason(form)
    if reason is not None:
        raise UnsupportedModelError(
            f"smt backend cannot decide this model: {reason}")
    start = time.perf_counter()
    n = len(form.variables)
    int_mask = form.integrality == 1
    int_cols = np.flatnonzero(int_mask)
    c = form.c.astype(float)  # already internal-minimize (see above)
    telemetry = SolveTelemetry(
        backend="smt", n_variables=n, n_integer=int(int_cols.size),
        n_constraints=form.a_matrix.shape[0])

    a = form.a_matrix.tocsr()
    rows = []
    for i in range(a.shape[0]):
        cols = a.indices[a.indptr[i]:a.indptr[i + 1]].astype(np.int64)
        vals = a.data[a.indptr[i]:a.indptr[i + 1]].astype(float)
        keep = vals != 0.0
        if not keep.all():
            cols, vals = cols[keep], vals[keep]
        if cols.size:
            rows.append((cols, vals, float(form.row_lb[i]),
                         float(form.row_ub[i])))
        elif form.row_lb[i] > _FEAS_TOL or form.row_ub[i] < -_FEAS_TOL:
            # An empty row with nonzero sides is unconditionally infeasible.
            return _finish(form, SolveStatus.INFEASIBLE, None, math.nan,
                           math.inf, 1, start, telemetry)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf

    def try_incumbent(x: np.ndarray) -> None:
        nonlocal incumbent_x, incumbent_obj
        obj = float(c @ x)
        if obj < incumbent_obj - _EPS:
            incumbent_obj = obj
            incumbent_x = x.copy()
            telemetry.record_incumbent(time.perf_counter() - start, obj)

    if warm_start is not None:
        seeded = _validated_warm_start(form, warm_start, int_tol)
        if seeded is not None:
            try_incumbent(seeded)

    # DFS over case splits.  Each stack entry owns its bound arrays; the
    # node's objective floor rides along so an abort can still report a
    # valid dual bound (the min over everything not yet refuted).
    root_lb = form.lb.astype(float).copy()
    root_ub = form.ub.astype(float).copy()
    if int_cols.size:
        root_lb[int_cols] = np.ceil(root_lb[int_cols] - int_tol)
        root_ub[int_cols] = np.floor(root_ub[int_cols] + int_tol)
    stack: list[tuple[np.ndarray, np.ndarray, float]] = [
        (root_lb, root_ub, _objective_floor(c, root_lb, root_ub))]
    n_nodes = 0
    open_bound = math.inf  # min objective floor over aborted subtrees
    timed_out = False
    hit_node_limit = False

    while stack:
        if time_limit is not None and \
                time.perf_counter() - start > time_limit:
            timed_out = True
            break
        if node_limit is not None and n_nodes >= node_limit:
            hit_node_limit = True
            break
        lb, ub, floor0 = stack.pop()
        n_nodes += 1
        if floor0 >= incumbent_obj - _EPS:
            continue
        if not _propagate(rows, lb, ub, int_mask, int_tol):
            continue
        floor1 = _objective_floor(c, lb, ub)
        if floor1 >= incumbent_obj - _EPS:
            continue
        free = int_cols[ub[int_cols] - lb[int_cols] > 0.5] \
            if int_cols.size else int_cols
        if not free.size:
            x = _leaf_point(form, lb, ub, int_tol)
            if x is not None:
                try_incumbent(x)
            continue
        # Split on the free integer variable with the smallest domain
        # (first index on ties).  The high value is pushed last — popped
        # first — so the "above" branch of the non-overlap disjunctions,
        # the one a stacked floorplan always realizes, is explored first.
        widths = ub[free] - lb[free]
        j = int(free[int(np.argmin(widths))])
        if ub[j] - lb[j] <= 1.5:
            for v in np.arange(lb[j], ub[j] + 0.5, 1.0):
                child_lb = lb.copy()
                child_ub = ub.copy()
                child_lb[j] = child_ub[j] = v
                stack.append((child_lb, child_ub,
                              _objective_floor(c, child_lb, child_ub)))
        else:
            mid = math.floor((lb[j] + ub[j]) / 2.0)
            lo_lb, lo_ub = lb.copy(), ub.copy()
            lo_ub[j] = mid
            hi_lb, hi_ub = lb.copy(), ub.copy()
            hi_lb[j] = mid + 1
            stack.append((lo_lb, lo_ub, _objective_floor(c, lo_lb, lo_ub)))
            stack.append((hi_lb, hi_ub, _objective_floor(c, hi_lb, hi_ub)))

    aborted = timed_out or hit_node_limit
    if aborted and stack:
        open_bound = min(floor for (_lb, _ub, floor) in stack)
    if incumbent_x is None:
        if aborted:
            return _finish(form, SolveStatus.LIMIT, None, math.nan,
                           open_bound, n_nodes, start, telemetry)
        return _finish(form, SolveStatus.INFEASIBLE, None, math.nan,
                       math.inf, n_nodes, start, telemetry)
    if aborted:
        bound = min(open_bound, incumbent_obj)
        status = SolveStatus.TIMEOUT if timed_out else SolveStatus.FEASIBLE
        return _finish(form, status, incumbent_x, incumbent_obj, bound,
                       n_nodes, start, telemetry)
    return _finish(form, SolveStatus.OPTIMAL, incumbent_x, incumbent_obj,
                   incumbent_obj, n_nodes, start, telemetry)


def _finish(form: StandardForm, status: SolveStatus, x: np.ndarray | None,
            objective: float, bound: float, n_nodes: int, start: float,
            telemetry: SolveTelemetry) -> Solution:
    """Assemble the Solution, mapping internal-minimize values back to the
    model's own sense (mirrors the branch-and-bound's epilogue without
    sharing its code)."""
    elapsed = time.perf_counter() - start
    values: dict[Variable, float] = {}
    reported_obj = math.nan
    reported_bound = math.nan
    if x is not None and status.has_solution:
        values = {var: float(x[j]) for j, var in enumerate(form.variables)}
        reported_obj = objective + form.c0
        if form.maximize:
            reported_obj = -reported_obj
    if math.isfinite(bound):
        reported_bound = bound + form.c0
        if form.maximize:
            reported_bound = -reported_bound
    sense = -1.0 if form.maximize else 1.0
    telemetry.incumbents = [
        type(e)(e.seconds, sense * (e.objective + form.c0))
        for e in telemetry.incumbents]
    telemetry.status = status.value
    telemetry.lp_calls = 0
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
                    solve_seconds=elapsed, backend="smt", telemetry=telemetry)
