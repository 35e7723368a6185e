"""HiGHS backend: each MIP on its own directly configured HiGHS instance.

This is the default "LINDO" of the reproduction: a black-box exact MILP
solver.  Each MIP goes to a fresh instance of SciPy's vendored HiGHS
bindings (``scipy.optimize._highspy``, which bnb's LP engine uses too),
configured with the option profile :data:`HIGHS_PROFILE`.  That skips
:func:`scipy.optimize.milp`'s input checks and result post-processing but
reports what milp would.  Where a SciPy lacks those bindings,
:func:`scipy.optimize.milp` solves the MIP with HiGHS's default options.
Pure-LP models are routed through :func:`scipy.optimize.linprog` (also
HiGHS), which returns dual information.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from types import SimpleNamespace

import numpy as np
from scipy import optimize, sparse

from repro.milp.model import Model, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.telemetry import SolveTelemetry

#: HiGHS options every MIP solve sets on top of its gap and limits.  An
#: option this HiGHS lacks is left out (:func:`highs_profile`).  HiGHS 1.12
#: runs its feasibility-jump primal heuristic before every MIP; on the
#: small windows of successive augmentation it costs more than the search
#: itself and finds nothing the search would not (docs/algorithms.md §7).
HIGHS_PROFILE: dict[str, bool | int | float | str] = {
    "mip_heuristic_run_feasibility_jump": False}


def _highs_core():
    """SciPy's vendored HiGHS bindings, or None where this SciPy lacks
    them."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    return _core


@functools.cache
def _has_option(name: str) -> bool:
    """Whether this HiGHS has option ``name``; probed once per name."""
    return hasattr(_highs_core().HighsOptions(), name)


def highs_profile() -> tuple[tuple[str, object], ...]:
    """The effective profile: the ``(name, value)`` entries of
    :data:`HIGHS_PROFILE` this HiGHS has.  Empty where the bindings are
    missing, since :func:`scipy.optimize.milp` then runs HiGHS's defaults.
    The solve cache keys the backends that run :func:`solve_highs` on it."""
    if _highs_core() is None:
        return ()
    return tuple((name, value) for name, value in HIGHS_PROFILE.items()
                 if _has_option(name))


def highs_lp(core, form: StandardForm, *, integer: bool = False):
    """``form`` as a column-wise ``HighsLp`` of the HiGHS bindings
    ``core``; ``integer`` passes its integrality too."""
    csc = form.a_matrix.tocsc()
    lp = core.HighsLp()
    lp.num_col_ = len(form.variables)
    lp.num_row_ = form.a_matrix.shape[0]
    lp.col_cost_ = np.asarray(form.c, dtype=np.float64)
    lp.col_lower_ = np.asarray(form.lb, dtype=np.float64)
    lp.col_upper_ = np.asarray(form.ub, dtype=np.float64)
    lp.row_lower_ = np.asarray(form.row_lb, dtype=np.float64)
    lp.row_upper_ = np.asarray(form.row_ub, dtype=np.float64)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.asarray(csc.indptr, dtype=np.int32)
    lp.a_matrix_.index_ = np.asarray(csc.indices, dtype=np.int32)
    lp.a_matrix_.value_ = np.asarray(csc.data, dtype=np.float64)
    if integer:
        kinds = (core.HighsVarType.kContinuous, core.HighsVarType.kInteger)
        lp.integrality_ = [kinds[k] for k in form.integrality.tolist()]
    return lp


def solve_highs(model: Model, *, time_limit: float | None = None,
                mip_rel_gap: float = DEFAULT_MIP_REL_GAP,
                node_limit: int | None = None,
                form: StandardForm | None = None) -> Solution:
    """Solve ``model`` with HiGHS.

    Args:
        model: the model to solve.
        time_limit: wall-clock limit in seconds (None = unlimited).
        mip_rel_gap: relative MIP gap at which to stop.
        node_limit: branch-and-bound node limit (None = unlimited).
        form: a precomputed standard form of ``model`` (shared by portfolio
            racers, or the reduced form from presolve); derived from
            ``model`` when omitted.

    Returns:
        A :class:`~repro.milp.solution.Solution`; objective values are
        reported in the model's own sense (max objectives are un-negated).
    """
    form = form if form is not None else model.to_standard_form()
    start = time.perf_counter()

    # Route on the form, not the model: presolve may have fixed every
    # integer column, leaving a pure LP even for a MILP model.
    if not np.count_nonzero(form.integrality):
        result = optimize.linprog(
            form.c,
            bounds=np.column_stack([form.lb, form.ub]),
            method="highs",
            options={"time_limit": time_limit} if time_limit else None,
            **linprog_rows(form),
        )
        elapsed = time.perf_counter() - start
        return _from_scipy(result, form, model, elapsed, backend="highs-lp")

    options: dict[str, float] = {"mip_rel_gap": float(mip_rel_gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)
    result = _solve_mip(form, options)
    if result.status == 4:
        # Some HiGHS builds report "Solve error" on numerically touchy
        # instances; rounding every coefficient to 12 significant digits
        # (far above modeling precision) reliably sidesteps it.
        result = _solve_mip(dataclasses.replace(
            form, a_matrix=_round_sig_sparse(form.a_matrix),
            row_lb=_round_sig(form.row_lb), row_ub=_round_sig(form.row_ub),
            lb=_round_sig(form.lb), ub=_round_sig(form.ub)), options)
    if result.status == 4:
        # Some HiGHS builds keep failing even on the rounded data, on models
        # the from-scratch branch-and-bound solves cleanly; fall back to it
        # rather than surfacing an ERROR for a perfectly solvable model.
        from repro.milp.solvers.branch_and_bound import solve_bnb

        fallback = solve_bnb(model, time_limit=time_limit,
                             mip_rel_gap=mip_rel_gap,
                             **({"node_limit": node_limit}
                                if node_limit is not None else {}),
                             form=form)
        if fallback.status is not SolveStatus.ERROR:
            fallback.message = ("highs reported a solve error; "
                                "bnb fallback used"
                                + (f" ({fallback.message})"
                                   if fallback.message else ""))
            return fallback
    elapsed = time.perf_counter() - start
    return _from_scipy(result, form, model, elapsed, backend="highs")


def _solve_mip(form: StandardForm, options: dict[str, float]):
    """Solve the MIP ``form`` under milp's ``options`` (``mip_rel_gap``,
    ``time_limit``, ``node_limit``) plus :func:`highs_profile`.

    Returns what :func:`scipy.optimize.milp` would: its ``status`` code,
    ``message``, ``x``, ``mip_node_count`` and ``mip_dual_bound``.
    """
    core = _highs_core()
    if core is None:
        return optimize.milp(
            form.c, constraints=optimize.LinearConstraint(
                form.a_matrix, form.row_lb, form.row_ub),
            bounds=optimize.Bounds(form.lb, form.ub),
            integrality=form.integrality, options=options)
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    h = core._Highs()
    h.setOptionValue("log_to_console", False)
    for name, value in (*options.items(), *highs_profile()):
        h.setOptionValue("mip_max_nodes" if name == "node_limit" else name,
                         value)
    kind = core.HighsModelStatus
    point = {"x": None, "mip_node_count": None, "mip_dual_bound": None}
    if h.passModel(highs_lp(core, form, integer=True)) \
            == core.HighsStatus.kError:
        status = kind.kModelError
        text = h.modelStatusToString(status)
    elif h.run() == core.HighsStatus.kError:
        status = h.getModelStatus()
        text = h.modelStatusToString(status)
    else:
        # milp's rule: a point exists at optimality, or at a limit that
        # left a finite incumbent.
        status = h.getModelStatus()
        info = h.getInfo()
        limits = (kind.kTimeLimit, kind.kIterationLimit,
                  kind.kSolutionLimit)
        if status == kind.kOptimal or (
                status in limits
                and info.objective_function_value != core.kHighsInf):
            text = h.modelStatusToString(status)
            point = {"x": np.array(h.getSolution().col_value),
                     "mip_node_count": info.mip_node_count,
                     "mip_dual_bound": info.mip_dual_bound}
        else:
            text = (f"model_status is {h.modelStatusToString(status)}; "
                    "primal_status is "
                    + h.solutionStatusToString(info.primal_solution_status))
    code, message = _highs_to_scipy_status_message(status, text)
    return SimpleNamespace(status=code, message=message, **point)


def _round_sig(values: np.ndarray, digits: int = 12) -> np.ndarray:
    """Round finite entries to ``digits`` significant digits."""
    out = np.array(values, dtype=float)
    finite = np.isfinite(out)
    out[finite] = [float(f"{v:.{digits}g}") for v in out[finite]]
    return out


def _round_sig_sparse(matrix, digits: int = 12):
    """A copy of a sparse matrix with data rounded to significant digits."""
    rounded = matrix.copy()
    rounded.data = _round_sig(rounded.data, digits)
    return rounded


def linprog_rows(form: StandardForm) -> dict[str, np.ndarray | None]:
    """Split two-sided rows into linprog's A_ub/b_ub and A_eq/b_eq
    arguments (the LP path here and bnb's per-node linprog engine)."""
    eq_mask = np.isfinite(form.row_lb) & (form.row_lb == form.row_ub)
    ub_mask = np.isfinite(form.row_ub) & ~eq_mask
    lb_mask = np.isfinite(form.row_lb) & ~eq_mask
    kwargs: dict = {"A_ub": None, "b_ub": None, "A_eq": None, "b_eq": None}
    a_parts, b_parts = [], []
    if ub_mask.any():
        a_parts.append(form.a_matrix[ub_mask])
        b_parts.append(form.row_ub[ub_mask])
    if lb_mask.any():
        a_parts.append(-form.a_matrix[lb_mask])
        b_parts.append(-form.row_lb[lb_mask])
    if a_parts:
        kwargs["A_ub"] = sparse.vstack(a_parts).tocsr()
        kwargs["b_ub"] = np.concatenate(b_parts)
    if eq_mask.any():
        kwargs["A_eq"] = form.a_matrix[eq_mask]
        kwargs["b_eq"] = form.row_lb[eq_mask]
    return kwargs


_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.LIMIT,      # iteration/node limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _from_scipy(result, form, model: Model, elapsed: float,
                backend: str) -> Solution:
    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    if status is SolveStatus.LIMIT and result.x is not None:
        status = SolveStatus.FEASIBLE
    values: dict = {}
    objective = float("nan")
    if result.x is not None and status.has_solution:
        x = np.asarray(result.x, dtype=float)
        values = {var: float(x[j]) for j, var in enumerate(form.variables)}
        objective = float(form.c @ x) + form.c0
        if form.maximize:
            objective = -objective
    bound = float("nan")
    mip_bound = getattr(result, "mip_dual_bound", None)
    # linprog results carry a vestigial mip_dual_bound of 0.0 that has
    # nothing to do with the LP's dual value — only trust the field when
    # the model actually has integer columns.
    is_mip = bool(np.count_nonzero(form.integrality))
    if is_mip and mip_bound is not None and np.isfinite(mip_bound):
        bound = float(mip_bound) + form.c0
        if form.maximize:
            bound = -bound
    elif status is SolveStatus.OPTIMAL:
        bound = objective
    n_nodes = int(getattr(result, "mip_node_count", 0) or 0)
    telemetry = SolveTelemetry(
        backend=backend,
        status=status.value,
        lp_calls=1 if backend == "highs-lp" else 0,
        nodes=n_nodes,
        wall_seconds=elapsed,
        n_variables=len(form.variables),
        n_integer=int(np.count_nonzero(form.integrality)),
        n_constraints=form.a_matrix.shape[0])
    if status is SolveStatus.OPTIMAL:
        telemetry.gap = 0.0
    elif status.has_solution and not np.isnan(bound):
        telemetry.gap = abs(objective - bound) / max(1.0, abs(objective))
    else:
        telemetry.gap = float("inf")
    if status.has_solution:
        telemetry.record_incumbent(elapsed, objective)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        bound=bound,
        n_nodes=n_nodes,
        solve_seconds=elapsed,
        backend=backend,
        message=str(getattr(result, "message", "")),
        telemetry=telemetry,
    )
