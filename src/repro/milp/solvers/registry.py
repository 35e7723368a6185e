"""Backend registry: dispatch ``solve(model, backend=...)``.

The registry is also where the optional presolve layer lives: with
``presolve=True`` and a backend that gains from it (bnb, portfolio,
simplex, smt; HiGHS presolves every model itself) the model's standard form
is reduced once (bound propagation, big-M tightening, fixed-column
elimination, symmetry rows, warm-start objective cutoff) and the *reduced*
form is handed to the backend; the returned solution is postsolved back to
the original space, so callers — including the independent certifier —
never see reduced-space values.  :func:`solve_inputs` is the one place
that decides, per backend, whether presolve runs and whether anything
reads a warm start.

It is also the single choke point for the canonical solve cache
(:mod:`repro.milp.cache`): with ``cache=...`` every backend — bnb, simplex,
highs, portfolio — checks the cache before solving and stores
proven-optimal results after.  A hit is served only after it re-certifies
against the requesting model's raw standard form; a hit that fails
certification is evicted and the model is re-solved.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.milp.expr import Variable
from repro.milp.model import Model, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.telemetry import SolveContext

if TYPE_CHECKING:
    from repro.milp.cache import SolveCache


def _solve_highs(model: Model, **options) -> Solution:
    from repro.milp.solvers.scipy_backend import solve_highs

    return solve_highs(model, **options)


def _solve_bnb(model: Model, **options) -> Solution:
    from repro.milp.solvers.branch_and_bound import solve_bnb

    return solve_bnb(model, **options)


def _solve_simplex(model: Model, **options) -> Solution:
    from repro.milp.solvers.simplex import solve_simplex

    return solve_simplex(model, **options)


def _solve_portfolio(model: Model, **options) -> Solution:
    from repro.milp.solvers.portfolio import solve_portfolio

    return solve_portfolio(model, **options)


def _solve_smt(model: Model, **options) -> Solution:
    from repro.milp.solvers.smt_dl import solve_smt

    return solve_smt(model, **options)


_BACKENDS: dict[str, Callable[..., Solution]] = {
    "highs": _solve_highs,
    "bnb": _solve_bnb,
    "simplex": _solve_simplex,
    "portfolio": _solve_portfolio,
    "smt": _solve_smt,
}

#: Backends that accept a ``warm_start`` incumbent.  HiGHS via scipy
#: exposes no warm-start API and simplex solves LPs from scratch; for
#: simplex a warm start still powers presolve's objective cutoff.
_WARM_START_BACKENDS = frozenset({"bnb", "portfolio", "smt"})

#: Backends the registry presolves for: the from-scratch solvers see the
#: reduced, coefficient-tightened rows verbatim (bnb explores 2-3.4x fewer
#: nodes; the smt backend's interval propagation prunes harder too).  HiGHS
#: presolves every model itself, so ours would only cost time.
_PRESOLVE_BACKENDS = frozenset({"bnb", "portfolio", "simplex", "smt"})

#: Backends that run :func:`~repro.milp.solvers.scipy_backend.solve_highs`:
#: their cache keys carry its effective HiGHS option profile.
_HIGHS_BACKENDS = frozenset({"highs", "portfolio"})


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`solve`."""
    return tuple(_BACKENDS)


def solve_inputs(backend: str, presolve: bool) -> tuple[bool, bool]:
    """``(presolve runs, a warm start is read)`` for a solve on ``backend``.

    Presolve runs when asked for and ``backend`` gains from it; a warm start
    is read by the backends that take one and by presolve's objective
    cutoff.  :func:`solve` and :func:`solve_many` drop the inputs nothing
    reads before keying the cache, so such settings never split keys, and
    callers need not build them.
    """
    runs = presolve and backend in _PRESOLVE_BACKENDS
    return runs, runs or backend in _WARM_START_BACKENDS


def _presolved_outcome(backend: str, form: StandardForm, result,
                       status: SolveStatus) -> Solution:
    """A Solution for an outcome presolve decided without the backend."""
    from repro.milp.telemetry import SolveTelemetry

    telemetry = SolveTelemetry(
        backend=backend, status=status.value,
        n_variables=len(form.variables),
        n_integer=int(np.count_nonzero(form.integrality)),
        n_constraints=form.a_matrix.shape[0],
        presolve=result.report.to_dict())
    if status is SolveStatus.OPTIMAL:
        objective = float(result.reduced.c0)
        if form.maximize:
            objective = -objective
        telemetry.gap = 0.0
        telemetry.record_incumbent(0.0, objective)
        return Solution(status=status, objective=objective, bound=objective,
                        values=dict(result.fixed), backend=backend,
                        message="solved entirely by presolve",
                        telemetry=telemetry)
    telemetry.gap = float("inf")
    return Solution(status=status, backend=backend,
                    message="presolve detected infeasibility",
                    telemetry=telemetry)


def _cutoff_incumbent_outcome(
        model: Model, backend: str, form: StandardForm, result,
        warm_start: Mapping[Variable, float] | None,
        cutoff: float | None) -> Solution | None:
    """The warm start itself, when cutoff-infeasibility proves it optimal.

    An INFEASIBLE verdict on a form carrying the objective-cutoff row
    ``c @ x <= z + pad`` says no point beats the incumbent that supplied
    ``z`` — the incumbent is optimal within the pad.  The original model is
    feasible (the warm start is a witness), so surfacing INFEASIBLE would be
    wrong; it also shields against knife-edge numerics when the warm start
    is *exactly* optimal and the cutoff row leaves the solver a
    zero-measure feasible set.  Returns None when the fallback does not
    apply (no cutoff was added, or the warm start no longer verifies).
    """
    if cutoff is None or warm_start is None:
        return None
    if model.check_assignment(warm_start):
        return None
    from repro.milp.telemetry import SolveTelemetry

    objective = cutoff + float(form.c0)
    if form.maximize:
        objective = -objective
    telemetry = SolveTelemetry(
        backend=backend, status=SolveStatus.OPTIMAL.value,
        n_variables=len(form.variables),
        n_integer=int(np.count_nonzero(form.integrality)),
        n_constraints=form.a_matrix.shape[0],
        presolve=result.report.to_dict(), gap=0.0)
    telemetry.record_incumbent(0.0, objective)
    return Solution(status=SolveStatus.OPTIMAL, objective=objective,
                    bound=objective, values=dict(warm_start),
                    backend=backend,
                    message="objective cutoff proved the warm start optimal",
                    telemetry=telemetry)


def solve(model: Model, backend: str = "highs", *,
          presolve: bool = False,
          warm_start: Mapping[Variable, float] | None = None,
          symmetry_groups: Sequence[Sequence[Variable]] = (),
          cache: "SolveCache | None" = None,
          form: StandardForm | None = None,
          context: SolveContext = SolveContext(),
          **options) -> Solution:
    """Solve ``model`` with the named backend.

    Args:
        model: the model to solve.
        backend: one of :func:`available_backends` — ``"highs"`` (HiGHS via
            SciPy; the default), ``"bnb"`` (from-scratch branch-and-bound),
            ``"simplex"`` (pure-NumPy simplex; LPs only), ``"portfolio"``
            (race HiGHS against the self-contained branch-and-bound and
            keep the first proven-optimal result), or ``"smt"`` (the LP-free
            difference-logic case-split solver of
            :mod:`repro.milp.solvers.smt_dl`; rejects models outside its
            fragment).
        presolve: run the solver-independent presolve layer
            (:mod:`repro.milp.presolve`) and hand the backend the reduced
            form; the solution is postsolved to the original space and its
            telemetry carries the :class:`~repro.milp.presolve.PresolveReport`.
            Ignored for ``"highs"``, which presolves every model itself
            (see :func:`solve_inputs`).
        warm_start: a known-feasible full-space assignment.  Seeds the
            ``bnb`` / ``portfolio`` / ``smt`` incumbent and, where presolve
            runs, adds an objective-cutoff row; ignored otherwise.
        symmetry_groups: groups of interchangeable variables handed to
            presolve for symmetry-breaking rows (ignored without presolve).
        cache: a :class:`~repro.milp.cache.SolveCache`; when given, the
            model's canonical structural hash is looked up before any
            solving happens, and a proven-OPTIMAL result is stored after.
            Hits are re-certified against the raw standard form before
            being served (see :mod:`repro.milp.cache`).  The key folds in
            ``backend``, whether presolve runs, whether a warm start is
            read, the ``mip_rel_gap`` / ``int_tol`` tolerances,
            ``context`` and, for the backends that run HiGHS's MIP solver,
            its effective option profile, so configurations that could
            return different optimal vertices never share an entry.
        form: a precomputed ``model.to_standard_form()``; batching callers
            (:func:`solve_many`) pass it so canonicalization and cache-key
            hashing happen once per instance, not once per variant.
        context: how ``model`` was built (formulation, fixed outline, ECO
            window; :class:`~repro.milp.telemetry.SolveContext`), recorded
            as telemetry provenance and folded into the cache key.
        **options: backend-specific options such as ``time_limit``,
            ``mip_rel_gap``, ``node_limit``, ``lp_engine``, ``int_tol``.

    Returns:
        The backend's :class:`~repro.milp.solution.Solution`.
    """
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        ) from None
    presolve, reads_warm_start = solve_inputs(backend, presolve)
    if not reads_warm_start:
        warm_start = None
    if not presolve:
        symmetry_groups = ()

    key: str | None = None
    key_seconds = 0.0
    if cache is not None:
        if form is None:
            form = model.to_standard_form()
        key, key_seconds, served = _lookup(
            cache, model, form, backend, presolve=presolve,
            warm_started=warm_start is not None, context=context,
            options=options)
        if served is not None:
            return served

    solution = _solve_uncached(fn, model, backend, form,
                               presolve=presolve, warm_start=warm_start,
                               symmetry_groups=symmetry_groups, **options)
    if solution.telemetry is not None:
        solution.telemetry.record_context(context)
    if key is not None:
        from repro.milp import cache as cache_mod

        cache_mod.record_store(cache, key, solution, form,
                               key_seconds=key_seconds)
    return solution


def _lookup(cache: "SolveCache", model: Model, form: StandardForm,
            backend: str, *, presolve: bool, warm_started: bool,
            context: SolveContext, options: dict
            ) -> tuple[str, float, Solution | None]:
    """Key ``form`` as :func:`solve` documents and look it up: ``(key,
    key_seconds, served)``, where ``served`` is a re-certified hit or None
    on a miss."""
    from repro.milp import cache as cache_mod

    int_tol = float(options.get("int_tol", 1e-6))
    mip_rel_gap = float(options.get("mip_rel_gap", DEFAULT_MIP_REL_GAP))
    started = time.perf_counter()
    items = (backend, bool(presolve), warm_started,
             cache_mod._q(mip_rel_gap), cache_mod._q(int_tol),
             *context.key_items())
    if backend in _HIGHS_BACKENDS:
        from repro.milp.solvers.scipy_backend import highs_profile

        # HiGHS's defaults add no entry, so their keys are the ones
        # recorded before the profile existed.
        profile = highs_profile()
        if profile:
            items += (profile,)
    key = cache_mod.canonical_form_key(form, context=items)
    key_seconds = time.perf_counter() - started
    cache.stats.key_seconds += key_seconds
    served = cache_mod.serve_cached(cache, key, model, form, int_tol=int_tol,
                                    mip_rel_gap=mip_rel_gap,
                                    key_seconds=key_seconds)
    if served is not None and served.telemetry is not None:
        served.telemetry.record_context(context)
    return key, key_seconds, served


def _solve_uncached(fn: Callable[..., Solution], model: Model, backend: str,
                    form: StandardForm | None, *, presolve: bool,
                    warm_start: Mapping[Variable, float] | None,
                    symmetry_groups: Sequence[Sequence[Variable]],
                    **options) -> Solution:
    """The pre-cache solve path: optional presolve, then the backend.  The
    inputs arrive as :func:`solve_inputs` leaves them: without presolve, a
    warm start is one the backend takes."""
    if not presolve:
        if warm_start is not None:
            options["warm_start"] = warm_start
        if form is not None:
            options["form"] = form
        return fn(model, **options)

    from repro.milp.presolve import internal_objective, presolve_form

    if form is None:
        form = model.to_standard_form()
    cutoff = internal_objective(form, warm_start) if warm_start else None
    result = presolve_form(form, symmetry_groups=symmetry_groups,
                           objective_cutoff=cutoff)
    if result.infeasible:
        fallback = _cutoff_incumbent_outcome(model, backend, form, result,
                                             warm_start, cutoff)
        if fallback is not None:
            return fallback
        return _presolved_outcome(backend, form, result,
                                  SolveStatus.INFEASIBLE)
    if not result.reduced.variables:
        return _presolved_outcome(backend, form, result, SolveStatus.OPTIMAL)
    if warm_start is not None and backend in _WARM_START_BACKENDS:
        mapped = result.map_warm_start(warm_start)
        if mapped is not None:
            options["warm_start"] = mapped
    solution = result.postsolve_solution(fn(model, form=result.reduced,
                                            **options))
    if solution.status is SolveStatus.INFEASIBLE:
        fallback = _cutoff_incumbent_outcome(model, backend, form, result,
                                             warm_start, cutoff)
        if fallback is not None:
            return fallback
    return solution


# ---------------------------------------------------------------------------
# batched solving
# ---------------------------------------------------------------------------

def _error_solution(backend: str, exc: Exception) -> Solution:
    """A synthetic ERROR result for a crashed solve (``on_error="capture"``)."""
    return Solution(status=SolveStatus.ERROR, backend=backend,
                    message=f"raised {type(exc).__name__}: {exc}")


def _pack_solution(model: Model, solution: Solution) -> dict:
    """A picklable, identity-free representation of ``solution``.

    Variables hash by identity, so a Solution shipped across a process
    boundary comes back keyed by *copies* of the caller's variables.  The
    values are therefore flattened into standard-form column order — the
    order is a deterministic function of the model structure, so the parent
    rebuilds the dict against its own variable objects.
    """
    ordered = model.to_standard_form().variables
    return {
        "status": solution.status.value,
        "objective": solution.objective,
        "bound": solution.bound,
        "values": [solution.values.get(v) for v in ordered],
        "n_nodes": solution.n_nodes,
        "solve_seconds": solution.solve_seconds,
        "backend": solution.backend,
        "message": solution.message,
        "telemetry": None if solution.telemetry is None
        else solution.telemetry.to_dict(),
    }


def _unpack_solution(form: StandardForm, packed: dict) -> Solution:
    """Rebuild a worker's packed solution against the parent's variables."""
    from repro.milp.telemetry import SolveTelemetry

    values = {var: float(val)
              for var, val in zip(form.variables, packed["values"])
              if val is not None}
    telemetry = None if packed["telemetry"] is None \
        else SolveTelemetry.from_dict(packed["telemetry"])
    return Solution(status=SolveStatus(packed["status"]),
                    objective=packed["objective"], values=values,
                    bound=packed["bound"], n_nodes=packed["n_nodes"],
                    solve_seconds=packed["solve_seconds"],
                    backend=packed["backend"], message=packed["message"],
                    telemetry=telemetry)


def _batch_worker(payload: dict) -> dict:
    """One :func:`solve_many` item in a worker process (module-level so it
    pickles for :func:`repro.parallel.parallel_map`)."""
    model = payload["model"]
    backend = payload["backend"]
    try:
        solution = solve(model, backend=backend,
                         presolve=payload["presolve"],
                         warm_start=payload["warm_start"],
                         symmetry_groups=payload["symmetry_groups"],
                         context=payload["context"],
                         **payload["options"])
    except Exception as exc:  # noqa: BLE001 — surfaced per-item by caller
        if payload["on_error"] != "capture":
            raise
        solution = _error_solution(backend, exc)
    return _pack_solution(model, solution)


def solve_many(models: Sequence[Model], backend: str = "highs", *,
               presolve: bool = False,
               warm_starts: Sequence[Mapping[Variable, float] | None] | None = None,
               symmetry_groups_many: Sequence[Sequence[Sequence[Variable]]] | None = None,
               cache: "SolveCache | None" = None,
               workers: int | None = 1,
               on_error: str = "raise",
               context: SolveContext = SolveContext(),
               **options) -> list[Solution]:
    """Solve a vector of independent models through one batched entry point.

    The batch amortizes the per-solve fixed costs across the vector: every
    model's standard form is canonicalized exactly once (shared between
    cache-key hashing, presolve, and the backend), and cache keys are hashed
    in a single parent-side pass so parallel workers never repeat them.
    Dispatch goes through :func:`repro.parallel.parallel_map` — the same
    primitive the chip-width sweep and the benchmark suite fan out on.

    With ``workers=1`` (the default) the batch is solved serially in-process
    and is *element-wise identical* to calling :func:`solve` in a loop —
    including cache-hit accounting, since lookups and stores interleave in
    item order.  With parallel workers, cache hits are served from the
    parent before dispatch and misses are solved cache-less in workers (the
    in-memory tier is per-process), then recorded by the parent; a batch
    containing structural duplicates can therefore count hits differently
    from the serial path, but the returned solutions are the same.

    Args:
        models: the instances to solve (order is preserved in the result).
        backend: as :func:`solve`, applied to every instance.
        presolve: as :func:`solve`, applied to every instance.
        warm_starts: optional per-instance warm starts (aligned with
            ``models``).
        symmetry_groups_many: optional per-instance symmetry groups.
        cache: shared :class:`~repro.milp.cache.SolveCache`.
        workers: process count for the batch — 1 runs serially, ``None``/0
            uses every core (see :func:`repro.parallel.resolve_workers`).
        on_error: ``"raise"`` propagates the first per-item exception;
            ``"capture"`` converts a crashed item into a synthetic ERROR
            :class:`~repro.milp.solution.Solution` (the differential
            fuzzer's mode — a crash is a finding, not an abort).
        context: as :func:`solve`, applied to every instance.
        **options: backend options forwarded to every instance.

    Returns:
        One :class:`~repro.milp.solution.Solution` per model, in order.
        Each solution's telemetry carries ``batch = {"size": n, "index": i}``
        provenance (stripped by telemetry canonicalization, so batched and
        sequential runs stay byte-comparable).
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', "
                         f"got {on_error!r}")
    model_list = list(models)
    n = len(model_list)
    warm_list = list(warm_starts) if warm_starts is not None else [None] * n
    sym_list = list(symmetry_groups_many) if symmetry_groups_many is not None \
        else [()] * n
    if len(warm_list) != n or len(sym_list) != n:
        raise ValueError("warm_starts / symmetry_groups_many must align "
                         "with models")
    # As in solve(), so parent-side keys and worker payloads match it.
    presolve, reads_warm_start = solve_inputs(backend, presolve)
    if not reads_warm_start:
        warm_list = [None] * n
    if not presolve:
        sym_list = [()] * n

    from repro.parallel import parallel_map, resolve_workers

    forms = [m.to_standard_form() for m in model_list]
    solutions: list[Solution | None] = [None] * n

    n_workers = min(resolve_workers(workers), n) if n else 1
    if n_workers <= 1:
        for i, (model, warm, sym, form) in enumerate(
                zip(model_list, warm_list, sym_list, forms)):
            try:
                solutions[i] = solve(model, backend=backend,
                                     presolve=presolve, warm_start=warm,
                                     symmetry_groups=sym, cache=cache,
                                     form=form, context=context, **options)
            except Exception as exc:  # noqa: BLE001 — per-item capture
                if on_error != "capture":
                    raise
                solutions[i] = _error_solution(backend, exc)
    else:
        cache_keys: list[str | None] = [None] * n
        if cache is not None:
            for i, form in enumerate(forms):
                cache_keys[i], _seconds, solutions[i] = _lookup(
                    cache, model_list[i], form, backend, presolve=presolve,
                    warm_started=warm_list[i] is not None, context=context,
                    options=options)
        pending = [i for i in range(n) if solutions[i] is None]
        payloads = [{
            "model": model_list[i], "backend": backend, "presolve": presolve,
            "warm_start": warm_list[i], "symmetry_groups": sym_list[i],
            "options": options, "on_error": on_error, "context": context,
        } for i in pending]
        packed = parallel_map(_batch_worker, payloads, workers=n_workers)
        for i, doc in zip(pending, packed):
            solutions[i] = _unpack_solution(forms[i], doc)
            if cache is not None and cache_keys[i] is not None:
                from repro.milp import cache as cache_mod

                cache_mod.record_store(cache, cache_keys[i], solutions[i],
                                       forms[i], key_seconds=0.0)

    out = [s for s in solutions if s is not None]
    for i, solution in enumerate(out):
        if solution.telemetry is not None:
            solution.telemetry.batch = {"size": n, "index": i}
    return out
