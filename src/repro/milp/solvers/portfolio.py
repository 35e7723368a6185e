"""Solver-portfolio racing backend.

Solver choice and instance structure interact unpredictably: HiGHS usually
wins on big subproblems, while the from-scratch branch-and-bound over the
self-contained NumPy simplex can be first on small windows (and keeps
working where a SciPy build misbehaves).  Instead of guessing, this backend
races both engines concurrently on the *same* :class:`StandardForm`:

* the first engine to return a **proven-optimal** solution wins;
* the loser is cancelled — the branch-and-bound cooperatively via a
  :class:`threading.Event` checked each node; HiGHS cannot be interrupted
  mid-call, so its thread is abandoned (always pass a ``time_limit`` so it
  cannot outlive the race for long);
* if neither proves optimality, the better incumbent is returned.

Threads (not processes) are used deliberately: solution values are keyed by
identity-hashed :class:`~repro.milp.expr.Variable` objects, which do not
survive pickling, and both engines release the GIL inside their numeric
kernels.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent import futures

from typing import Mapping

from repro.milp.expr import Variable
from repro.milp.model import Model, ObjectiveSense, StandardForm
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.solvers.branch_and_bound import INT_TOL, solve_bnb
from repro.milp.solvers.scipy_backend import solve_highs


def solve_portfolio(model: Model, *, time_limit: float | None = None,
                    mip_rel_gap: float = DEFAULT_MIP_REL_GAP,
                    node_limit: int = 200_000,
                    int_tol: float = INT_TOL,
                    lp_engine: str = "simplex",
                    form: StandardForm | None = None,
                    warm_start: Mapping[Variable, float] | None = None,
                    ) -> Solution:
    """Race HiGHS against the self-contained branch-and-bound.

    Args:
        model: the model to solve.
        time_limit: wall-clock limit applied to both engines.
        mip_rel_gap: relative gap tolerance for both engines.
        node_limit: branch-and-bound node limit (own engine only).
        int_tol: integrality tolerance (own engine only).
        lp_engine: relaxation solver of the racing branch-and-bound;
            ``"simplex"`` (default) keeps that racer fully self-contained.
        form: a precomputed standard form of ``model`` (e.g. the reduced
            form from presolve); derived from ``model`` when omitted.
        warm_start: a claimed-feasible assignment seeded into the
            branch-and-bound racer as its initial incumbent (HiGHS via
            SciPy exposes no warm-start API).

    Returns:
        The winning engine's solution, with ``backend`` rewritten to
        ``portfolio[<winner>]``.
    """
    form = form if form is not None else model.to_standard_form()
    stop = threading.Event()
    start = time.perf_counter()

    def run_highs() -> Solution:
        return solve_highs(model, time_limit=time_limit,
                           mip_rel_gap=mip_rel_gap, form=form)

    def run_bnb() -> Solution:
        return solve_bnb(model, time_limit=time_limit,
                         mip_rel_gap=mip_rel_gap, node_limit=node_limit,
                         lp_engine=lp_engine, int_tol=int_tol, stop=stop,
                         form=form, warm_start=warm_start)

    executor = futures.ThreadPoolExecutor(
        max_workers=2, thread_name_prefix="portfolio")
    try:
        pending = {executor.submit(run_highs), executor.submit(run_bnb)}
        finished: list[Solution] = []
        winner: Solution | None = None
        while pending:
            done, pending = futures.wait(
                pending, return_when=futures.FIRST_COMPLETED)
            for future in done:
                try:
                    finished.append(future.result())
                except Exception:  # noqa: BLE001 — a crashed racer forfeits
                    continue
                if finished[-1].status is SolveStatus.OPTIMAL:
                    winner = finished[-1]
                    break
            if winner is not None:
                stop.set()
                break
        if winner is None:
            winner = _best_of(finished, model)
    finally:
        stop.set()
        executor.shutdown(wait=False)
    return _branded(winner, time.perf_counter() - start)


def _best_of(finished: list[Solution], model: Model) -> Solution:
    """The best non-optimal outcome: prefer an incumbent, then the better
    objective in the model's own sense."""
    if not finished:
        return Solution(status=SolveStatus.ERROR, backend="portfolio",
                        message="every racer failed")
    with_solution = [s for s in finished if s.status.has_solution]
    if not with_solution:
        return finished[0]
    maximize = model.objective_sense is ObjectiveSense.MAX
    sign = -1.0 if maximize else 1.0

    def key(s: Solution) -> float:
        return sign * s.objective if not math.isnan(s.objective) else math.inf

    return min(with_solution, key=key)


def _branded(solution: Solution, elapsed: float) -> Solution:
    """Rewrite the winner's backend label and wall time to the race's."""
    solution.backend = f"portfolio[{solution.backend}]"
    solution.solve_seconds = elapsed
    if solution.telemetry is not None:
        solution.telemetry.backend = solution.backend
        solution.telemetry.wall_seconds = elapsed
    return solution
