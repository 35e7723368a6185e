"""Formulation benchmark: big-M vs unary non-overlap encodings.

Huchette-Dey-Vielma-style stronger formulations trade rows for relaxation
tightness; the claim worth paying for is *fewer branch-and-bound nodes on
the identical instance*.  This bench builds a fixed set of subproblem
instances under every registered formulation, solves each encoding with the
from-scratch branch-and-bound (where node and LP-call counts are exact,
deterministic signals), and publishes the formulation-vs-nodes/LP-calls
table.

Every encoding pair must agree on the optimal objective (they model the
same instance — disagreement is a formulation bug, and the run fails), and
the unary encoding must show a measurable aggregate node reduction over
big-M — the acceptance criterion that justifies the extra rows.

Artifacts: ``results/formulations.txt`` (the table) and
``results/BENCH_formulations_<rev>.json`` (the per-revision trajectory
record CI uploads, shaped like ``BENCH_<rev>.json``).
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.bench_suite import bench_rev
from benchmarks.conftest import emit
from repro.core.config import FloorplanConfig, Objective
from repro.core.formulation import SubproblemBuilder
from repro.eval.report import format_table
from repro.geometry.rect import Rect
from repro.milp.solution import SolveStatus
from repro.milp.solvers.registry import solve
from repro.milp.telemetry import FORMULATIONS, SolveContext
from repro.netlist.module import Module

#: The backend whose search-effort counters the table reports.
BACKEND = "bnb"

#: Required aggregate node reduction of ``unary`` over ``bigm``: the sum of
#: branch-and-bound nodes across instances must drop by at least this
#: fraction.  Observed locally: ~2-3x; the floor is deliberately loose so
#: the gate survives tie-breaking drift without ever accepting "no better".
NODE_REDUCTION_FLOOR = 0.10


# The instances run *tight* chips on purpose: the unary encoding's valid
# inequalities are chip-packing cuts, so their node savings concentrate
# where capacity binds — exactly the regime the augmentation pipeline
# operates in (resolved chip widths target high utilization).  On loose
# chips the extra indicator binaries can cost nodes instead; the aggregate
# gate below tolerates individual losses but requires a net win.

def _tight_rigid5():
    modules = [Module.rigid(f"m{k}", float(w), float(h))
               for k, (w, h) in enumerate(
                   [(3, 2), (2, 2), (4, 1), (1, 3), (2, 3)])]
    return modules, [], 6.0, {}


def _obstacle_window():
    modules = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
    ]
    obstacles = [Rect(0.0, 0.0, 2.0, 2.0), Rect(5.0, 0.0, 2.0, 1.0)]
    return modules, obstacles, 7.0, {}


def _flexible_obstacle_window():
    modules = [
        Module.rigid("a", 3.0, 2.0),
        Module.rigid("b", 2.0, 2.0),
        Module.flexible_area("f", 6.0, aspect_low=0.5, aspect_high=2.0),
    ]
    return modules, [Rect(0.0, 0.0, 2.0, 2.0)], 6.0, {}


def _perimeter_window():
    modules = [
        Module.rigid("a", 4.0, 3.0),
        Module.rigid("b", 2.0, 5.0),
        Module.rigid("c", 3.0, 3.0),
        Module.rigid("d", 2.0, 2.0),
    ]
    return modules, [], 7.0, {"objective": Objective.PERIMETER}


INSTANCES = {
    "rigid5": _tight_rigid5,
    "obstacles": _obstacle_window,
    "flex_obstacle": _flexible_obstacle_window,
    "perimeter": _perimeter_window,
}


def _solve_point(name: str, formulation: str) -> dict:
    modules, obstacles, chip_width, overrides = INSTANCES[name]()
    config = FloorplanConfig(chip_width=chip_width, formulation=formulation,
                             subproblem_time_limit=120.0, **overrides)
    builder = SubproblemBuilder(modules, obstacles, chip_width, config)
    start = time.perf_counter()
    solution = solve(builder.model, backend=BACKEND,
                     context=SolveContext(formulation=formulation),
                     time_limit=120.0)
    elapsed = time.perf_counter() - start
    assert solution.status is SolveStatus.OPTIMAL, \
        (name, formulation, solution.status)
    return {
        "instance": name,
        "formulation": formulation,
        "objective": round(solution.objective, 6),
        "nodes": solution.telemetry.nodes,
        "lp_calls": solution.telemetry.lp_calls,
        "binaries": builder.n_integer_variables,
        "rows": len(builder.model.constraints),
        "seconds": round(elapsed, 3),
    }


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_formulation_point(benchmark, formulation):
    row = benchmark.pedantic(_solve_point, args=("rigid5", formulation),
                             rounds=1, iterations=1)
    benchmark.extra_info.update(
        {k: row[k] for k in ("objective", "nodes", "lp_calls")})


def test_formulations_table(benchmark, results_dir):
    def run():
        return [_solve_point(name, formulation)
                for name in INSTANCES
                for formulation in FORMULATIONS]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(results_dir, "formulations.txt",
         format_table(rows, title="Non-overlap formulations on the "
                                  f"{BACKEND} backend", floatfmt=".3f"))

    by_instance: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_instance.setdefault(row["instance"], {})[row["formulation"]] = row

    # parity: every encoding of an instance reaches the same optimum
    for name, encodings in by_instance.items():
        objectives = [r["objective"] for r in encodings.values()]
        assert max(objectives) - min(objectives) <= 1e-5 * max(
            1.0, *(abs(o) for o in objectives)), (name, encodings)

    # strength: unary must reduce aggregate search effort measurably
    totals = {formulation: sum(r["nodes"] for r in rows
                               if r["formulation"] == formulation)
              for formulation in FORMULATIONS}
    reduction = 1.0 - totals["unary"] / max(totals["bigm"], 1)
    assert reduction >= NODE_REDUCTION_FLOOR, totals

    artifact = {
        "version": 1,
        "rev": bench_rev(),
        "backend": BACKEND,
        "node_totals": totals,
        "node_reduction_vs_bigm": round(reduction, 4),
        "instances": {
            name: {formulation: {k: row[k] for k in
                                 ("objective", "nodes", "lp_calls",
                                  "binaries", "rows", "seconds")}
                   for formulation, row in encodings.items()}
            for name, encodings in by_instance.items()},
    }
    (results_dir / f"BENCH_formulations_{bench_rev()}.json").write_text(
        json.dumps(artifact, indent=1, sort_keys=True) + "\n")
