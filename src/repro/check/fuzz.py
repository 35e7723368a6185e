"""Cross-backend differential fuzzing of the MILP solver stack.

With four independent solving paths (HiGHS via SciPy, the from-scratch
branch-and-bound, the pure-NumPy simplex, the LP-free difference-logic
``smt`` search), subtle disagreements are the expected failure mode —
exactly what Huchette et al. observe across floor-layout formulation
variants.  This harness generates seeded random instances (pure LPs, boxed
random MILPs, and floorplan-shaped subproblems straight from
:class:`SubproblemBuilder`), runs every applicable backend on the identical
model — the branch-and-bound once over each LP engine (``"bnb"`` over
HiGHS, ``"bnb[simplex]"`` over the NumPy simplex), each variant raw and,
where the registry presolves for it, through the presolve layer too
(``"<variant>+presolve"``) — cross-checks the claims, and greedily shrinks
any disagreement to a minimal JSON reproducer.

With the formulation axis on (the default), every floorplan-shaped case is
generated *twice from the same random state* — once per registered
non-overlap encoding (``bigm`` and ``unary``) — and the full
backend x presolve variant matrix runs on each.  The encodings share the
instance, so beyond the per-encoding consistency rules below, any two
OPTIMAL claims across encodings must agree on the objective, and an
INFEASIBLE claim under one encoding contradicts an OPTIMAL claim under the
other.  Variable spaces differ across encodings, so assignments are never
compared — only claims.

Comparison semantics (all instances have finite variable boxes, so
``UNBOUNDED`` is never legitimate):

* a raised exception is a ``crash`` finding for that backend;
* any returned incumbent must pass the independent certificate checker
  (``bad-certificate`` otherwise);
* ``INFEASIBLE`` contradicts any *certified* feasible incumbent elsewhere;
* two ``OPTIMAL`` claims must agree on the objective within tolerance;
* a certified feasible incumbent may never beat a proven optimum.

``LIMIT``/``TIMEOUT``/``ERROR`` results are inconclusive: counted, but not
disagreements.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.check.certificate import check_certificate
from repro.milp.expr import VarKind, lin_sum
from repro.milp.model import Model, ObjectiveSense
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.registry import available_backends, solve_inputs, \
    solve_many
from repro.milp.solvers.smt_dl import supports_model as _smt_supports
from repro.milp.telemetry import DEFAULT_FORMULATION, FORMULATIONS
from repro.serialize import model_from_dict, model_to_dict

#: Relative tolerance when comparing objective claims across backends.
CROSS_OBJ_TOL = 1e-5
#: mip_rel_gap passed to every backend so OPTIMAL claims are tight.
FUZZ_GAP = 1e-6


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def generate_model(rng: random.Random) -> Model:
    """One seeded random instance: ~40% pure LP, ~40% boxed MILP, ~20%
    floorplan-shaped subproblem."""
    roll = rng.random()
    if roll < 0.4:
        return _random_boxed(rng, integers=False)
    if roll < 0.8:
        return _random_boxed(rng, integers=True)
    return _floorplan_shaped(rng)


def generate_case(rng: random.Random, *,
                  formulation_axis: bool = True,
                  outline_axis: bool = True,
                  eco_axis: bool = True) -> dict[str, Model]:
    """One seeded case as ``{encoding label: model}``.

    Random LPs/MILPs have no encoding axis and come back under the single
    empty label.  Floorplan-shaped cases with ``formulation_axis`` are
    built once per registered non-overlap encoding *from the identical
    random state*, so the pair models the same instance and the optimal
    objectives must coincide.  With ``outline_axis``, half the
    floorplan-shaped cases (rolled *before* the shared state is captured,
    so every encoding sees the same die) carry a fixed-outline chip-height
    cap — the cap makes INFEASIBLE a legitimate claim, which every
    backend and encoding must then agree on.  With ``eco_axis``, half of
    them are ECO-window shaped: obstacles lifted off the floor — the shape
    :func:`repro.core.eco.solve_eco` subproblems take when a frozen
    placement hangs over a hole and ``use_covering_rectangles`` is off
    (the frozen envelopes pass through verbatim).  Window modules may then
    legally slide *under* an obstacle, a branching pattern the cold
    augmentation loop never generates.
    """
    roll = rng.random()
    if roll < 0.4:
        return {"": _random_boxed(rng, integers=False)}
    if roll < 0.8:
        return {"": _random_boxed(rng, integers=True)}
    use_outline = outline_axis and rng.random() < 0.5
    use_eco = eco_axis and rng.random() < 0.5
    if not formulation_axis:
        return {"": _floorplan_shaped(rng, outline=use_outline, eco=use_eco)}
    state = rng.getstate()
    case: dict[str, Model] = {}
    for formulation in FORMULATIONS:
        rng.setstate(state)
        case[formulation] = _floorplan_shaped(rng, formulation=formulation,
                                              outline=use_outline,
                                              eco=use_eco)
    return case


def _random_boxed(rng: random.Random, *, integers: bool) -> Model:
    """A random model over finite variable boxes with small integer data.

    Most constraints are anchored to a random interior point so feasible
    instances dominate, with a minority of free-rhs rows to also exercise
    INFEASIBLE paths.  Finite boxes rule out unboundedness by construction.
    """
    model = Model("fuzz")
    n = rng.randint(2, 6)
    variables = []
    for j in range(n):
        if integers and rng.random() < 0.5:
            if rng.random() < 0.5:
                var = model.add_binary(f"b{j}")
            else:
                var = model.add_var(f"i{j}", 0.0, rng.randint(1, 6),
                                    VarKind.INTEGER)
        else:
            var = model.add_continuous(f"x{j}", 0.0, float(rng.randint(1, 10)))
        variables.append(var)

    anchor = [rng.uniform(v.lb, v.ub) for v in variables]
    for i in range(rng.randint(1, 2 * n)):
        coeffs = [rng.randint(-5, 5) for _ in variables]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = 1
        expr = lin_sum(c * v for c, v in zip(coeffs, variables) if c)
        at_anchor = sum(c * a for c, a in zip(coeffs, anchor))
        sense_le = rng.random() < 0.5
        if rng.random() < 0.8:                        # feasible at anchor
            slack = rng.uniform(0.0, 5.0)
            rhs = at_anchor + slack if sense_le else at_anchor - slack
        else:
            rhs = float(rng.randint(-20, 20))         # may cut everything off
        model.add_constraint(expr <= rhs if sense_le else expr >= rhs,
                             name=f"c{i}")

    obj_coeffs = [rng.randint(-4, 4) for _ in variables]
    if not any(obj_coeffs):
        obj_coeffs[0] = 1
    objective = lin_sum(c * v for c, v in zip(obj_coeffs, variables) if c)
    sense = ObjectiveSense.MAX if rng.random() < 0.5 else ObjectiveSense.MIN
    model.set_objective(objective + rng.randint(-3, 3), sense)
    return model


def _floorplan_shaped(rng: random.Random, *,
                      formulation: str = DEFAULT_FORMULATION,
                      outline: bool = False,
                      eco: bool = False) -> Model:
    """A small real subproblem from :class:`SubproblemBuilder`: 1-2 window
    modules over 0-2 covering rectangles on a chip wide enough to be
    feasible, non-overlap encoded per ``formulation``.  With ``outline``,
    the subproblem carries a random fixed-outline height cap — tight
    enough to make some instances genuinely infeasible.  With ``eco``,
    obstacles float at a random height above the floor, mirroring the
    windowed ECO subforms where a frozen placement (passed verbatim, no
    covering-rectangle fill) leaves a reachable hole beneath itself."""
    from repro.core.config import FloorplanConfig
    from repro.core.formulation import SubproblemBuilder
    from repro.geometry.rect import Rect
    from repro.netlist.module import Module

    n_window = rng.randint(1, 2)
    window = []
    for k in range(n_window):
        if rng.random() < 0.3:
            window.append(Module.flexible_area(
                f"f{k}", area=float(rng.randint(2, 8)),
                aspect_low=0.5, aspect_high=2.0))
        else:
            window.append(Module.rigid(
                f"m{k}", float(rng.randint(1, 4)), float(rng.randint(1, 4)),
                rotatable=True))

    chip_width = 10.0
    obstacles = []
    x = 0.0
    for _ in range(rng.randint(0, 2)):
        w = float(rng.randint(1, 3))
        h = float(rng.randint(1, 3))
        if x + w > chip_width:
            break
        y = float(rng.randint(1, 3)) if eco else 0.0
        obstacles.append(Rect(x, y, w, h))
        x += w + 1.0

    config = FloorplanConfig(
        chip_width=chip_width,
        allow_rotation=rng.random() < 0.5,
        use_envelopes=False,
        record_snapshots=False,
        formulation=formulation,
    )
    outline_height = float(rng.randint(2, 7)) if outline else None
    builder = SubproblemBuilder(window, obstacles, chip_width, config,
                                outline_height=outline_height)
    return builder.model


# ---------------------------------------------------------------------------
# differential comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disagreement:
    """One cross-backend inconsistency on a single model.

    Attributes:
        kind: ``"crash"``, ``"bad-certificate"``, ``"status"``,
            ``"objective"``, or ``"beats-proven-optimum"``.
        detail: human-readable description.
        backends: the backends implicated.
    """

    kind: str
    detail: str
    backends: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation."""
        return {"kind": self.kind, "detail": self.detail,
                "backends": list(self.backends)}


def backends_for(model: Model,
                 backends: Sequence[str] | None = None) -> tuple[str, ...]:
    """The registered backends applicable to ``model`` (the pure-LP-only
    simplex is excluded for integer models; the difference-logic ``smt``
    search is excluded for models outside its fragment)."""
    names = tuple(backends) if backends else available_backends()
    out = []
    for name in names:
        if name == "simplex" and not model.is_pure_lp():
            continue
        if name == "smt" and not _smt_supports(model):
            continue
        out.append(name)
    return tuple(out)


def _solvers(backends: Sequence[str]) -> list[tuple[str, str, str | None]]:
    """``(label, backend, lp_engine)`` of each solver run on ``backends``:
    every backend under its own name, and bnb once more over the NumPy
    simplex as ``"bnb[simplex]"`` (its default LP engine is HiGHS's)."""
    out: list[tuple[str, str, str | None]] = []
    for name in backends:
        out.append((name, name, None))
        if name == "bnb":
            out.append(("bnb[simplex]", name, "simplex"))
    return out


def _variant_plan(model: Model, backends: Sequence[str] | None,
                  presolve_axis: bool
                  ) -> list[tuple[str, str, bool, str | None]]:
    """The (label, backend, presolve, lp_engine) variants for ``model``: a
    presolved variant only for backends the registry presolves for."""
    plan: list[tuple[str, str, bool, str | None]] = []
    for label, name, lp_engine in _solvers(backends_for(model, backends)):
        plan.append((label, name, False, lp_engine))
        if presolve_axis and solve_inputs(name, True)[0]:
            plan.append((f"{label}+presolve", name, True, lp_engine))
    return plan


def run_differential_batch(models: Sequence[Model], *,
                           backends: Sequence[str] | None = None,
                           time_limit: float = 10.0,
                           obj_tol: float = CROSS_OBJ_TOL,
                           presolve_axis: bool = True,
                           workers: int | None = 1
                           ) -> list[tuple[dict[str, Solution],
                                           list[Disagreement]]]:
    """Differentially test a vector of models through batched solving.

    Each model runs the same variant matrix as :func:`run_differential`,
    but instances sharing a variant are solved through one
    :func:`repro.milp.solvers.registry.solve_many` call — standard forms
    canonicalize once per instance instead of once per variant, and the
    batch can fan out over processes with ``workers``.  Per-model results
    are identical to looping :func:`run_differential` (solves are
    independent; ``on_error="capture"`` keeps a crashing variant from
    aborting the batch — a crash is a finding).

    Returns one ``(results, disagreements)`` pair per model, in order.
    """
    model_list = list(models)
    plans = [_variant_plan(m, backends, presolve_axis) for m in model_list]
    groups: dict[tuple[str, str, bool, str | None], list[int]] = {}
    for i, plan in enumerate(plans):
        for spec in plan:
            groups.setdefault(spec, []).append(i)
    solved: dict[tuple[int, str], Solution] = {}
    for (label, name, use_presolve, lp_engine), idxs in groups.items():
        options = {} if lp_engine is None else {"lp_engine": lp_engine}
        batch = solve_many([model_list[i] for i in idxs], backend=name,
                           presolve=use_presolve, time_limit=time_limit,
                           mip_rel_gap=FUZZ_GAP, workers=workers,
                           on_error="capture", **options)
        for i, sol in zip(idxs, batch):
            solved[(i, label)] = sol
    out: list[tuple[dict[str, Solution], list[Disagreement]]] = []
    for i, (model, plan) in enumerate(zip(model_list, plans)):
        results: dict[str, Solution] = {}
        disagreements: list[Disagreement] = []
        for label, *_ in plan:
            sol = solved[(i, label)]
            results[label] = sol
            if sol.status is SolveStatus.ERROR \
                    and sol.message.startswith("raised "):
                disagreements.append(Disagreement(
                    "crash", f"{label} {sol.message}", (label,)))
        disagreements.extend(compare_results(model, results, obj_tol=obj_tol))
        out.append((results, disagreements))
    return out


def run_differential(model: Model, *, backends: Sequence[str] | None = None,
                     time_limit: float = 10.0,
                     obj_tol: float = CROSS_OBJ_TOL,
                     presolve_axis: bool = True
                     ) -> tuple[dict[str, Solution], list[Disagreement]]:
    """Run every applicable backend on ``model`` and cross-check the claims.

    bnb runs once per LP engine (``"bnb"``, ``"bnb[simplex]"``).  With
    ``presolve_axis`` (the default) every variant of a backend the registry
    presolves for is run twice — raw and through the
    :mod:`repro.milp.presolve` layer (reported under the
    ``"<variant>+presolve"`` key) — so presolve bugs that cut the optimum or
    corrupt the postsolve mapping surface as cross-variant disagreements on
    the identical model.

    Returns the per-variant solutions (crashes become synthetic ERROR
    solutions) and the list of disagreements (empty = all consistent).
    """
    [(results, disagreements)] = run_differential_batch(
        [model], backends=backends, time_limit=time_limit, obj_tol=obj_tol,
        presolve_axis=presolve_axis)
    return results, disagreements


def compare_results(model: Model, results: dict[str, Solution], *,
                    obj_tol: float = CROSS_OBJ_TOL) -> list[Disagreement]:
    """Cross-check backend claims on the same model (see module docstring
    for the semantics)."""
    form = model.to_standard_form()
    disagreements: list[Disagreement] = []

    certified: dict[str, float] = {}  # backend -> recomputed objective
    optimal: dict[str, float] = {}
    infeasible: list[str] = []
    unbounded: list[str] = []
    for name, sol in results.items():
        if sol.status.has_solution:
            report = check_certificate(model, sol, form=form,
                                       mip_rel_gap=FUZZ_GAP * 10)
            if not report.ok:
                worst = report.violations[0]
                disagreements.append(Disagreement(
                    "bad-certificate",
                    f"{name} returned a {sol.status.value} solution that "
                    f"fails certification: {worst.detail} "
                    f"(+{len(report.violations) - 1} more)"
                    if len(report.violations) > 1 else
                    f"{name} returned a {sol.status.value} solution that "
                    f"fails certification: {worst.detail}", (name,)))
                continue
            certified[name] = report.recomputed_objective
            if sol.status is SolveStatus.OPTIMAL:
                optimal[name] = report.recomputed_objective
        elif sol.status is SolveStatus.INFEASIBLE:
            infeasible.append(name)
        elif sol.status is SolveStatus.UNBOUNDED:
            unbounded.append(name)
        # LIMIT / ERROR: inconclusive, nothing to compare.

    if infeasible and certified:
        feasible_names = sorted(certified)
        disagreements.append(Disagreement(
            "status",
            f"{', '.join(infeasible)} claim INFEASIBLE but "
            f"{', '.join(feasible_names)} produced certified feasible "
            f"solutions", tuple(infeasible) + tuple(feasible_names)))
    if unbounded and (certified or infeasible):
        others = sorted(set(results) - set(unbounded))
        disagreements.append(Disagreement(
            "status",
            f"{', '.join(unbounded)} claim UNBOUNDED on a finite-box model "
            f"contradicted by {', '.join(others)}",
            tuple(unbounded) + tuple(others)))

    if len(optimal) >= 2:
        names = sorted(optimal)
        lo_name = min(names, key=lambda n: optimal[n])
        hi_name = max(names, key=lambda n: optimal[n])
        spread = optimal[hi_name] - optimal[lo_name]
        scale = max(1.0, abs(optimal[lo_name]), abs(optimal[hi_name]))
        if spread > obj_tol * scale:
            disagreements.append(Disagreement(
                "objective",
                f"OPTIMAL objectives disagree: {lo_name} = "
                f"{optimal[lo_name]:.9g} vs {hi_name} = "
                f"{optimal[hi_name]:.9g}", (lo_name, hi_name)))

    if optimal:
        maximize = model.objective_sense is ObjectiveSense.MAX
        best_proven = max(optimal.values()) if maximize else min(optimal.values())
        for name, value in certified.items():
            if name in optimal:
                continue
            margin = (value - best_proven) if maximize \
                else (best_proven - value)
            if margin > obj_tol * max(1.0, abs(best_proven)):
                disagreements.append(Disagreement(
                    "beats-proven-optimum",
                    f"{name}'s certified feasible objective {value:.9g} "
                    f"beats the proven optimum {best_proven:.9g}",
                    (name,) + tuple(sorted(optimal))))
    return disagreements


def compare_encodings(results_by_encoding: dict[str, dict[str, Solution]], *,
                      obj_tol: float = CROSS_OBJ_TOL) -> list[Disagreement]:
    """Cross-check claims across alternative encodings of one instance.

    The encodings model the identical placement instance, so their optimal
    objective values must coincide even though their variable spaces do
    not: any two OPTIMAL claims must agree within tolerance, and an
    INFEASIBLE claim under one encoding contradicts an OPTIMAL claim under
    another.  Per-encoding certificate and consistency checks are
    :func:`compare_results`'s job — this only compares *across*.
    """
    optimal: dict[str, float] = {}
    optimal_encoding: dict[str, str] = {}
    infeasible: list[tuple[str, str]] = []
    for encoding, results in results_by_encoding.items():
        for label, sol in results.items():
            key = f"{encoding}:{label}"
            if sol.status is SolveStatus.OPTIMAL:
                optimal[key] = sol.objective
                optimal_encoding[key] = encoding
            elif sol.status is SolveStatus.INFEASIBLE:
                infeasible.append((encoding, key))

    disagreements: list[Disagreement] = []
    cross_infeasible = [key for encoding, key in infeasible
                        if any(enc != encoding
                               for enc in optimal_encoding.values())]
    if cross_infeasible and optimal:
        names = sorted(optimal)
        disagreements.append(Disagreement(
            "encoding-status",
            f"{', '.join(sorted(cross_infeasible))} claim INFEASIBLE but "
            f"another encoding proved OPTIMAL ({', '.join(names)})",
            tuple(sorted(cross_infeasible)) + tuple(names)))
    if len(set(optimal_encoding.values())) >= 2:
        names = sorted(optimal)
        lo_name = min(names, key=lambda k: optimal[k])
        hi_name = max(names, key=lambda k: optimal[k])
        spread = optimal[hi_name] - optimal[lo_name]
        scale = max(1.0, abs(optimal[lo_name]), abs(optimal[hi_name]))
        if spread > obj_tol * scale:
            disagreements.append(Disagreement(
                "encoding-objective",
                f"OPTIMAL objectives disagree across encodings: {lo_name} = "
                f"{optimal[lo_name]:.9g} vs {hi_name} = "
                f"{optimal[hi_name]:.9g}", (lo_name, hi_name)))
    return disagreements


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def shrink_model(data: dict[str, Any],
                 still_fails: Callable[[dict[str, Any]], bool], *,
                 max_evals: int = 200) -> tuple[dict[str, Any], int]:
    """Greedily minimize a serialized model while the failure reproduces.

    Tries, to a fixpoint: dropping each constraint, relaxing each integer
    variable to continuous, and collapsing each variable's box to its lower
    bound.  Each candidate is accepted only when ``still_fails`` holds, so
    the result still exhibits the original disagreement.

    Returns the minimized model dict and the number of evaluations used.
    """
    evals = 0

    def candidates(current: dict[str, Any]):
        for i in range(len(current["constraints"])):
            trimmed = dict(current)
            trimmed["constraints"] = (current["constraints"][:i]
                                      + current["constraints"][i + 1:])
            yield trimmed
        for j, var in enumerate(current["variables"]):
            if var["kind"] != VarKind.CONTINUOUS.value:
                relaxed = json.loads(json.dumps(current))
                relaxed["variables"][j]["kind"] = VarKind.CONTINUOUS.value
                yield relaxed
        for j, var in enumerate(current["variables"]):
            if var["lb"] is not None and var["ub"] != var["lb"]:
                fixed = json.loads(json.dumps(current))
                fixed["variables"][j]["ub"] = var["lb"]
                yield fixed

    current = data
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in candidates(current):
            if evals >= max_evals:
                break
            evals += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
    return current, evals


# ---------------------------------------------------------------------------
# the fuzzing driver
# ---------------------------------------------------------------------------

@dataclass
class FuzzCase:
    """One disagreeing instance, with its minimized reproducer."""

    index: int
    case_seed: int
    disagreements: list[Disagreement]
    results: dict[str, dict[str, Any]]
    model: dict[str, Any]
    minimized: dict[str, Any]
    shrink_evals: int = 0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation — this is the reproducer artifact."""
        return {
            "index": self.index,
            "case_seed": self.case_seed,
            "disagreements": [d.to_dict() for d in self.disagreements],
            "results": self.results,
            "model": self.model,
            "minimized": self.minimized,
            "shrink_evals": self.shrink_evals,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    seed: int
    n_cases: int
    backends: tuple[str, ...]
    n_inconclusive: int = 0
    failures: list[FuzzCase] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case ran all backends to agreement."""
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe summary (failures embed their reproducers)."""
        return {
            "seed": self.seed,
            "n_cases": self.n_cases,
            "backends": list(self.backends),
            "n_inconclusive": self.n_inconclusive,
            "n_failures": len(self.failures),
            "ok": self.ok,
            "artifacts": list(self.artifacts),
            "failures": [f.to_dict() for f in self.failures],
        }


def _solution_summary(sol: Solution) -> dict[str, Any]:
    def safe(value: float) -> float | None:
        return None if not math.isfinite(value) else value

    return {"status": sol.status.value, "objective": safe(sol.objective),
            "bound": safe(sol.bound), "backend": sol.backend,
            "message": sol.message}


def fuzz(n: int = 25, seed: int = 0, *,
         backends: Sequence[str] | None = None, time_limit: float = 10.0,
         obj_tol: float = CROSS_OBJ_TOL, shrink_budget: int = 200,
         artifact_dir: str | Path | None = None,
         presolve_axis: bool = True,
         formulation_axis: bool = True,
         outline_axis: bool = True,
         eco_axis: bool = True,
         workers: int | None = 1) -> FuzzReport:
    """Run a differential-fuzzing campaign of ``n`` seeded cases.

    All ``n`` cases are generated up front and pushed through one
    :func:`run_differential_batch` call, so canonicalization is amortized
    per instance and ``workers`` can spread the solves over processes.
    Every disagreement is shrunk to a minimal reproducer; with
    ``artifact_dir`` set, each reproducer is also written to
    ``fuzz_repro_seed<seed>_case<i>.json`` there.  ``presolve_axis``
    doubles every presolving backend into raw / ``+presolve`` variants (see
    :func:`run_differential`); ``formulation_axis`` builds every
    floorplan-shaped case once per non-overlap encoding from the same
    random state and cross-checks the encodings' claims
    (:func:`compare_encodings`).  Multi-encoding failures embed all
    encodings in the reproducer and skip shrinking — shrinking one
    encoding in isolation would break the shared-instance invariant the
    cross-check relies on.  ``outline_axis`` gives half the
    floorplan-shaped cases a fixed-outline height cap (shared across
    encodings), exercising the INFEASIBLE paths of every backend.
    ``eco_axis`` lifts half of them into ECO-window shape — obstacles
    floating above the floor (see :func:`generate_case`) — so the solvers
    are also cross-checked on the subforms incremental re-floorplanning
    produces.
    """
    report = FuzzReport(seed=seed, n_cases=n, backends=tuple(
        label for label, _, _ in _solvers(backends or available_backends())))
    inconclusive = {SolveStatus.LIMIT, SolveStatus.TIMEOUT, SolveStatus.ERROR}
    case_seeds = [seed * 1_000_003 + i for i in range(n)]
    cases = [generate_case(random.Random(s),
                           formulation_axis=formulation_axis,
                           outline_axis=outline_axis,
                           eco_axis=eco_axis)
             for s in case_seeds]
    flat_models: list[Model] = []
    layouts: list[dict[str, int]] = []
    for case in cases:
        layout = {}
        for label, model in case.items():
            layout[label] = len(flat_models)
            flat_models.append(model)
        layouts.append(layout)
    outcomes = run_differential_batch(
        flat_models, backends=backends, time_limit=time_limit,
        obj_tol=obj_tol, presolve_axis=presolve_axis, workers=workers)
    for i, (case, case_seed, layout) in enumerate(
            zip(cases, case_seeds, layouts)):
        results: dict[str, Solution] = {}
        disagreements: list[Disagreement] = []
        for label, flat_idx in layout.items():
            enc_results, enc_disagreements = outcomes[flat_idx]
            prefix = f"{label}:" if label else ""
            results.update({prefix + k: v for k, v in enc_results.items()})
            disagreements.extend(
                Disagreement(d.kind, f"[{label}] {d.detail}" if label
                             else d.detail,
                             tuple(prefix + b for b in d.backends))
                for d in enc_disagreements)
        if len(layout) > 1:
            disagreements.extend(compare_encodings(
                {label: outcomes[flat_idx][0]
                 for label, flat_idx in layout.items()}, obj_tol=obj_tol))
        report.n_inconclusive += sum(
            1 for s in results.values() if s.status in inconclusive)
        if not disagreements:
            continue

        if len(layout) > 1:
            data: dict[str, Any] = {"encodings": {
                label: model_to_dict(model) for label, model in case.items()}}
            minimized, evals = data, 0
        else:
            data = model_to_dict(case[""])

            def still_fails(candidate: dict[str, Any]) -> bool:
                try:
                    rebuilt = model_from_dict(candidate)
                    _, found = run_differential(rebuilt, backends=backends,
                                                time_limit=time_limit,
                                                obj_tol=obj_tol,
                                                presolve_axis=presolve_axis)
                except Exception:  # noqa: BLE001 — malformed shrink candidate
                    return False
                return bool(found)

            minimized, evals = shrink_model(data, still_fails,
                                            max_evals=shrink_budget)
        case_record = FuzzCase(
            index=i, case_seed=case_seed, disagreements=disagreements,
            results={b: _solution_summary(s) for b, s in results.items()},
            model=data, minimized=minimized, shrink_evals=evals)
        report.failures.append(case_record)
        if artifact_dir is not None:
            path = Path(artifact_dir)
            path.mkdir(parents=True, exist_ok=True)
            out = path / f"fuzz_repro_seed{seed}_case{i}.json"
            with open(out, "w") as f:
                json.dump(case_record.to_dict(), f, indent=1)
            report.artifacts.append(str(out))
    return report


def replay_reproducer(data: dict[str, Any], *, minimized: bool = True,
                      time_limit: float = 10.0
                      ) -> tuple[dict[str, Solution], list[Disagreement]]:
    """Re-run the backends on a saved reproducer artifact.

    Multi-encoding reproducers (``{"encodings": {label: model}}`` documents
    from formulation-axis cases) replay every encoding and append the
    cross-encoding findings; result keys come back ``"<label>:<variant>"``.

    Args:
        data: a loaded :meth:`FuzzCase.to_dict` document (or a bare
            :func:`~repro.serialize.model_to_dict` document).
        minimized: replay the minimized model rather than the original.
        time_limit: per-backend time limit.
    """
    if "variables" in data or "encodings" in data:  # bare (multi-)model doc
        model_data = data
    else:
        model_data = data["minimized"] if minimized else data["model"]
    if "encodings" in model_data:
        results: dict[str, Solution] = {}
        disagreements: list[Disagreement] = []
        per_encoding: dict[str, dict[str, Solution]] = {}
        for label, doc in model_data["encodings"].items():
            enc_results, enc_disagreements = run_differential(
                model_from_dict(doc), time_limit=time_limit)
            per_encoding[label] = enc_results
            results.update(
                {f"{label}:{k}": v for k, v in enc_results.items()})
            disagreements.extend(
                Disagreement(d.kind, f"[{label}] {d.detail}",
                             tuple(f"{label}:{b}" for b in d.backends))
                for d in enc_disagreements)
        disagreements.extend(compare_encodings(per_encoding))
        return results, disagreements
    model = model_from_dict(model_data)
    return run_differential(model, time_limit=time_limit)
