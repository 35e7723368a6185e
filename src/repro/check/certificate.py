"""Independent MILP certificate checking.

A solver's claim is only as trustworthy as its arithmetic: a silent big-M
bug, a mis-signed bound, or a loose integrality tolerance corrupts every
downstream floorplan number without any visible failure.  Following the
certificate-checking discipline of SMT-based floorplanning work, this module
re-evaluates a :class:`~repro.milp.solution.Solution` against the *raw
standard form* of its model — plain NumPy arithmetic with no shared code
path through the solver backends — and reports every discrepancy:

* constraint residuals (``row_lb <= A x <= row_ub``) beyond a row-scaled
  feasibility tolerance;
* variable bound violations;
* integrality of binary/integer columns within ``int_tol``;
* the claimed objective versus the recomputed ``c @ x + c0``;
* dual-bound consistency — the bound may never cut off the incumbent, and
  an ``OPTIMAL`` claim must carry a bound that verifies the gap.

The checker never raises on a bad solution; it returns a
:class:`CertificateReport` whose :attr:`~CertificateReport.violations` list
is empty exactly when the claim is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.milp.model import Model, StandardForm
from repro.milp.solution import Solution, SolveStatus

#: Default absolute feasibility tolerance, scaled per row by the activity
#: magnitude (LP solutions carry ~1e-9 noise; big-M rows amplify it).
FEAS_TOL = 1e-6
#: Default relative tolerance for objective and bound comparisons.
OBJ_TOL = 1e-6


@dataclass(frozen=True)
class Violation:
    """One certified discrepancy between a solution and its model.

    Attributes:
        kind: violation class — ``"constraint"``, ``"variable-bound"``,
            ``"integrality"``, ``"objective"``, ``"bound"``,
            ``"missing-value"``, or ``"geometry"`` (geometry checks reuse
            this record type).
        name: the constraint/variable (or geometric entity) concerned.
        magnitude: how large the discrepancy is, in the check's own units.
        detail: human-readable description.
    """

    kind: str
    name: str
    magnitude: float
    detail: str

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation."""
        return {"kind": self.kind, "name": self.name,
                "magnitude": self.magnitude, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Violation":
        """Rebuild from :meth:`to_dict` output."""
        return cls(kind=data["kind"], name=data["name"],
                   magnitude=float(data["magnitude"]), detail=data["detail"])


@dataclass
class CertificateReport:
    """Outcome of independently re-checking one solve.

    Attributes:
        backend: backend that produced the checked solution.
        status: the solution's claimed :class:`SolveStatus` value.
        n_constraints: constraint rows re-evaluated.
        n_variables: variable columns re-evaluated.
        claimed_objective: the solution's reported objective.
        recomputed_objective: ``c @ x + c0`` evaluated by the checker
            (NaN when the status carries no values).
        claimed_bound: the solution's reported dual bound.
        verified_gap: relative gap recomputed from the claimed bound and
            the *recomputed* objective (NaN when either is unavailable).
        violations: every certified discrepancy (empty = certified).
    """

    backend: str = ""
    status: str = ""
    n_constraints: int = 0
    n_variables: int = 0
    claimed_objective: float = math.nan
    recomputed_objective: float = math.nan
    claimed_bound: float = math.nan
    verified_gap: float = math.nan
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation (NaN floats become None)."""

        def safe(value: float) -> float | None:
            return None if not math.isfinite(value) else value

        return {
            "backend": self.backend,
            "status": self.status,
            "n_constraints": self.n_constraints,
            "n_variables": self.n_variables,
            "claimed_objective": safe(self.claimed_objective),
            "recomputed_objective": safe(self.recomputed_objective),
            "claimed_bound": safe(self.claimed_bound),
            "verified_gap": safe(self.verified_gap),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CertificateReport":
        """Rebuild a report from :meth:`to_dict` output."""

        def num(value: Any) -> float:
            return math.nan if value is None else float(value)

        return cls(
            backend=data.get("backend", ""),
            status=data.get("status", ""),
            n_constraints=data.get("n_constraints", 0),
            n_variables=data.get("n_variables", 0),
            claimed_objective=num(data.get("claimed_objective")),
            recomputed_objective=num(data.get("recomputed_objective")),
            claimed_bound=num(data.get("claimed_bound")),
            verified_gap=num(data.get("verified_gap")),
            violations=[Violation.from_dict(v)
                        for v in data.get("violations", [])],
        )


def check_certificate(model: Model, solution: Solution, *,
                      feas_tol: float = FEAS_TOL, int_tol: float = 1e-6,
                      obj_tol: float = OBJ_TOL,
                      mip_rel_gap: float = 1e-4,
                      form: StandardForm | None = None) -> CertificateReport:
    """Independently certify ``solution`` against ``model``'s standard form.

    Args:
        model: the model the solution claims to solve.
        solution: the backend's result.
        feas_tol: feasibility tolerance, scaled per row by
            ``1 + sum |a_ij x_j|`` so big-M rows are judged fairly.
        int_tol: integrality tolerance for binary/integer columns.
        obj_tol: relative tolerance for objective/bound comparisons.
        mip_rel_gap: the gap at which an ``OPTIMAL`` claim is accepted
            (matches the solver's own stopping tolerance).
        form: a precomputed standard form of ``model`` (avoids re-export).

    Returns:
        A :class:`CertificateReport`; statuses without solution values
        (INFEASIBLE, UNBOUNDED, LIMIT, ERROR) are vacuously certified —
        refuting those claims would need dual certificates the backends do
        not emit.
    """
    form = form if form is not None else model.to_standard_form()
    report = CertificateReport(
        backend=solution.backend,
        status=solution.status.value,
        claimed_objective=solution.objective,
        claimed_bound=solution.bound,
    )
    if not solution.status.has_solution:
        return report

    n = len(form.variables)
    x = np.full(n, math.nan)
    for j, var in enumerate(form.variables):
        value = solution.values.get(var)
        if value is None:
            report.violations.append(Violation(
                "missing-value", var.name, math.inf,
                f"status {solution.status.value} claims a solution but "
                f"variable {var.name!r} has no value"))
        else:
            x[j] = float(value)
    if np.isnan(x).any():
        return report
    report.n_variables = n
    report.n_constraints = form.a_matrix.shape[0]

    _check_variable_bounds(form, x, feas_tol, report)
    _check_integrality(form, x, int_tol, report)
    _check_rows(form, x, model, feas_tol, report)
    _check_objective(form, solution, x, obj_tol, report)
    _check_bound(solution, form.maximize, mip_rel_gap, obj_tol, report)
    return report


def _check_variable_bounds(form: StandardForm, x: np.ndarray,
                           feas_tol: float, report: CertificateReport) -> None:
    for j, var in enumerate(form.variables):
        scale = 1.0 + abs(x[j])
        below = form.lb[j] - x[j]
        above = x[j] - form.ub[j]
        worst = max(below, above)
        if worst > feas_tol * scale:
            report.violations.append(Violation(
                "variable-bound", var.name, worst,
                f"{var.name} = {x[j]:.9g} outside "
                f"[{form.lb[j]:.9g}, {form.ub[j]:.9g}]"))


def _check_integrality(form: StandardForm, x: np.ndarray, int_tol: float,
                       report: CertificateReport) -> None:
    int_cols = np.flatnonzero(form.integrality == 1)
    for j in int_cols:
        drift = abs(x[j] - round(x[j]))
        if drift > int_tol:
            report.violations.append(Violation(
                "integrality", form.variables[j].name, drift,
                f"{form.variables[j].name} = {x[j]:.9g} is {drift:.3g} "
                f"from the nearest integer (int_tol {int_tol:g})"))


def _check_rows(form: StandardForm, x: np.ndarray, model: Model,
                feas_tol: float, report: CertificateReport) -> None:
    activity = form.a_matrix @ x
    abs_matrix = form.a_matrix.copy()
    abs_matrix.data = np.abs(abs_matrix.data)
    scale = 1.0 + abs_matrix @ np.abs(x)
    below = form.row_lb - activity
    above = activity - form.row_ub
    residual = np.maximum(below, above)
    failed = np.flatnonzero(residual > feas_tol * scale)
    if failed.size == 0:
        return
    # Naming a row materializes every row-block row as a Constraint, so a
    # clean certificate (every cache hit's re-check) skips it.
    row_names = [c.name for c in model.constraints]
    for i in failed:
        name = row_names[i] if i < len(row_names) else f"row{i}"
        report.violations.append(Violation(
            "constraint", name, float(residual[i]),
            f"row {i}: activity {activity[i]:.9g} outside "
            f"[{form.row_lb[i]:.9g}, {form.row_ub[i]:.9g}] "
            f"(residual {residual[i]:.3g}, scaled tol "
            f"{feas_tol * scale[i]:.3g})"))


def _check_objective(form: StandardForm, solution: Solution, x: np.ndarray,
                     obj_tol: float, report: CertificateReport) -> None:
    recomputed = float(form.c @ x) + form.c0
    if form.maximize:
        recomputed = -recomputed
    report.recomputed_objective = recomputed
    claimed = solution.objective
    if math.isnan(claimed):
        report.violations.append(Violation(
            "objective", "objective", math.inf,
            f"status {solution.status.value} carries values but no "
            f"objective"))
        return
    drift = abs(claimed - recomputed)
    if drift > obj_tol * max(1.0, abs(recomputed)):
        report.violations.append(Violation(
            "objective", "objective", drift,
            f"claimed objective {claimed:.9g} but c @ x + c0 = "
            f"{recomputed:.9g}"))


def _check_bound(solution: Solution, maximize: bool, mip_rel_gap: float,
                 obj_tol: float, report: CertificateReport) -> None:
    """Bound sanity in the model's own sense: the dual bound may never be
    on the wrong side of the recomputed objective, and an OPTIMAL claim
    must carry a bound that closes the gap."""
    bound = solution.bound
    objective = report.recomputed_objective
    if math.isnan(objective):
        return
    if math.isnan(bound):
        if solution.status is SolveStatus.OPTIMAL:
            report.violations.append(Violation(
                "bound", "bound", math.inf,
                "OPTIMAL claim carries no dual bound, so the zero gap "
                "cannot be verified"))
        return
    tol = obj_tol * max(1.0, abs(objective))
    overshoot = (bound - objective) if not maximize else (objective - bound)
    if overshoot > tol:
        side = "above" if not maximize else "below"
        report.violations.append(Violation(
            "bound", "bound", overshoot,
            f"dual bound {bound:.9g} lies {side} the feasible objective "
            f"{objective:.9g} — the bound cuts off the incumbent"))
    gap = abs(objective - bound) / max(1.0, abs(objective))
    report.verified_gap = gap
    if solution.status is SolveStatus.OPTIMAL and \
            gap > max(mip_rel_gap, obj_tol) * (1.0 + obj_tol):
        report.violations.append(Violation(
            "bound", "gap", gap,
            f"OPTIMAL claim but the verified gap is {gap:.3g} "
            f"(allowed {max(mip_rel_gap, obj_tol):.3g})"))
