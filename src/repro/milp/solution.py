"""Solver results."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.milp.expr import LinExpr, Variable
from repro.milp.telemetry import SolveTelemetry

#: The relative MIP gap a backend solves at when the caller names none.
#: The solve cache keys and re-certifies such a solve at this gap too.
DEFAULT_MIP_REL_GAP = 1e-6


class SolveStatus(str, Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # stopped at a limit with an incumbent
    TIMEOUT = "timeout"            # wall-clock limit hit, incumbent available
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"                # stopped at a limit with no incumbent
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """True when variable values are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE,
                        SolveStatus.TIMEOUT)


@dataclass
class Solution:
    """The result of solving a :class:`~repro.milp.model.Model`.

    Attributes:
        status: solve outcome.
        objective: objective value in the model's own sense (meaningful only
            when ``status.has_solution``).
        values: assignment for every model variable.  When the solve ran
            through presolve, these are *postsolved*: the backend's
            reduced-space values completed with every presolve-fixed column
            (see :meth:`repro.milp.presolve.PresolveResult.postsolve_solution`),
            so the assignment always covers the original model and is what
            the independent certifier verifies against the raw standard
            form.
        bound: best dual bound proven (same sense as ``objective``).
        n_nodes: branch-and-bound nodes explored (0 for pure LPs / HiGHS
            when not reported).
        solve_seconds: wall-clock time in the backend.
        backend: name of the backend that produced this solution.
        message: backend diagnostic text.
        telemetry: structured per-solve statistics (None when the backend
            does not record them).
    """

    status: SolveStatus
    objective: float = float("nan")
    values: dict[Variable, float] = field(default_factory=dict)
    bound: float = float("nan")
    n_nodes: int = 0
    solve_seconds: float = 0.0
    backend: str = ""
    message: str = ""
    telemetry: SolveTelemetry | None = None

    def __getitem__(self, var: Variable) -> float:
        """Value of ``var`` in this solution."""
        return self.values[var]

    def value(self, expr: "LinExpr | Variable") -> float:
        """Evaluate an expression or variable under this solution."""
        if isinstance(expr, Variable):
            return self.values[expr]
        return expr.value(self.values)

    def rounded(self, var: Variable) -> int:
        """Integer value of an integral variable (rounds solver noise)."""
        return round(self.values[var])

    def presolve_report(self):
        """The :class:`~repro.milp.presolve.PresolveReport` of the presolve
        pass behind this solution, or None when presolve did not run."""
        if self.telemetry is None or self.telemetry.presolve is None:
            return None
        from repro.milp.presolve import PresolveReport

        return PresolveReport.from_dict(self.telemetry.presolve)

    def gap(self) -> float:
        """Relative optimality gap ``|objective - bound| / max(1, |objective|)``
        (0.0 when the bound is unavailable)."""
        import math

        if math.isnan(self.bound) or math.isnan(self.objective):
            return 0.0
        return abs(self.objective - self.bound) / max(1.0, abs(self.objective))
