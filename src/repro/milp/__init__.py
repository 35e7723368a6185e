"""Mathematical-programming substrate (the paper's LINDO replacement).

The paper solves each floorplanning subproblem with the LINDO mixed-integer
linear programming package.  This subpackage provides the equivalent: an
algebraic modeling layer (:class:`~repro.milp.model.Model`,
:class:`~repro.milp.expr.LinExpr`) plus interchangeable solver backends:

* ``"highs"`` — HiGHS through SciPy's vendored bindings, one directly
  configured instance per MIP (fast default; :func:`scipy.optimize.milp`
  where those bindings are missing),
* ``"bnb"``   — a from-scratch branch-and-bound over LP relaxations,
* ``"simplex"`` — a pure-NumPy two-phase simplex (LP problems only; also the
  optional relaxation engine inside ``"bnb"``).
"""

from repro.milp.expr import LinExpr, Variable, VarKind
from repro.milp.lpformat import read_lp, write_lp
from repro.milp.model import Constraint, Model, Sense
from repro.milp.presolve import PresolveReport, PresolveResult, presolve_form
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.registry import available_backends, solve, solve_many

__all__ = [
    "LinExpr",
    "Variable",
    "VarKind",
    "Constraint",
    "Model",
    "Sense",
    "Solution",
    "SolveStatus",
    "PresolveReport",
    "PresolveResult",
    "presolve_form",
    "solve",
    "solve_many",
    "available_backends",
    "read_lp",
    "write_lp",
]
