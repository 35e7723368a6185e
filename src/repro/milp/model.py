"""The optimization model: variables, constraints, objective, export.

A :class:`Model` collects variables and constraints built with the algebra of
:mod:`repro.milp.expr` and exports them to the standard-form arrays the
backends consume (objective vector, sparse constraint matrix with row bounds,
variable bounds, integrality markers).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.milp.expr import ExprLike, LinExpr, Variable, VarKind, _as_expr


class Sense(str, Enum):
    """Constraint sense; constraints are stored as ``expr SENSE 0``."""

    LE = "<="
    GE = ">="
    EQ = "=="


class ObjectiveSense(str, Enum):
    """Optimization direction."""

    MIN = "min"
    MAX = "max"


@dataclass
class Constraint:
    """A linear constraint ``expr <= 0``, ``expr >= 0``, or ``expr == 0``.

    Built by comparing expressions (``lhs <= rhs`` stores ``lhs - rhs`` with
    sense LE).  The name is attached when added to a model.
    """

    expr: LinExpr
    sense: Sense
    name: str = ""

    def violation(self, assignment: Mapping[Variable, float]) -> float:
        """How much the constraint is violated under ``assignment``
        (0.0 when satisfied)."""
        value = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value)
        if self.sense is Sense.GE:
            return max(0.0, -value)
        return abs(value)

    def __repr__(self) -> str:
        return f"Constraint({self.name or '?'}: {self.expr!r} {self.sense.value} 0)"


@dataclass(frozen=True)
class StandardForm:
    """Arrays for the backends.

    minimize ``c @ x + c0`` subject to ``row_lb <= A @ x <= row_ub`` and
    ``lb <= x <= ub``; ``integrality[j]`` is 1 for integral columns else 0.
    """

    c: np.ndarray
    c0: float
    a_matrix: sparse.csr_matrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    variables: tuple[Variable, ...]
    maximize: bool


class Model:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        # One flat row store in insertion order: a (row, column, value)
        # triplet per term, the row bounds, and per row either the
        # Constraint that was added or the (name, sense) of an add_rows
        # row.  The Constraint view and the assembled row arrays are
        # cached and invalidated by any structural change.
        self._term_rows: list[int] = []
        self._term_cols: list[int] = []
        self._term_vals: list[float] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._row_meta: list[Constraint | tuple[str, Sense]] = []
        self._constraints_cache: tuple[Constraint, ...] | None = None
        self._rows_cache: tuple[sparse.csr_matrix, np.ndarray, np.ndarray] | None = None
        self._objective: LinExpr = LinExpr()
        self._objective_sense = ObjectiveSense.MIN

    def _invalidate(self) -> None:
        self._constraints_cache = None
        self._rows_cache = None

    def _foreign(self, used: Iterable[Variable]) -> Variable | None:
        """The first variable of ``used`` this model does not own, if any."""
        own = self._variables
        for var in used:
            if var.index >= len(own) or own[var.index] is not var:
                return var
        return None

    def _store(self, rows: Sequence[Mapping[Variable, float]],
               senses: Sequence[Sense], rhs: Iterable[float],
               metas: Iterable[Constraint | tuple[str, Sense]]) -> None:
        """Append rows to the row store: their terms, bounds and meta.
        Zero coefficients stay in the store; the matrix and the
        :class:`Constraint` view drop them."""
        r = len(self._row_meta)
        for terms in rows:
            self._term_rows.extend([r] * len(terms))
            self._term_cols.extend([var.index for var in terms])
            self._term_vals.extend(terms.values())
            r += 1
        for sense, b in zip(senses, rhs):
            self._row_lb.append(-math.inf if sense is Sense.LE else b)
            self._row_ub.append(math.inf if sense is Sense.GE else b)
        self._row_meta.extend(metas)
        self._invalidate()

    # -- building -------------------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                kind: VarKind = VarKind.CONTINUOUS) -> Variable:
        """Create a variable and register it with the model.

        Binary variables get bounds clamped to [0, 1] regardless of the
        arguments.
        """
        if kind is VarKind.BINARY:
            lb, ub = max(0.0, lb), min(1.0, ub)
        if ub < lb:
            raise ValueError(f"variable {name}: ub {ub} < lb {lb}")
        var = Variable(name, len(self._variables), lb, ub, kind)
        self._variables.append(var)
        # The assembled matrix is (n_rows, n_vars): a new column changes it.
        self._rows_cache = None
        return var

    def add_binary(self, name: str) -> Variable:
        """Shorthand for a 0-1 variable."""
        return self.add_var(name, 0.0, 1.0, VarKind.BINARY)

    def add_continuous(self, name: str, lb: float = 0.0,
                       ub: float = math.inf) -> Variable:
        """Shorthand for a continuous variable."""
        return self.add_var(name, lb, ub, VarKind.CONTINUOUS)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (built via expression comparison)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint; build one by comparing "
                "expressions, e.g. model.add_constraint(x + y <= 3)"
            )
        foreign = self._foreign(constraint.expr.terms)
        if foreign is not None:
            raise ValueError(
                f"constraint {name or constraint.name!r} uses variable "
                f"{foreign.name!r} not owned by this model"
            )
        constraint.name = name or constraint.name or f"c{len(self._row_meta)}"
        expr = constraint.expr
        self._store([expr.terms], [constraint.sense], [-expr.constant],
                    [constraint])
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint],
                        prefix: str = "") -> list[Constraint]:
        """Register several constraints, naming them ``prefix0, prefix1, ...``."""
        added = []
        for i, con in enumerate(constraints):
            added.append(self.add_constraint(con, name=f"{prefix}{i}" if prefix else ""))
        return added

    def add_rows(self, rows: Sequence[Mapping[Variable, float]], sense,
                 rhs: Sequence[float], names: Sequence[str]) -> None:
        """Add several rows without building a :class:`Constraint` each.

        The vectorized alternative to repeated :meth:`add_constraint`: each
        row is a ``{variable: coefficient}`` map appended straight to the
        model's row store, so no per-row
        :class:`~repro.milp.expr.LinExpr` algebra runs, and the
        :class:`Constraint` objects are built only if :attr:`constraints`
        is read.  Row ``r`` reads ``sum(c * v for v, c in rows[r].items())
        SENSE rhs[r]``.

        Args:
            rows: one coefficient map per row; zero coefficients are
                dropped, exactly like :meth:`add_constraint` drops them.
            sense: one :class:`Sense` (or string) for every row, or a
                sequence of per-row senses.
            rhs: one right-hand side per row.
            names: one name per row.
        """
        if isinstance(sense, (Sense, str)):
            senses = [Sense(sense)] * len(rows)
        else:
            senses = [Sense(s) for s in sense]
        if not len(rows) == len(rhs) == len(names) == len(senses):
            raise ValueError(
                f"{len(rows)} rows / {len(rhs)} right-hand sides / "
                f"{len(names)} names / {len(senses)} senses")
        foreign = self._foreign(itertools.chain.from_iterable(rows))
        if foreign is not None:
            raise ValueError(f"row block uses variable {foreign.name!r} not "
                             f"owned by this model")
        self._store(rows, senses, [float(b) for b in rhs], zip(names, senses))

    def set_objective(self, expr: ExprLike,
                      sense: ObjectiveSense | str = ObjectiveSense.MIN) -> None:
        """Set the objective expression and direction."""
        self._objective = _as_expr(expr)
        self._objective_sense = ObjectiveSense(sense)

    # -- introspection ------------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        """All variables in column order."""
        return tuple(self._variables)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """All constraints in row order (``add_rows`` rows built lazily)."""
        if self._constraints_cache is None:
            starts = np.searchsorted(np.asarray(self._term_rows, dtype=np.int64),
                                     np.arange(len(self._row_meta) + 1))
            flat: list[Constraint] = []
            for r, meta in enumerate(self._row_meta):
                if isinstance(meta, Constraint):
                    flat.append(meta)
                    continue
                name, sense = meta
                lo, hi = starts[r], starts[r + 1]
                terms = {self._variables[j]: float(c)
                         for j, c in zip(self._term_cols[lo:hi],
                                         self._term_vals[lo:hi]) if c != 0.0}
                rhs = self._row_lb[r] if sense is Sense.GE else self._row_ub[r]
                flat.append(Constraint(LinExpr(terms, -float(rhs)), sense, name))
            self._constraints_cache = tuple(flat)
        return self._constraints_cache

    @property
    def objective(self) -> LinExpr:
        """The objective expression."""
        return self._objective

    @property
    def objective_sense(self) -> ObjectiveSense:
        """The optimization direction."""
        return self._objective_sense

    @property
    def n_variables(self) -> int:
        """Number of variables."""
        return len(self._variables)

    @property
    def n_integer_variables(self) -> int:
        """Number of binary/integer variables — the quantity the paper's
        successive augmentation keeps near-constant per step."""
        return sum(1 for v in self._variables if v.is_integral)

    @property
    def n_constraints(self) -> int:
        """Number of constraints."""
        return len(self._row_meta)

    def is_pure_lp(self) -> bool:
        """True when the model has no integral variables (the section-2.5
        given-topology case)."""
        return self.n_integer_variables == 0

    # -- validation and export ------------------------------------------------------

    def check_assignment(self, assignment: Mapping[Variable, float],
                         tol: float = 1e-6) -> list[Constraint]:
        """Constraints violated by more than ``tol`` under ``assignment``.

        Complete assignments are checked in one sparse matrix-vector product
        against the cached row arrays; constraint objects are materialized
        only for the violated rows.  Assignments that do not cover every
        variable fall back to the per-constraint scalar path.
        """
        try:
            x = np.array([assignment[v] for v in self._variables], dtype=float)
        except KeyError:
            return [c for c in self.constraints if c.violation(assignment) > tol]
        a_matrix, row_lb, row_ub = self._assembled_rows()
        activity = a_matrix @ x
        bad = (activity > row_ub + tol) | (activity < row_lb - tol)
        if not bad.any():
            return []
        constraints = self.constraints
        return [constraints[i] for i in np.flatnonzero(bad)]

    def _assembled_rows(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """The constraint system as ``(A, row_lb, row_ub)``, cached: the
        row store's nonzero triplets become the CSR matrix in one call."""
        if self._rows_cache is None:
            vals = np.array(self._term_vals, dtype=np.float64)
            keep = vals != 0.0
            a_matrix = sparse.csr_matrix(
                (vals[keep], (np.array(self._term_rows, dtype=np.int64)[keep],
                              np.array(self._term_cols, dtype=np.int64)[keep])),
                shape=(len(self._row_meta), len(self._variables)))
            self._rows_cache = (a_matrix, np.array(self._row_lb, dtype=np.float64),
                                np.array(self._row_ub, dtype=np.float64))
        return self._rows_cache

    def to_standard_form(self) -> StandardForm:
        """Export to the array form the solver backends consume.

        The constraint matrix and row bounds are cached across calls (they
        only change when rows or columns are added); the objective vector
        and variable bound arrays are rebuilt every call, because variable
        bounds are mutated in place after construction (dominance fixings,
        presolve tightenings).
        """
        n = len(self._variables)
        c = np.zeros(n)
        for var, coeff in self._objective.terms.items():
            c[var.index] += coeff
        maximize = self._objective_sense is ObjectiveSense.MAX
        if maximize:
            c = -c
        a_matrix, row_lb, row_ub = self._assembled_rows()
        lb = np.array([v.lb for v in self._variables])
        ub = np.array([v.ub for v in self._variables])
        integrality = np.array(
            [1 if v.is_integral else 0 for v in self._variables])
        c0 = self._objective.constant * (-1.0 if maximize else 1.0)
        return StandardForm(c=c, c0=c0, a_matrix=a_matrix, row_lb=row_lb,
                            row_ub=row_ub, lb=lb, ub=ub,
                            integrality=integrality,
                            variables=tuple(self._variables),
                            maximize=maximize)

    def __repr__(self) -> str:
        return (f"Model({self.name!r}: {self.n_variables} vars "
                f"({self.n_integer_variables} integer), "
                f"{self.n_constraints} constraints)")
