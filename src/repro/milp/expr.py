"""Linear expressions and decision variables.

A small algebraic layer in the style of PuLP/LINDO's input language: variables
combine with ``+ - *`` into :class:`LinExpr`; comparing an expression with
``<= >= ==`` yields a constraint (see :mod:`repro.milp.model`).  Expressions
are dictionaries mapping variables to coefficients plus a constant, so
building a model is O(number of nonzeros).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:
    from repro.milp.model import Constraint

Number = Union[int, float]


class VarKind(str, Enum):
    """Variable domain kinds."""

    CONTINUOUS = "continuous"
    BINARY = "binary"
    INTEGER = "integer"


class _Algebra:
    """Shared operator implementations for Variable and LinExpr."""

    def to_expr(self) -> "LinExpr":
        """This object as a :class:`LinExpr` (overridden by subclasses)."""
        raise NotImplementedError

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self.to_expr()._combined(other, 1.0)

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self.to_expr()._combined(other, -1.0)

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (-self.to_expr())._combined(other, 1.0)

    def __mul__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        expr = self.to_expr()
        return LinExpr({v: c * scalar for v, c in expr.terms.items()},
                       expr.constant * scalar)

    def __rmul__(self, scalar: Number) -> "LinExpr":
        return self.__mul__(scalar)

    def __truediv__(self, scalar: Number) -> "LinExpr":
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return self.__mul__(1.0 / scalar)

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    # -- comparisons build constraints -------------------------------------------

    def __le__(self, other: "ExprLike") -> "Constraint":
        from repro.milp.model import Constraint, Sense

        return Constraint(self.to_expr() - _as_expr(other), Sense.LE)

    def __ge__(self, other: "ExprLike") -> "Constraint":
        from repro.milp.model import Constraint, Sense

        return Constraint(self.to_expr() - _as_expr(other), Sense.GE)

    def __eq__(self, other: object) -> "Constraint":  # type: ignore[override]
        from repro.milp.model import Constraint, Sense

        if not isinstance(other, (int, float, Variable, LinExpr)):
            return NotImplemented  # type: ignore[return-value]
        return Constraint(self.to_expr() - _as_expr(other), Sense.EQ)

    __hash__ = None  # type: ignore[assignment]  # redefined by Variable


class Variable(_Algebra):
    """A decision variable.

    Create variables through :meth:`repro.milp.model.Model.add_var`; the model
    assigns the column index.  Variables hash by identity so they can key
    expression dictionaries.
    """

    __slots__ = ("name", "index", "lb", "ub", "kind")

    def __init__(self, name: str, index: int, lb: float, ub: float,
                 kind: VarKind) -> None:
        self.name = name
        self.index = index
        self.lb = lb
        self.ub = ub
        self.kind = kind

    def to_expr(self) -> "LinExpr":
        """The expression ``1.0 * self``."""
        return LinExpr({self: 1.0}, 0.0)

    # Identity hashing in C.  CPython's pointer hash is a bijection of the
    # address, so two live variables never share a hash and a dict lookup
    # never falls through to _Algebra.__eq__ (which builds a Constraint).
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.kind.value}, [{self.lb}, {self.ub}])"

    @property
    def is_integral(self) -> bool:
        """True for binary/integer variables."""
        return self.kind is not VarKind.CONTINUOUS


class LinExpr(_Algebra):
    """A linear expression: ``sum(coeff * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None,
                 constant: float = 0.0) -> None:
        self.terms: dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    def to_expr(self) -> "LinExpr":
        """Already an expression; returns self."""
        return self

    def _combined(self, other: "ExprLike", sign: float) -> "LinExpr":
        result = LinExpr(self.terms, self.constant)
        other_expr = _as_expr(other)
        for var, coeff in other_expr.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + sign * coeff
        result.constant += sign * other_expr.constant
        return result

    def value(self, assignment: Mapping[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.constant + sum(c * assignment[v] for v, c in self.terms.items())

    def simplified(self, eps: float = 1e-12) -> "LinExpr":
        """A copy with (numerically) zero coefficients removed."""
        return LinExpr({v: c for v, c in self.terms.items() if abs(c) > eps},
                       self.constant)

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}" for v, c in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)

    __hash__ = None  # type: ignore[assignment]


ExprLike = Union[Number, Variable, LinExpr]


def _as_expr(value: ExprLike) -> LinExpr:
    """Coerce a number, variable, or expression to a LinExpr."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Variable):
        return value.to_expr()
    if isinstance(value, (int, float)):
        return LinExpr({}, float(value))
    raise TypeError(f"cannot build a linear expression from {value!r}")


def lin_sum(items: Iterable[ExprLike]) -> LinExpr:
    """Sum expressions efficiently (avoids quadratic repeated ``+``)."""
    result = LinExpr()
    for item in items:
        expr = _as_expr(item)
        for var, coeff in expr.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + coeff
        result.constant += expr.constant
    return result
