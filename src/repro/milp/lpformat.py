"""CPLEX-LP-format export/import for models.

LINDO-era workflows moved models between tools as text files; this module
provides the modern equivalent: serialize a :class:`~repro.milp.model.Model`
to the widely supported LP file format (objective, SUBJECT TO, BOUNDS,
BINARY/GENERAL sections) and parse it back.  Useful for debugging a
floorplanning subproblem in any external solver, and round-trip-tested.
"""

from __future__ import annotations

import math
import re

from repro.milp.expr import LinExpr, Variable, VarKind, lin_sum
from repro.milp.model import Model, ObjectiveSense

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _sanitize(name: str) -> str:
    """LP format forbids brackets/commas that our variable names use."""
    return re.sub(r"[^A-Za-z0-9_.]", "_", name)


def _term_text(coeff: float, name: str, first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    magnitude = abs(coeff)
    if magnitude == 1.0:
        body = name
    else:
        body = f"{magnitude:.12g} {name}"
    return f"{sign} {body}".strip() if not first or sign else f"{sign}{body}"


def _expr_text(expr: LinExpr, names: dict[Variable, str]) -> str:
    parts: list[str] = []
    for var, coeff in sorted(expr.terms.items(), key=lambda kv: kv[0].index):
        if coeff == 0.0:
            continue
        parts.append(_term_text(coeff, names[var], first=not parts))
    if not parts:
        parts.append("0 " + next(iter(names.values()), "x0"))
    return " ".join(parts)


def write_lp(model: Model) -> str:
    """Serialize ``model`` to LP-format text.

    Variable names are sanitized (``x[m00]`` becomes ``x_m00_``); the mapping
    is deterministic, so :func:`read_lp` round-trips structure and solution
    values (names may differ from the original model's).
    """
    names: dict[Variable, str] = {}
    used: set[str] = set()
    for var in model.variables:
        base = _sanitize(var.name) or f"v{var.index}"
        candidate = base
        k = 1
        while candidate in used:
            candidate = f"{base}_{k}"
            k += 1
        used.add(candidate)
        names[var] = candidate

    lines: list[str] = []
    sense = "Maximize" if model.objective_sense is ObjectiveSense.MAX \
        else "Minimize"
    lines.append(sense)
    objective = model.objective.simplified()
    lines.append(f" obj: {_expr_text(objective, names)}")
    lines.append("Subject To")
    for i, con in enumerate(model.constraints):
        expr = con.expr.simplified()
        rhs = -expr.constant
        body = _expr_text(LinExpr(expr.terms), names)
        op = {"<=": "<=", ">=": ">=", "==": "="}[con.sense.value]
        lines.append(f" c{i}: {body} {op} {rhs:.12g}")

    lines.append("Bounds")
    for var in model.variables:
        name = names[var]
        lb = var.lb
        ub = var.ub
        if var.kind is VarKind.BINARY:
            continue  # binary section implies [0, 1]
        if math.isinf(ub) and lb == 0.0:
            continue  # LP default
        if math.isinf(ub):
            lines.append(f" {name} >= {lb:.12g}")
        else:
            lines.append(f" {lb:.12g} <= {name} <= {ub:.12g}")

    binaries = [names[v] for v in model.variables if v.kind is VarKind.BINARY]
    if binaries:
        lines.append("Binary")
        lines.extend(f" {b}" for b in binaries)
    generals = [names[v] for v in model.variables if v.kind is VarKind.INTEGER]
    if generals:
        lines.append("General")
        lines.extend(f" {g}" for g in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"


class LpParseError(ValueError):
    """Raised on malformed LP text."""


def read_lp(text: str) -> Model:
    """Parse LP-format text into a :class:`~repro.milp.model.Model`.

    Supports the subset :func:`write_lp` emits (which covers every model
    this library builds): a single objective, ``Subject To`` rows with
    ``<= >= =``, a ``Bounds`` section, ``Binary``/``General`` sections.
    """
    section = None
    objective_sense = ObjectiveSense.MIN
    objective_tokens: list[str] = []
    constraint_rows: list[tuple[str, str, float]] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: set[str] = set()
    generals: set[str] = set()

    for raw in text.splitlines():
        line = raw.split("\\")[0].strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered in ("minimize", "minimise", "min"):
            section, objective_sense = "objective", ObjectiveSense.MIN
            continue
        if lowered in ("maximize", "maximise", "max"):
            section, objective_sense = "objective", ObjectiveSense.MAX
            continue
        if lowered in ("subject to", "st", "s.t."):
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered in ("binary", "binaries", "bin"):
            section = "binary"
            continue
        if lowered in ("general", "generals", "gen"):
            section = "general"
            continue
        if lowered == "end":
            break

        if section == "objective":
            objective_tokens.append(line.split(":", 1)[-1])
        elif section == "constraints":
            body = line.split(":", 1)[-1].strip()
            match = re.search(r"(<=|>=|=)", body)
            if not match:
                raise LpParseError(f"constraint without comparator: {line!r}")
            op = match.group(1)
            lhs, rhs = body.split(op, 1)
            constraint_rows.append((lhs.strip(), op, float(rhs)))
        elif section == "bounds":
            two_sided = re.match(
                r"([-+0-9.eE]+)\s*<=\s*(\w[\w.]*)\s*<=\s*([-+0-9.eE]+)", line)
            one_sided = re.match(r"(\w[\w.]*)\s*>=\s*([-+0-9.eE]+)", line)
            if two_sided:
                bounds[two_sided.group(2)] = (float(two_sided.group(1)),
                                              float(two_sided.group(3)))
            elif one_sided:
                bounds[one_sided.group(1)] = (float(one_sided.group(2)),
                                              math.inf)
            else:
                raise LpParseError(f"unsupported bounds row: {line!r}")
        elif section == "binary":
            binaries.update(_NAME_RE.findall(line))
        elif section == "general":
            generals.update(_NAME_RE.findall(line))

    # Collect variable names from objective + constraints in reading order.
    expr_texts = [" ".join(objective_tokens)] + [c[0] for c in constraint_rows]
    order: list[str] = []
    seen: set[str] = set()
    for body in expr_texts:
        for token in _NAME_RE.findall(body):
            if token not in seen:
                seen.add(token)
                order.append(token)
    for extra in sorted(binaries | generals | set(bounds)):
        if extra not in seen:
            seen.add(extra)
            order.append(extra)

    model = Model("lp_import")
    by_name: dict[str, Variable] = {}
    for name in order:
        if name in binaries:
            by_name[name] = model.add_binary(name)
        else:
            lb, ub = bounds.get(name, (0.0, math.inf))
            kind = VarKind.INTEGER if name in generals else VarKind.CONTINUOUS
            by_name[name] = model.add_var(name, lb=lb, ub=ub, kind=kind)

    def parse_expr(body: str) -> LinExpr:
        # numbers (including scientific notation with signed exponents)
        # must be matched before bare +/- signs
        tokens = re.findall(
            r"\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
            r"|[A-Za-z_][\w.]*|[-+]", body)
        terms: list[LinExpr] = []
        sign = 1.0
        coeff: float | None = None
        for token in tokens:
            if token == "+":
                sign, coeff = 1.0, None
            elif token == "-":
                sign, coeff = -1.0, None
            elif _NAME_RE.fullmatch(token) and token in by_name:
                value = sign * (coeff if coeff is not None else 1.0)
                terms.append(value * by_name[token])
                sign, coeff = 1.0, None
            else:
                coeff = float(token)
        if coeff is not None:
            terms.append(LinExpr({}, sign * coeff))
        return lin_sum(terms)

    model.set_objective(parse_expr(" ".join(objective_tokens)),
                        objective_sense)
    for lhs, op, rhs in constraint_rows:
        expr = parse_expr(lhs)
        if op == "<=":
            model.add_constraint(expr <= rhs)
        elif op == ">=":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    return model
