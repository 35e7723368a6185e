"""Given-topology optimization (section 2.5).

"One of the often mentioned formulations of the floorplanning problem assumes
that the topology of the chip is given and only shapes of the modules should
be optimized.  When the mixed integer programming formulation is applied to
this problem, it results in elimination of all integer variables."

Given relative positions (derived from an existing floorplan), every pair's
binaries collapse to constants and a single linear inequality per pair
remains: a pure LP over module positions (and flexible widths).  We use this
engine four ways:

1. the paper's standalone formulation (optimize shapes for a fixed topology);
2. **legalization** after tangent-linearized flexible placement (exact
   heights may overlap slightly; the LP restores separation while keeping
   the topology);
3. **channel-width adjustment** after global routing (per-pair minimum gaps
   encode routed channel demand; the LP computes the minimal enlarged chip);
4. **shape refinement** (:mod:`repro.core.shape_refine`), re-solved with
   each flexible module's tangent about its current width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.flexible import FlexLinearization, linearize
from repro.core.placement import Placement
from repro.geometry.rect import Rect
from repro.milp.expr import Variable
from repro.milp.model import Model
from repro.milp.solvers.registry import solve


@dataclass(frozen=True)
class Relation:
    """A topological relation: ``first`` precedes ``second`` on ``axis``
    with a minimum separation ``gap`` between their facing edges."""

    first: str
    second: str
    axis: str  # "x" or "y"
    gap: float = 0.0

    def __post_init__(self) -> None:
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if self.gap < 0:
            raise ValueError("relation gap must be non-negative")


GapFn = Callable[[Placement, Placement, str], float]


def derive_relations(placements: Sequence[Placement],
                     gap_fn: GapFn | None = None) -> list[Relation]:
    """Derive one relation per module pair from an existing floorplan.

    For each pair the separating direction with the largest slack is chosen
    (envelope rectangles are compared, so reserved routing margins are
    preserved).  Slightly overlapping inputs — the tangent-linearization case
    — still yield the least-violated direction, which the topology LP then
    makes feasible.

    Args:
        placements: the current floorplan.
        gap_fn: optional callback giving the minimum separation for a pair on
            an axis (used by channel-width adjustment).
    """
    envelopes = [p.envelope for p in placements]
    x, x2, y, y2 = (np.array([getattr(e, side) for e in envelopes],
                             dtype=np.float64)
                    for side in ("x", "x2", "y", "y2"))
    i, j = np.triu_indices(len(placements), k=1)
    # Row k is direction k's slack: i left of j, j left of i, i below j,
    # j below i.  argmax keeps the first largest slack, as max() did.
    slack = np.stack([x[j] - x2[i], x[i] - x2[j], y[j] - y2[i], y[i] - y2[j]])
    relations: list[Relation] = []
    for a, b, k in zip(i.tolist(), j.tolist(),
                       np.argmax(slack, axis=0).tolist()):
        first, second = (placements[a], placements[b]) if k % 2 == 0 \
            else (placements[b], placements[a])
        axis = "x" if k < 2 else "y"
        gap = 0.0 if gap_fn is None \
            else max(0.0, gap_fn(first, second, axis))
        relations.append(Relation(first.name, second.name, axis, gap))
    return relations


@dataclass(frozen=True)
class TopologyResult:
    """Result of a topology LP solve."""

    placements: list[Placement]
    chip_width: float
    chip_height: float
    objective: float

    @property
    def chip(self) -> Rect:
        """The chip rectangle."""
        return Rect(0.0, 0.0, self.chip_width, self.chip_height)


def optimize_topology(placements: Sequence[Placement],
                      relations: Sequence[Relation] | None = None, *,
                      max_chip_width: float | None = None,
                      resize_flexible: bool = True,
                      fixed_names: frozenset[str] | set[str] = frozenset(),
                      flex_linearizations: Mapping[str, FlexLinearization]
                      | None = None,
                      backend: str = "highs",
                      cache=None) -> TopologyResult:
    """Re-place (and optionally re-shape) modules for a given topology.

    Minimizes a first-order area objective ``H0 * W + W0 * H`` (the exact
    area's linearization around the current chip), subject to the relation
    inequalities, chip bounds, and flexible-width ranges.

    Args:
        placements: current floorplan (supplies modules, orientations,
            envelope margins, and the default topology).
        relations: topology to enforce; derived from ``placements`` when
            omitted.
        max_chip_width: optional hard cap on the chip width (the fixed ``W``
            of the main flow); leave None to let the LP trade width against
            height, as channel adjustment requires.
        resize_flexible: let flexible modules change width within bounds.
        fixed_names: modules pinned at their current position and shape
            (preplaced pads/macros).
        flex_linearizations: per-module height models of the resized
            flexible modules; a module it does not name takes the secant
            (:func:`~repro.core.flexible.linearize`).  Shape refinement
            passes each module's tangent about its current width.
        backend: LP backend (``highs``, ``simplex``, or ``bnb``).
        cache: optional :class:`~repro.milp.cache.SolveCache` consulted
            before the LP is solved (hits are re-certified; see
            :mod:`repro.milp.cache`).

    Returns:
        A :class:`TopologyResult` with legalized placements.

    Raises:
        RuntimeError: when the LP is infeasible (a cyclic or contradictory
            relation set).
    """
    if relations is None:
        relations = derive_relations(placements)
    model = Model("topology_lp")
    current_w = max((p.envelope.x2 for p in placements), default=1.0)
    current_h = max((p.envelope.y2 for p in placements), default=1.0)
    # MILP solutions carry ~1e-7 feasibility noise; a strict cap equal to the
    # MILP's own chip width would then be unsatisfiable.
    width_cap = float("inf") if max_chip_width is None \
        else max_chip_width * (1.0 + 1e-6) + 1e-9
    width_var = model.add_continuous("chip_width", lb=0.0, ub=width_cap)
    height_var = model.add_continuous("chip_height", lb=0.0)

    xs: dict[str, Variable] = {}
    ys: dict[str, Variable] = {}
    # Each envelope's width and height as (terms, constant): the terms are
    # {dw: coefficient} for a resized flexible module, else empty.
    env_widths: dict[str, tuple[dict[Variable, float], float]] = {}
    env_heights: dict[str, tuple[dict[Variable, float], float]] = {}
    # Each resized flexible module's width-shrink variable and height model.
    dws: dict[str, tuple[Variable, FlexLinearization]] = {}
    by_name: dict[str, Placement] = {}
    flex_linearizations = flex_linearizations or {}

    for p in placements:
        name = p.name
        if name in by_name:
            raise ValueError(f"duplicate placement {name}")
        by_name[name] = p
        if name in fixed_names:
            xs[name] = model.add_continuous(f"x[{name}]", lb=p.envelope.x,
                                            ub=p.envelope.x)
            ys[name] = model.add_continuous(f"y[{name}]", lb=p.envelope.y,
                                            ub=p.envelope.y)
            env_widths[name] = ({}, p.envelope.w)
            env_heights[name] = ({}, p.envelope.h)
            continue
        xs[name] = model.add_continuous(f"x[{name}]", lb=0.0)
        ys[name] = model.add_continuous(f"y[{name}]", lb=0.0)
        margin_w = p.envelope.w - p.rect.w
        margin_h = p.envelope.h - p.rect.h
        if p.module.flexible and resize_flexible:
            flex = flex_linearizations.get(name) or linearize(p.module)
            dw = model.add_continuous(f"dw[{name}]", lb=0.0, ub=flex.dw_max)
            dws[name] = (dw, flex)
            env_widths[name] = ({dw: -1.0}, flex.w_max + margin_w)
            env_heights[name] = ({dw: flex.slope}, flex.h0 + margin_h)
        else:
            env_widths[name] = ({}, p.envelope.w)
            env_heights[name] = ({}, p.envelope.h)

    # One row block, relations first, then each module's chip rows.  Row
    # ``pos + extent + gap <= other`` is built as the LinExpr algebra
    # builds it: {pos: 1, extent terms..., other: -1}, rhs -(size + gap).
    rows: list[dict[Variable, float]] = []
    rhs: list[float] = []
    names: list[str] = []

    def row(pos: Variable, extent: tuple[dict[Variable, float], float],
            gap: float, other: Variable, row_name: str) -> None:
        terms, size = extent
        coeffs = {pos: 1.0, **terms}
        coeffs[other] = coeffs.get(other, 0.0) - 1.0
        rows.append(coeffs)
        rhs.append(-(size + gap))
        names.append(row_name)

    for rel in relations:
        if rel.first not in by_name or rel.second not in by_name:
            raise ValueError(f"relation references unknown module: {rel}")
        if rel.axis == "x":
            row(xs[rel.first], env_widths[rel.first], rel.gap,
                xs[rel.second], f"rel[{rel.first}<{rel.second}]:x")
        else:
            row(ys[rel.first], env_heights[rel.first], rel.gap,
                ys[rel.second], f"rel[{rel.first}<{rel.second}]:y")

    for name in by_name:
        row(xs[name], env_widths[name], 0.0, width_var, f"chipw[{name}]")
        row(ys[name], env_heights[name], 0.0, height_var, f"chiph[{name}]")
    model.add_rows(rows, "<=", rhs, names)

    model.set_objective(current_h * width_var + current_w * height_var)
    solution = solve(model, backend=backend, cache=cache)
    if not solution.status.has_solution:
        raise RuntimeError(
            f"topology LP is {solution.status.value}; the relation set is "
            "contradictory (cyclic constraints or an over-tight width cap)")

    new_placements: list[Placement] = []
    for name, p in by_name.items():
        ex = solution.value(xs[name])
        ey = solution.value(ys[name])
        if name in dws:
            dw, flex = dws[name]
            dw_value = min(max(solution.value(dw), 0.0), flex.dw_max)
            width = flex.width(dw_value)
            height = flex.height_exact(dw_value)
        else:
            width, height = p.rect.w, p.rect.h
        left = p.rect.x - p.envelope.x
        bottom = p.rect.y - p.envelope.y
        env_w = width + (p.envelope.w - p.rect.w)
        env_h = height + (p.envelope.h - p.rect.h)
        envelope = Rect(ex, ey, env_w, env_h)
        rect = Rect(ex + left, ey + bottom, width, height)
        new_placements.append(p.resized(rect, envelope))

    chip_w = max(solution.value(width_var),
                 max((pl.envelope.x2 for pl in new_placements), default=0.0))
    chip_h = max(solution.value(height_var),
                 max((pl.envelope.y2 for pl in new_placements), default=0.0))
    return TopologyResult(placements=new_placements, chip_width=chip_w,
                          chip_height=chip_h, objective=solution.objective)
