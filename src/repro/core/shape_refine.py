"""Whole-floorplan shape refinement: iterated section-2.5 LPs.

The given-topology formulation "optimizes the shapes of the modules" for
fixed relative positions.  Because flexible heights are linearized, one LP
is only first-order accurate; iterating — re-deriving the tangent at each
round's realized widths and re-solving — converges to a locally optimal
sizing for the fixed topology (the fixed-point of the linearization).

This is the natural post-pass after successive augmentation: topology from
the MILP, final sizing from the LP loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.flexible import linearize_at
from repro.core.placement import Placement
from repro.core.topology import Relation, derive_relations, optimize_topology


@dataclass
class RefinementResult:
    """Outcome of :func:`refine_shapes`.

    Attributes:
        placements: the refined floorplan.
        chip_width: final chip width.
        chip_height: final chip height.
        n_rounds: LP rounds executed.
        converged: True when widths stabilized before the round limit.
        area_history: chip area after each round (round 0 = input).
    """

    placements: list[Placement]
    chip_width: float
    chip_height: float
    n_rounds: int
    converged: bool
    area_history: list[float]

    @property
    def chip_area(self) -> float:
        """Final chip area."""
        return self.chip_width * self.chip_height


def refine_shapes(placements: Sequence[Placement], *,
                  relations: Sequence[Relation] | None = None,
                  max_chip_width: float | None = None,
                  max_rounds: int = 8,
                  tolerance: float = 1e-6) -> RefinementResult:
    """Iteratively re-size flexible modules for a fixed topology.

    Each round solves the section-2.5 LP (:func:`optimize_topology`) with
    every flexible module's height tangent-linearized about its current
    width, then updates the widths from the solution.  Rounds repeat until
    no width moves more than ``tolerance`` or ``max_rounds`` is hit.
    Rigid-only floorplans converge in one round (pure compaction).

    Args:
        placements: the floorplan to refine (topology is preserved).
        relations: explicit topology; derived from ``placements`` if omitted
            (and then *frozen* across rounds — re-deriving could flip
            near-tie relations and oscillate).
        max_chip_width: optional chip-width cap.
        max_rounds: LP round limit.
        tolerance: convergence threshold on flexible widths.

    Raises:
        RuntimeError: when a round's LP is infeasible.
    """
    current = list(placements)
    fixed_relations = list(relations) if relations is not None \
        else derive_relations(current)
    area_history = [_area_of(current)]
    converged = False
    rounds = 0

    for rounds in range(1, max_rounds + 1):
        tangents = {p.name: linearize_at(p.module, p.rect.w)
                    for p in current if p.module.flexible}
        result = optimize_topology(current, fixed_relations,
                                   max_chip_width=max_chip_width,
                                   flex_linearizations=tangents)
        moved = 0.0
        for before, after in zip(current, result.placements):
            if before.module.flexible:
                moved = max(moved, abs(before.rect.w - after.rect.w))
        current = result.placements
        # Record the *realized* area (exact hyperbola heights), not the LP's
        # linearized estimate, which the tangent can understate.
        area_history.append(_area_of(current))
        if moved <= tolerance:
            converged = True
            break

    chip_w = max((p.envelope.x2 for p in current), default=0.0)
    chip_h = max((p.envelope.y2 for p in current), default=0.0)
    return RefinementResult(placements=current, chip_width=chip_w,
                            chip_height=chip_h, n_rounds=rounds,
                            converged=converged, area_history=area_history)


def _area_of(placements: Sequence[Placement]) -> float:
    if not placements:
        return 0.0
    return max(p.envelope.x2 for p in placements) * \
        max(p.envelope.y2 for p in placements)
