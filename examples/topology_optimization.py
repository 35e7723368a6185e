"""Given-topology optimization (section 2.5): the pure-LP special case.

When the relative positions of the modules are fixed, every integer
variable of the floorplanning MILP collapses to a constant and a plain LP
optimizes positions and soft-module shapes.  This example:

1. floorplans an instance to get a topology,
2. perturbs the placement (spreads everything apart),
3. recovers a minimal-area floorplan for the *same* topology with the LP —
   exercising both the HiGHS and the from-scratch NumPy-simplex backends,
4. resizes the soft modules with :func:`repro.core.refine_shapes` and
   compares the result with frozen shapes.

The single LP models each soft module's height with the secant, which
overestimates the height at every interior width, so its area is only a
conservative bound on what resizing buys; ``refine_shapes`` re-solves the
LP with tangents about the current widths and reports the realized area.

Run:
    python examples/topology_optimization.py
"""

from repro import (
    FloorplanConfig,
    derive_relations,
    floorplan,
    optimize_topology,
    random_netlist,
)
from repro.core import refine_shapes


def main() -> None:
    netlist = random_netlist(10, seed=77, flexible_fraction=0.3)
    plan = floorplan(netlist, FloorplanConfig(seed_size=5, group_size=3))
    print(f"MILP floorplan: {plan.chip_width:.1f} x {plan.chip_height:.1f} "
          f"(area {plan.chip_area:.0f})")

    # The topology: one left-of / below relation per module pair.
    relations = derive_relations(list(plan.placements.values()))
    x_rel = sum(1 for r in relations if r.axis == "x")
    print(f"Derived topology: {len(relations)} relations "
          f"({x_rel} horizontal, {len(relations) - x_rel} vertical) — "
          f"0 integer variables remain")

    # Spread the placement apart to simulate a badly sized input.
    spread = [p.moved_to(p.envelope.x * 2.0, p.envelope.y * 2.0)
              for p in plan.placements.values()]
    spread_area = max(p.envelope.x2 for p in spread) * \
        max(p.envelope.y2 for p in spread)
    print(f"Perturbed floorplan area: {spread_area:.0f}")

    for backend in ("highs", "simplex"):
        result = optimize_topology(spread, relations,
                                   resize_flexible=True, backend=backend)
        print(f"LP re-optimization [{backend:>7}]: "
              f"{result.chip_width:.1f} x {result.chip_height:.1f} "
              f"(area {result.chip_width * result.chip_height:.0f})")

    secant = optimize_topology(spread, relations, resize_flexible=True)
    refined = refine_shapes(spread, relations=relations)
    frozen = optimize_topology(spread, relations, resize_flexible=False)
    frozen_area = frozen.chip_width * frozen.chip_height
    print(f"\nSecant LP with resizable soft modules: area "
          f"{secant.chip_width * secant.chip_height:.1f} (a conservative "
          f"bound: the secant overestimates every interior height)")
    print(f"Shape refinement ({refined.n_rounds} round(s), tangents about "
          f"the current widths): area {refined.chip_area:.1f}")
    print(f"Shape optimization of the soft modules buys "
          f"{frozen_area - refined.chip_area:.1f} area units over frozen "
          f"shapes (area {frozen_area:.1f})")

if __name__ == "__main__":
    main()
