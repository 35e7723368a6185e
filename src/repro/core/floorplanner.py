"""High-level floorplanning facade.

:class:`Floorplanner` runs the full analytical flow — successive
augmentation, then the section-2.5 LP for compaction and legalization —
and returns a :class:`Floorplan` with geometry and metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.augmentation import AugmentationStep, AugmentationTrace, \
    run_augmentation
from repro.core.config import FloorplanConfig
from repro.core.placement import Placement
from repro.core.topology import derive_relations, optimize_topology
from repro.geometry.rect import GEOM_EPS, Rect, any_overlap
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    from repro.check.geometry import GeometryReport


@dataclass
class Floorplan:
    """A completed floorplan.

    Attributes:
        netlist: the input circuit.
        config: the configuration that produced this floorplan.
        placements: per-module placements, keyed by module name.
        chip_width: the fixed chip width ``W``.
        chip_height: the reached chip height ``y``.
        trace: per-step augmentation records.
        elapsed_seconds: total wall-clock floorplanning time.
        certification: independent whole-floorplan geometry report
            (populated only when the config's ``certify`` flag is on;
            per-step MILP certificates live on the trace steps).
    """

    netlist: Netlist
    config: FloorplanConfig
    placements: dict[str, Placement]
    chip_width: float
    chip_height: float
    trace: AugmentationTrace = field(default_factory=AugmentationTrace)
    elapsed_seconds: float = 0.0
    certification: "GeometryReport | None" = None

    # -- geometry ------------------------------------------------------------------

    @property
    def chip(self) -> Rect:
        """The chip rectangle ``W x y`` anchored at the origin."""
        return Rect(0.0, 0.0, self.chip_width, self.chip_height)

    @property
    def chip_area(self) -> float:
        """Chip area ``W * y``."""
        return self.chip_width * self.chip_height

    @property
    def module_area(self) -> float:
        """Total area of the modules themselves."""
        return sum(p.rect.area for p in self.placements.values())

    @property
    def utilization(self) -> float:
        """Area utilization = module area / chip area (the paper's
        percentage columns)."""
        if self.chip_area <= 0:
            return 0.0
        return self.module_area / self.chip_area

    def placement(self, name: str) -> Placement:
        """Placement of the named module."""
        return self.placements[name]

    def rects(self) -> list[Rect]:
        """All module rectangles."""
        return [p.rect for p in self.placements.values()]

    def envelopes(self) -> list[Rect]:
        """All envelope rectangles."""
        return [p.envelope for p in self.placements.values()]

    # -- metrics --------------------------------------------------------------------

    def hpwl(self) -> float:
        """Half-perimeter wirelength over module centers, net weights
        applied."""
        total = 0.0
        for net in self.netlist.nets:
            xs = []
            ys = []
            for name in net.modules:
                cx, cy = self.placements[name].center
                xs.append(cx)
                ys.append(cy)
            total += net.weight * ((max(xs) - min(xs)) + (max(ys) - min(ys)))
        return total

    def summary(self) -> str:
        """One-paragraph human-readable result summary."""
        return (f"{self.netlist.name}: {len(self.placements)} modules on a "
                f"{self.chip_width:.1f} x {self.chip_height:.1f} chip "
                f"(area {self.chip_area:.1f}, utilization "
                f"{self.utilization:.1%}); {self.trace.n_steps} MILP "
                f"subproblems, largest {self.trace.max_binaries} binaries, "
                f"{self.elapsed_seconds:.2f}s total")

    # -- validation -----------------------------------------------------------------

    def validate(self, eps: float = 1e-6) -> list[str]:
        """Structural checks: every module placed, no pairwise overlap, all
        modules inside the chip.  Returns human-readable violations (empty
        when the floorplan is legal)."""
        problems: list[str] = []
        missing = set(self.netlist.module_names) - set(self.placements)
        if missing:
            problems.append(f"unplaced modules: {sorted(missing)}")
        names = list(self.placements)
        rect_list = [self.placements[n].rect for n in names]
        pair = any_overlap(rect_list, eps)
        while pair is not None:
            i, j = pair
            overlap = rect_list[i].overlap_area(rect_list[j])
            problems.append(
                f"modules {names[i]} and {names[j]} overlap (area {overlap:.4g})")
            rect_list = rect_list[:j] + rect_list[j + 1:]
            names = names[:j] + names[j + 1:]
            pair = any_overlap(rect_list, eps)
        chip = self.chip
        for name, p in self.placements.items():
            if not chip.contains_rect(p.rect, eps):
                problems.append(f"module {name} extends outside the chip")
        return problems

    @property
    def is_legal(self) -> bool:
        """True when :meth:`validate` reports no violations."""
        return not self.validate()


class Floorplanner:
    """The analytical floorplanner (paper's full method)."""

    def __init__(self, netlist: Netlist,
                 config: FloorplanConfig | None = None, *,
                 preplaced: Mapping[str, Placement] | None = None,
                 on_step: "Callable[[AugmentationStep], None] | None" = None,
                 height_cap: float | None = None) -> None:
        """
        Args:
            netlist: the circuit to floorplan.
            config: run configuration (defaults used when omitted).
            preplaced: modules fixed at given positions (pads, hard macros);
                the rest of the chip is planned around them and they are
                pinned in place through legalization too.
            on_step: optional per-step observer forwarded to
                :func:`repro.core.augmentation.run_augmentation` — the job
                service uses it to stream progress events and to cancel a
                running floorplan cooperatively (the observer raises).
            height_cap: explicit chip-height cap overriding the one the
                config's outline implies — the fixed-outline feasibility
                search (:mod:`repro.core.outline`) probes tighter caps than
                the die height through this knob.
        """
        self.netlist = netlist
        self.config = config or FloorplanConfig()
        self.preplaced = dict(preplaced or {})
        self.on_step = on_step
        self.height_cap = height_cap

    def run(self) -> Floorplan:
        """Run successive augmentation, then the section-2.5 LP that
        compacts the plan and legalizes it (tangent-linearized flexible
        modules may overlap until it runs), and return the floorplan."""
        start = time.perf_counter()
        result = run_augmentation(self.netlist, self.config,
                                  preplaced=self.preplaced,
                                  on_step=self.on_step,
                                  height_cap=self.height_cap)
        relations = derive_relations(result.placements)
        cache = None
        if self.config.solve_cache:
            from repro.milp.cache import get_cache

            cache = get_cache(self.config.cache_dir)
        # Flexible modules may resize during legalization (that is the
        # section-2.5 formulation's purpose); if the tangent overlaps
        # forced relations that cannot fit the fixed width, retry with
        # the cap released — a slightly wider legal chip beats an
        # illegal one.
        options = dict(resize_flexible=self.netlist.n_flexible > 0,
                       fixed_names=frozenset(self.preplaced), cache=cache)
        try:
            topo = optimize_topology(result.placements, relations,
                                     max_chip_width=result.chip_width,
                                     **options)
        except RuntimeError:
            topo = optimize_topology(result.placements, relations,
                                     max_chip_width=None, **options)

        elapsed = time.perf_counter() - start
        plan = Floorplan(
            netlist=self.netlist,
            config=self.config,
            placements={p.name: p for p in topo.placements},
            chip_width=max(topo.chip_width, GEOM_EPS),
            chip_height=topo.chip_height,
            trace=result.trace,
            elapsed_seconds=elapsed,
        )
        if self.config.certify:
            from repro.check.certify import certify_floorplan

            plan.certification = certify_floorplan(plan)
        return plan


def floorplan(netlist: Netlist, config: FloorplanConfig | None = None) -> Floorplan:
    """Convenience one-call API: floorplan ``netlist`` with ``config``."""
    return Floorplanner(netlist, config).run()
