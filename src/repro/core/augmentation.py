"""Successive augmentation (section 3, Figures 2-3).

The driver of the method: place a seed group with one MILP, then repeatedly
(a) pick the next group by connectivity/timing, (b) replace the partial
floorplan with its covering rectangles, and (c) solve the next MILP, until
every module is positioned.  The integer-variable count per subproblem stays
near-constant, which is what makes the total time grow ~linearly with the
module count (Series 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.config import FloorplanConfig, Objective
from repro.core.envelopes import margins_for
from repro.core.formulation import (
    AnchorAttraction,
    AnchorLengthBound,
    PairLengthBound,
    SubproblemBuilder,
)
from repro.core.placement import Placement
from repro.core.selection import module_ordering, next_group
from repro.geometry.covering import covering_rectangles
from repro.geometry.polygon import CoveringPolygon
from repro.geometry.rect import Rect
from repro.geometry.skyline import Skyline
from repro.milp.solution import Solution
from repro.milp.solvers.registry import solve, solve_inputs
from repro.milp.telemetry import SolveContext, SolveTelemetry
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    from repro.check.certify import StepCertification


class FloorplanError(RuntimeError):
    """A subproblem could not be solved to a feasible placement.

    ``status`` carries the failing solve's final
    :class:`~repro.milp.solution.SolveStatus` value (``"infeasible"``,
    ``"limit"``, ...) when one is known — the fixed-outline feasibility
    search uses it to distinguish a proven-impossible height cap from an
    inconclusive one.
    """

    def __init__(self, message: str, *, status: str | None = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class AugmentationStep:
    """Record of one MILP subproblem in the augmentation loop.

    ``snapshot``/``snapshot_obstacles`` are populated only when
    :attr:`~repro.core.config.FloorplanConfig.record_snapshots` is on: the
    floorplan *after* this step and the covering rectangles it was solved
    against (the Figure-2 sequence).
    """

    index: int
    group: tuple[str, ...]
    n_placed_before: int
    n_obstacles: int
    n_binaries: int
    n_constraints: int
    solve_seconds: float
    status: str
    objective: float
    chip_height_after: float
    n_polygon_edges: int
    theorem2_holds: bool
    snapshot: tuple[Placement, ...] | None = None
    snapshot_obstacles: tuple[Rect, ...] | None = None
    telemetry: SolveTelemetry | None = None
    certification: "StepCertification | None" = None


@dataclass
class AugmentationTrace:
    """Per-step records of an augmentation run."""

    steps: list[AugmentationStep] = field(default_factory=list)

    @property
    def total_solve_seconds(self) -> float:
        """Total MILP time across all steps."""
        return sum(s.solve_seconds for s in self.steps)

    @property
    def max_binaries(self) -> int:
        """Largest binary count of any subproblem — should stay bounded
        regardless of the total module count."""
        return max((s.n_binaries for s in self.steps), default=0)

    @property
    def n_steps(self) -> int:
        """Number of MILP subproblems solved."""
        return len(self.steps)

    @property
    def total_nodes(self) -> int:
        """Total branch-and-bound nodes across all recorded solves."""
        return sum(s.telemetry.nodes for s in self.steps if s.telemetry)

    @property
    def total_lp_calls(self) -> int:
        """Total LP relaxations across all recorded solves."""
        return sum(s.telemetry.lp_calls for s in self.steps if s.telemetry)

    @property
    def cache_hits(self) -> int:
        """Recorded solves served from the canonical solve cache."""
        return sum(1 for s in self.steps
                   if s.telemetry and s.telemetry.cache
                   and s.telemetry.cache.get("hit"))

    @property
    def cache_misses(self) -> int:
        """Recorded solves that went through the cache but missed."""
        return sum(1 for s in self.steps
                   if s.telemetry and s.telemetry.cache
                   and not s.telemetry.cache.get("hit"))


@dataclass
class AugmentationResult:
    """Output of :func:`run_augmentation`."""

    placements: list[Placement]
    chip_width: float
    chip_height: float
    trace: AugmentationTrace


def run_augmentation(netlist: Netlist, config: FloorplanConfig,
                     preplaced: dict[str, Placement] | None = None,
                     on_step: Callable[[AugmentationStep], None] | None = None,
                     height_cap: float | None = None) -> AugmentationResult:
    """Execute the Figure-3 procedure on ``netlist``.

    Args:
        netlist: the circuit.
        config: run configuration.
        preplaced: modules fixed at given positions before the run starts
            (pads, hard macros).  They enter the partial floorplan as-is;
            all other modules are placed around them.  Note the covering
            polygon fills the space *below* every placed module, so floating
            preplaced macros reserve their full column — anchor them to the
            chip bottom where possible.
        on_step: optional observer invoked with each
            :class:`AugmentationStep` right after it is appended to the
            trace — the progress-event hook the job service streams from.
            An exception raised by the observer aborts the run and
            propagates to the caller (cooperative cancellation).
        height_cap: fixed-outline chip-height cap forwarded to every
            subproblem (:class:`~repro.core.formulation.SubproblemBuilder`
            ``outline_height``).  None falls back to the configuration's
            resolved outline height (open-outline configs cap nothing).

    Returns:
        Placements for every module, the fixed chip width, the reached chip
        height, and the per-step trace.

    Raises:
        FloorplanError: when a subproblem has no feasible solution within the
            configured limits (after one automatic retry with a doubled time
            limit).
        ValueError: when a preplaced name is unknown or exceeds the chip.
    """
    preplaced = dict(preplaced or {})
    for name in preplaced:
        if name not in netlist:
            raise ValueError(f"preplaced module {name!r} is not in the netlist")

    order = [n for n in module_ordering(netlist, config.ordering,
                                        config.ordering_seed)
             if n not in preplaced]
    chip_width = _resolve_chip_width(netlist, config)
    if height_cap is None:
        outline = resolve_outline(netlist, config)
        if outline is not None:
            height_cap = outline[1]
    for name, placement in preplaced.items():
        if placement.envelope.x < -1e-9 or \
                placement.envelope.x2 > chip_width + 1e-9:
            raise ValueError(
                f"preplaced module {name!r} lies outside the chip width "
                f"{chip_width:.3f}")
        if height_cap is not None and \
                placement.envelope.y2 > height_cap + 1e-9:
            raise ValueError(
                f"preplaced module {name!r} lies outside the fixed outline "
                f"height {height_cap:.3f}")

    seed_names = order[:config.seed_size]
    remaining = order[config.seed_size:]
    trace = AugmentationTrace()
    placed: list[Placement] = []
    # The skyline of every placed envelope over [0, chip_width], raised by
    # each step's new modules instead of rebuilt from all of them.  It is
    # created with the first envelope: an empty netlist's chip has no width.
    skyline: Skyline | None = None

    def place(new: list[Placement]) -> None:
        nonlocal skyline
        for p in new:
            if skyline is None:
                skyline = Skyline(0.0, chip_width)
            skyline.add_rect(p.envelope)
        placed.extend(new)

    place(list(preplaced.values()))
    if seed_names:
        place(_solve_step(netlist, config, chip_width, seed_names, placed,
                          skyline, trace, step_index=0, on_step=on_step,
                          height_cap=height_cap))

    step = 1
    while remaining:
        group = next_group(netlist, [p.name for p in placed], remaining,
                           config.group_size)
        remaining = [n for n in remaining if n not in set(group)]
        place(_solve_step(netlist, config, chip_width, group, placed,
                          skyline, trace, step_index=step, on_step=on_step,
                          height_cap=height_cap))
        step += 1

    chip_height = max((p.envelope.y2 for p in placed), default=0.0)
    if config.objective is Objective.PERIMETER:
        # The chip width was a decision variable; report the realized width.
        chip_width = max((p.envelope.x2 for p in placed), default=chip_width)
    return AugmentationResult(placements=placed, chip_width=chip_width,
                              chip_height=chip_height, trace=trace)


def module_statistics(netlist: Netlist,
                      config: FloorplanConfig) -> tuple[float, float]:
    """Envelope-inflated ``(total area, widest extent)`` of the modules —
    the statistics chip-width and outline derivation work from."""
    total = 0.0
    widest = 0.0
    for m in netlist.modules:
        margins = margins_for(m, config.technology, config.use_envelopes)
        width = m.max_extent() if (m.flexible or (config.allow_rotation and m.rotatable)) \
            else m.width
        total += (m.width + margins.horizontal) * (m.height + margins.vertical) \
            if not m.flexible else \
            (m.width_max + margins.horizontal) * (m.area / m.width_max + margins.vertical)
        widest = max(widest, width + margins.horizontal)
    return total, widest


def _resolve_chip_width(netlist: Netlist, config: FloorplanConfig) -> float:
    """Fixed chip width from envelope-inflated module statistics."""
    total, widest = module_statistics(netlist, config)
    return config.resolved_chip_width(total, widest_module=widest)


def resolve_outline(netlist: Netlist,
                    config: FloorplanConfig) -> tuple[float, float] | None:
    """The fixed die ``(W, H)`` of this run — explicit, or derived from the
    same envelope-inflated statistics the chip width uses — or None for an
    open-outline configuration."""
    if not config.outline_mode:
        return None
    total, widest = module_statistics(netlist, config)
    return config.resolved_outline(total, widest_module=widest)


def _solve_step(netlist: Netlist, config: FloorplanConfig, chip_width: float,
                group: Sequence[str], placed: list[Placement],
                skyline: Skyline | None, trace: AugmentationTrace,
                step_index: int,
                on_step: Callable[[AugmentationStep], None] | None = None,
                height_cap: float | None = None) -> list[Placement]:
    """Solve one augmentation window and append its trace record.

    ``skyline`` is the skyline of ``placed``'s envelopes over
    ``[0, chip_width]`` (None while nothing is placed).
    """
    new_placements, builder, solution, polygon = solve_window(
        netlist, config, chip_width, group, placed, skyline=skyline,
        base_height=max((p.envelope.y2 for p in placed), default=0.0),
        height_cap=height_cap)
    obstacles = builder.obstacles

    certification = None
    if config.certify:
        from repro.check.certify import certify_subproblem

        certification = certify_subproblem(
            builder, solution, new_placements, placed, obstacles,
            chip_width, config)

    chip_height_after = max(
        [p.envelope.y2 for p in placed + new_placements], default=0.0)
    trace.steps.append(AugmentationStep(
        index=step_index,
        group=tuple(group),
        n_placed_before=len(placed),
        n_obstacles=len(obstacles),
        n_binaries=builder.n_integer_variables,
        n_constraints=builder.model.n_constraints,
        solve_seconds=solution.solve_seconds,
        status=solution.status.value,
        objective=solution.objective,
        chip_height_after=chip_height_after,
        n_polygon_edges=polygon.n_horizontal_edges() if polygon else 0,
        theorem2_holds=(len(obstacles) <= max(1, len(placed))),
        snapshot=tuple(placed + new_placements)
        if config.record_snapshots else None,
        snapshot_obstacles=tuple(obstacles)
        if config.record_snapshots else None,
        telemetry=solution.telemetry,
        certification=certification,
    ))
    if on_step is not None:
        on_step(trace.steps[-1])
    return new_placements


def solve_window(netlist: Netlist, config: FloorplanConfig,
                 chip_width: float, names: Sequence[str],
                 placed: list[Placement], *, skyline: Skyline | None = None,
                 base_height: float = 0.0, height_cap: float | None = None,
                 eco: tuple[int, int] | None = None
                 ) -> tuple[list[Placement], SubproblemBuilder, Solution,
                            CoveringPolygon | None]:
    """Formulate, solve and decode one window against a placed set.

    The placed set becomes covering rectangles (section 3.1); the window's
    wirelength terms and critical-net bounds come from ``netlist``; a window
    with flexible modules is re-linearized about its realized widths.  An
    augmentation step passes its running ``skyline`` of ``placed`` and the
    placed set's top as ``base_height``.  An ECO window
    (:mod:`repro.core.eco`) passes neither, and its ``(window, frozen)``
    shape as ``eco``.

    Returns:
        The window's placements, the builder and solution they decode
        from, and the covering polygon (None when nothing is placed).

    Raises:
        FloorplanError: when the window has no feasible solution, after one
            retry with a doubled time limit.
    """
    window = [netlist.module(name) for name in names]
    obstacles, polygon = _cover_partial_floorplan(placed, chip_width, config,
                                                  skyline)

    pair_weights: dict[tuple[str, str], float] = {}
    anchors: list[AnchorAttraction] = []
    if config.objective is Objective.AREA_WIRELENGTH:
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = sorted((names[i], names[j]))
                c = netlist.common_nets(a, b)
                if c:
                    pair_weights[(a, b)] = float(c)
        for name in names:
            for p in placed:
                c = netlist.common_nets(name, p.name)
                if c:
                    cx, cy = p.center
                    anchors.append(AnchorAttraction(name, cx, cy, float(c)))

    pair_bounds, anchor_bounds = _length_bounds(netlist, names, placed)

    def build(overrides=None) -> SubproblemBuilder:
        return SubproblemBuilder(window, obstacles, chip_width, config,
                                 pair_weights=pair_weights, anchors=anchors,
                                 pair_length_bounds=pair_bounds,
                                 anchor_length_bounds=anchor_bounds,
                                 flex_linearizations=overrides,
                                 base_height=base_height,
                                 outline_height=height_cap)

    builder = build()
    solution = _solve_with_retry(builder, config, eco=eco)
    placements = builder.decode(solution)
    if any(m.flexible for m in window) and config.relinearization_rounds > 0:
        builder, solution, placements = _relinearize(
            build, config, placements, solution, builder, eco=eco)
    return placements, builder, solution, polygon


def _relinearize(build, config: FloorplanConfig,
                 placements: list[Placement], solution, builder,
                 eco: tuple[int, int] | None = None):
    """Iteratively re-expand flexible height models about the realized
    widths and re-solve (tangent refinement of the eq. (6) Taylor series).

    The tangent point changes the attainable objective, so the iteration can
    oscillate; the round with the smallest *realized* window overlap (ties
    broken by objective) is kept.  Convergence = every flexible width moved
    by less than 1e-6 between rounds.
    """
    from repro.core.flexible import linearize_at

    def quality(candidate: list[Placement], objective: float):
        rects = [p.rect for p in candidate]
        overlap = sum(rects[i].overlap_area(rects[j])
                      for i in range(len(rects))
                      for j in range(i + 1, len(rects)))
        return (round(overlap, 9), objective)

    best = (builder, solution, placements)
    best_quality = quality(placements, solution.objective)

    for _round in range(config.relinearization_rounds):
        overrides = {}
        for p in placements:
            if p.module.flexible:
                overrides[p.name] = linearize_at(p.module, p.rect.w)
        if not overrides:
            break
        next_builder = build(overrides)
        try:
            next_solution = _solve_with_retry(
                next_builder, config, eco=eco,
                warm_start=_encoded_or_stacked(next_builder, placements))
        except FloorplanError:
            break  # keep the best feasible result found so far
        next_placements = next_builder.decode(next_solution)
        widths_before = {p.name: p.rect.w for p in placements
                         if p.module.flexible}
        builder, solution, placements = (next_builder, next_solution,
                                         next_placements)
        candidate_quality = quality(placements, solution.objective)
        if candidate_quality < best_quality:
            best = (builder, solution, placements)
            best_quality = candidate_quality
        moved = max(abs(widths_before[p.name] - p.rect.w)
                    for p in placements if p.module.flexible)
        if moved < 1e-6:
            break
    return best


def _encoded_or_stacked(builder: SubproblemBuilder,
                        placements: list[Placement]):
    """A warm-start provider: ``placements`` encoded into ``builder``'s
    model where they are feasible there (a small linearization shift often
    keeps them so), else the stacked start."""
    def start():
        warm = builder.encode(placements)
        return warm if warm is not None else builder.warm_start_stacked()
    return start


def _length_bounds(netlist: Netlist, group: Sequence[str],
                   placed: list[Placement]
                   ) -> tuple[list[PairLengthBound], list[AnchorLengthBound]]:
    """Critical-net length constraints relevant to this window.

    Every endpoint pair of a length-bounded net gets the bound: window-window
    pairs as :class:`PairLengthBound`, window-placed pairs as
    :class:`AnchorLengthBound` anchored at the placed module's center.
    """
    in_window = set(group)
    placed_by_name = {p.name: p for p in placed}
    pair_bounds: list[PairLengthBound] = []
    anchor_bounds: list[AnchorLengthBound] = []
    for net in netlist.nets:
        if net.max_length is None:
            continue
        endpoints = list(net.modules)
        for i in range(len(endpoints)):
            for j in range(i + 1, len(endpoints)):
                a, b = endpoints[i], endpoints[j]
                if a in in_window and b in in_window:
                    pair_bounds.append(PairLengthBound(a, b, net.max_length))
                elif a in in_window and b in placed_by_name:
                    cx, cy = placed_by_name[b].center
                    anchor_bounds.append(
                        AnchorLengthBound(a, cx, cy, net.max_length))
                elif b in in_window and a in placed_by_name:
                    cx, cy = placed_by_name[a].center
                    anchor_bounds.append(
                        AnchorLengthBound(b, cx, cy, net.max_length))
    return pair_bounds, anchor_bounds


def _cover_partial_floorplan(placed: list[Placement], chip_width: float,
                             config: FloorplanConfig,
                             skyline: Skyline | None = None
                             ) -> tuple[list[Rect], CoveringPolygon | None]:
    """Covering rectangles of the placed set (envelope rects, so reserved
    routing margins stay reserved).

    ``skyline`` is the augmentation loop's running skyline of ``placed``;
    without one (an ECO window's frozen set) it is built from ``placed``.
    """
    if not placed:
        return [], None
    env_rects = [p.envelope for p in placed]
    if skyline is None:
        polygon = CoveringPolygon.from_rects(env_rects, x_min=0.0,
                                             x_max=chip_width)
    else:
        polygon = CoveringPolygon(skyline, n_modules=len(placed))
    if not config.use_covering_rectangles:
        return env_rects, polygon
    return covering_rectangles(polygon.skyline), polygon


def _solve_with_retry(builder: SubproblemBuilder, config: FloorplanConfig,
                      warm_start=None,
                      eco: tuple[int, int] | None = None) -> Solution:
    """Solve the subproblem, retrying once with a doubled time limit.

    This is where the presolve layer, cross-step warm starts, and the
    canonical solve cache are wired in.  With ``config.warm_start``, the
    solve is offered a warm-start provider: ``warm_start`` (a zero-argument
    callable) or else :meth:`SubproblemBuilder.warm_start_stacked`, the
    window packed onto the partial floorplan's skyline.  The registry runs
    it only after the cache lookup missed, and the retry reuses its result,
    so it runs at most once per window.  Its incumbent seeds the backend's
    search and/or presolve's objective cutoff.  Symmetry groups and the
    provider are passed only when
    :func:`~repro.milp.solvers.registry.solve_inputs` says the backend's
    solve reads them (HiGHS reads no symmetry groups).  With
    ``config.solve_cache`` every solve goes through
    :mod:`repro.milp.cache`: re-linearization rounds whose window converged
    rebuild a structurally identical model, which the cache recognizes and
    serves (after re-certification) instead of re-solving.  The solve
    context records the encoding, the builder's fixed outline, and ``eco``,
    the ``(window, frozen)`` shape of a windowed ECO subform
    (:mod:`repro.core.eco`).
    """
    outline = None if builder.outline_height is None \
        else (builder.chip_width, builder.outline_height)
    presolve, reads_warm_start = solve_inputs(config.backend, config.presolve)
    extra: dict = {"presolve": presolve,
                   "context": SolveContext(formulation=config.formulation,
                                           outline=outline, eco=eco)}
    if presolve:
        extra["symmetry_groups"] = builder.symmetry_groups()
    if config.solve_cache:
        from repro.milp.cache import get_cache

        extra["cache"] = get_cache(config.cache_dir)
    if reads_warm_start and config.warm_start:
        extra["warm_start"] = functools.cache(
            warm_start or builder.warm_start_stacked)
    solution = solve(builder.model, backend=config.backend,
                     **config.solver_options(), **extra)
    if solution.status.has_solution:
        return solution
    if config.subproblem_time_limit is not None:
        solution = solve(
            builder.model, backend=config.backend,
            **config.solver_options(
                time_limit=config.subproblem_time_limit * 2),
            **extra)
        if solution.status.has_solution:
            return solution
    raise FloorplanError(
        f"subproblem with {builder.n_integer_variables} binaries is "
        f"{solution.status.value}: {solution.message or 'no solution found'}",
        status=solution.status.value)
