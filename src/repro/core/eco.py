"""Incremental ECO re-floorplanning: patch a certified plan after a small
netlist edit instead of re-deriving it from scratch.

The paper's augmentation loop always solves cold; the modern workload is
incremental — a resize, an added module, a dropped constraint arrives after
a plan is signed off (ROADMAP item 3(iii)).  :func:`solve_eco` takes the
certified baseline :class:`~repro.core.floorplanner.Floorplan` plus a
structured :class:`NetlistDelta`, computes the *disturbed window* (modules
whose placements the delta invalidates, grown by an adjacency margin),
freezes every untouched placement as covering-rectangle obstacles — the
same section-3.1 replacement the augmentation loop uses — and re-solves
only the window with the augmentation step's own window solve
(:func:`~repro.core.augmentation.solve_window`), warm-started with the
window packed onto the frozen rest's skyline.  When the windowed
subproblem is infeasible or the patched plan misses the quality bound, the
window escalates (margin doubles per level) until it covers the whole
netlist, at which point the engine falls back to a full cold re-solve.

The outcome is an :class:`EcoResult`: the patched plan, a machine-checkable
provenance record (window chosen, escalation path, solves avoided vs.
cold), and — when the config certifies — a full re-certification of the
merged plan through :func:`repro.check.eco.check_eco`.

Status contract (mirroring the fixed-outline mode's structured results):

* :data:`ECO_UNCHANGED` — the delta was a no-op; the baseline object is
  returned *unchanged* (same instance, byte-identical serialization) at
  zero solver invocations.
* :data:`ECO_PATCHED` — a patched plan was produced, by a windowed solve,
  the removal-only fast path, or the full-re-solve escalation rung.
* :data:`ECO_INFEASIBLE` — even the full re-solve found no placement
  (the carried :class:`~repro.core.augmentation.FloorplanError` status is
  recorded on the final attempt).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.augmentation import FloorplanError, module_statistics, \
    resolve_outline, solve_window
from repro.core.config import FloorplanConfig, Objective
from repro.core.floorplanner import Floorplan
from repro.geometry.rect import GEOM_EPS, Rect
from repro.netlist.module import Module
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:
    from repro.core.placement import Placement

#: The delta was a no-op: the baseline plan is returned unchanged.
ECO_UNCHANGED = "UNCHANGED"

#: A patched plan was produced (windowed, removal-only, or full re-solve).
ECO_PATCHED = "PATCHED"

#: No placement exists even under the full re-solve rung.
ECO_INFEASIBLE = "INFEASIBLE_ECO"


# ---------------------------------------------------------------------------
# the delta
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetlistDelta:
    """A structured netlist edit against a baseline.

    Attributes:
        added: new modules (names must not collide with surviving ones).
        removed: names of modules to drop; nets lose those endpoints and
            disappear entirely when fewer than two endpoints survive.
        resized: ``name -> (width, height)`` dimension changes of surviving
            modules.
        added_nets: new nets over the patched module set.  A "constraint
            changed" edit (net weight, criticality, ``max_length``) is
            expressed as the same name in :attr:`removed_nets` +
            :attr:`added_nets`.
        removed_nets: names of nets to drop.
    """

    added: tuple[Module, ...] = ()
    removed: tuple[str, ...] = ()
    resized: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    added_nets: tuple[Net, ...] = ()
    removed_nets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "added", tuple(self.added))
        object.__setattr__(self, "removed", tuple(self.removed))
        object.__setattr__(self, "added_nets", tuple(self.added_nets))
        object.__setattr__(self, "removed_nets", tuple(self.removed_nets))
        object.__setattr__(
            self, "resized",
            {name: (float(w), float(h))
             for name, (w, h) in dict(self.resized).items()})
        for name, (w, h) in self.resized.items():
            if w <= 0 or h <= 0:
                raise ValueError(
                    f"resized dimensions for {name!r} must be positive")

    @property
    def is_noop(self) -> bool:
        """True when applying the delta changes nothing."""
        return not (self.added or self.removed or self.resized
                    or self.added_nets or self.removed_nets)

    def apply(self, netlist: Netlist) -> Netlist:
        """The patched netlist.

        Raises:
            ValueError: on a dangling reference — removing or resizing a
                module that does not exist, adding one that already does,
                removing an unknown net, or adding a net whose endpoints
                are not all present after the edit.
        """
        names = set(netlist.module_names)
        unknown = [n for n in self.removed if n not in names]
        if unknown:
            raise ValueError(f"cannot remove unknown modules: {unknown}")
        removed = set(self.removed)
        unknown = [n for n in self.resized
                   if n not in names or n in removed]
        if unknown:
            raise ValueError(f"cannot resize missing modules: {unknown}")
        surviving = names - removed
        clashes = [m.name for m in self.added if m.name in surviving]
        if clashes:
            raise ValueError(f"added modules already exist: {clashes}")

        modules: list[Module] = []
        for m in netlist.modules:
            if m.name in removed:
                continue
            if m.name in self.resized:
                w, h = self.resized[m.name]
                m = replace(m, width=w, height=h)
            modules.append(m)
        modules.extend(self.added)
        patched_names = {m.name for m in modules}

        net_names = {n.name for n in netlist.nets}
        unknown = [n for n in self.removed_nets if n not in net_names]
        if unknown:
            raise ValueError(f"cannot remove unknown nets: {unknown}")
        dropped_nets = set(self.removed_nets)
        nets: list[Net] = []
        for net in netlist.nets:
            if net.name in dropped_nets:
                continue
            endpoints = tuple(m for m in net.modules if m not in removed)
            if len(endpoints) < 2:
                continue  # the edit orphaned the net
            if len(endpoints) != len(net.modules):
                net = Net(net.name, endpoints, weight=net.weight,
                          criticality=net.criticality,
                          max_length=net.max_length)
            nets.append(net)
        for net in self.added_nets:
            dangling = [m for m in net.modules if m not in patched_names]
            if dangling:
                raise ValueError(
                    f"net {net.name!r} references missing modules: {dangling}")
            nets.append(net)
        return Netlist(modules, nets, name=netlist.name)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe representation (see :mod:`repro.serialize`)."""
        from repro.serialize import delta_to_dict

        return delta_to_dict(self)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EcoAttempt:
    """One rung of the escalation ladder.

    ``kind`` is ``"removal"`` (the zero-solve fast path), ``"window"``
    (a windowed MILP at escalation ``level``), or ``"full"`` (the cold
    re-solve rung).  ``wall_seconds`` is named to match the golden
    canonicalizer's timing keys, so recorded traces stay byte-stable.
    """

    kind: str
    level: int
    window: tuple[str, ...]
    n_frozen: int
    n_obstacles: int = 0
    n_binaries: int = 0
    status: str = ""
    accepted: bool = False
    reason: str = ""
    wall_seconds: float = 0.0
    nodes: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation."""
        return {"kind": self.kind, "level": self.level,
                "window": list(self.window), "n_frozen": self.n_frozen,
                "n_obstacles": self.n_obstacles,
                "n_binaries": self.n_binaries, "status": self.status,
                "accepted": self.accepted, "reason": self.reason,
                "wall_seconds": self.wall_seconds, "nodes": self.nodes}


@dataclass
class EcoResult:
    """Outcome of :func:`solve_eco`.

    Attributes:
        status: :data:`ECO_UNCHANGED`, :data:`ECO_PATCHED`, or
            :data:`ECO_INFEASIBLE`.
        plan: the patched plan (the baseline instance itself when
            unchanged; None when infeasible).
        baseline_height: chip height of the baseline plan.
        patched_height: chip height of the patched plan (None when
            infeasible).
        window: module names the accepted solve was allowed to move
            (every patched module for the full rung, empty when unchanged
            or removal-only).
        frozen: module names whose baseline placements were kept verbatim.
        attempts: every escalation rung tried, in order.
        solver_invocations: MILP subproblems actually solved.
        cold_solve_estimate: subproblems a cold re-solve of the patched
            netlist would run (the augmentation step count).
        solves_avoided: ``cold_solve_estimate - solver_invocations`` —
            negative when escalation cost more than cold would have.
        quality_bound: the accepted-quality multiplier the windowed rungs
            were gated on (``config.eco_quality_bound``).
        certification: independent :class:`~repro.check.geometry.
            GeometryReport` from :func:`repro.check.eco.check_eco` when the
            config certifies, else None.
    """

    status: str
    plan: Floorplan | None = None
    baseline_height: float = 0.0
    patched_height: float | None = None
    window: tuple[str, ...] = ()
    frozen: tuple[str, ...] = ()
    attempts: list[EcoAttempt] = field(default_factory=list)
    solver_invocations: int = 0
    cold_solve_estimate: int = 0
    quality_bound: float = 0.0
    certification: Any = None

    @property
    def patched(self) -> bool:
        """True when a plan is available (unchanged counts as patched)."""
        return self.status in (ECO_UNCHANGED, ECO_PATCHED)

    @property
    def solves_avoided(self) -> int:
        """Subproblem solves the windowed path saved versus cold."""
        return self.cold_solve_estimate - self.solver_invocations

    def to_dict(self, *, include_plan: bool = True) -> dict[str, Any]:
        """JSON-safe representation (the service's result payload)."""
        out: dict[str, Any] = {
            "status": self.status,
            "baseline_height": self.baseline_height,
            "patched_height": self.patched_height,
            "window": list(self.window),
            "frozen": list(self.frozen),
            "attempts": [a.to_dict() for a in self.attempts],
            "solver_invocations": self.solver_invocations,
            "cold_solve_estimate": self.cold_solve_estimate,
            "solves_avoided": self.solves_avoided,
            "quality_bound": self.quality_bound,
        }
        if self.certification is not None:
            out["certification"] = self.certification.to_dict()
        if include_plan and self.plan is not None:
            from repro.serialize import floorplan_to_dict

            out["floorplan"] = floorplan_to_dict(self.plan)
        return out


# ---------------------------------------------------------------------------
# window selection
# ---------------------------------------------------------------------------

def _geometry_relevant(net: Net, config: FloorplanConfig) -> bool:
    """True when editing this net can change what placement is acceptable:
    it carries a hard length bound, or the objective prices wirelength."""
    return (net.max_length is not None
            or config.objective is Objective.AREA_WIRELENGTH)


def disturbed_modules(baseline: Floorplan, delta: NetlistDelta,
                      config: FloorplanConfig) -> set[str]:
    """Module names whose baseline placements the delta directly
    invalidates (or whose quality it directly affects).

    Additions and resizes always disturb; net edits disturb their endpoints
    only when the net is geometry-relevant (a pure-area net edit changes no
    constraint and no objective term).  Removals disturb nothing — the
    frozen plan minus the removed modules stays legal by construction.
    """
    removed = set(delta.removed)
    names: set[str] = {m.name for m in delta.added}
    names |= set(delta.resized)
    for net in delta.added_nets:
        if _geometry_relevant(net, config):
            names |= set(net.modules)
    by_name = {n.name: n for n in baseline.netlist.nets}
    for net_name in delta.removed_nets:
        net = by_name.get(net_name)
        if net is not None and _geometry_relevant(net, config):
            names |= set(net.modules)
    return names - removed


def _impact_rects(baseline: Floorplan, delta: NetlistDelta,
                  disturbed: set[str]) -> list[Rect]:
    """Regions the delta touches: the baseline envelopes of disturbed
    modules, widened to the new dimensions for resizes (a grown module
    spills past its old envelope even before it moves)."""
    rects: list[Rect] = []
    for name in disturbed:
        p = baseline.placements.get(name)
        if p is None:
            continue  # an added module has no baseline footprint
        env = p.envelope
        if name in delta.resized:
            w, h = delta.resized[name]
            env = Rect(env.x, env.y, max(env.w, w), max(env.h, h))
        rects.append(env)
    return rects


def _intersects(a: Rect, b: Rect, eps: float = GEOM_EPS) -> bool:
    """Strict interior overlap (touching edges do not count)."""
    return (a.x < b.x2 - eps and b.x < a.x2 - eps
            and a.y < b.y2 - eps and b.y < a.y2 - eps)


def eco_window(baseline: Floorplan, delta: NetlistDelta,
               config: FloorplanConfig, level: int = 0) -> set[str]:
    """The disturbed window at escalation ``level``.

    Level 0 grows the directly-disturbed set by ``config.eco_margin``:
    every surviving module whose baseline envelope intersects an impact
    region inflated by the margin joins the window.  Each escalation level
    doubles the margin, monotonically growing the window toward the full
    module set.
    """
    disturbed = disturbed_modules(baseline, delta, config)
    removed = set(delta.removed)
    grow = config.eco_margin * (2 ** level)
    inflated = [Rect(r.x - grow, r.y - grow, r.w + 2 * grow, r.h + 2 * grow)
                for r in _impact_rects(baseline, delta, disturbed)]
    window = set(disturbed)
    for name, p in baseline.placements.items():
        if name in window or name in removed:
            continue
        if any(_intersects(p.envelope, r) for r in inflated):
            window.add(name)
    return window


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _quality_floor(netlist: Netlist, config: FloorplanConfig,
                   chip_width: float) -> float:
    """The packing lower bound no plan at ``chip_width`` can beat."""
    env_area, _widest = module_statistics(netlist, config)
    return env_area / chip_width if chip_width > 0 else 0.0


def _cold_solve_estimate(n_modules: int, config: FloorplanConfig) -> int:
    """Augmentation subproblem count of a cold solve: one seed step plus
    one step per ``group_size`` remaining modules."""
    if n_modules <= 0:
        return 0
    rest = max(0, n_modules - config.seed_size)
    return 1 + -(-rest // config.group_size)


def _merged_plan(patched: Netlist, config: FloorplanConfig,
                 frozen: "dict[str, Placement]",
                 moved: "list[Placement]", chip_width: float) -> Floorplan:
    """Frozen + re-solved placements as one plan (no legalization pass —
    frozen modules must not move)."""
    placements = dict(frozen)
    placements.update({p.name: p for p in moved})
    height = max((p.envelope.y2 for p in placements.values()), default=0.0)
    return Floorplan(netlist=patched, config=config, placements=placements,
                     chip_width=chip_width, chip_height=height)


def solve_eco(baseline: Floorplan, delta: NetlistDelta,
              config: FloorplanConfig | None = None, *,
              on_step=None) -> EcoResult:
    """Incrementally re-floorplan ``baseline`` under ``delta``.

    Args:
        baseline: the certified plan the delta arrives against.
        delta: the structured netlist edit.
        config: run configuration; defaults to the baseline plan's own.
            ``eco_margin`` / ``eco_max_levels`` / ``eco_quality_bound``
            steer the window, the escalation ladder, and the accepted
            quality.
        on_step: per-step observer threaded into the full-re-solve rung
            (service progress streaming / cooperative cancellation).

    Returns:
        A structured :class:`EcoResult` — like the fixed-outline search,
        this never raises :class:`~repro.core.augmentation.FloorplanError`;
        total infeasibility is the :data:`ECO_INFEASIBLE` answer.
    """
    config = config or baseline.config
    result = EcoResult(status=ECO_PATCHED,
                       baseline_height=baseline.chip_height,
                       quality_bound=config.eco_quality_bound)

    if delta.is_noop:
        result.status = ECO_UNCHANGED
        result.plan = baseline
        result.patched_height = baseline.chip_height
        result.frozen = tuple(sorted(baseline.placements))
        return result

    patched = delta.apply(baseline.netlist)
    result.cold_solve_estimate = _cold_solve_estimate(
        len(patched.modules), config)
    chip_width = baseline.chip_width
    outline = resolve_outline(patched, config)
    outline_height = outline[1] if outline is not None else None
    floor = _quality_floor(patched, config, chip_width)
    ceiling = config.eco_quality_bound * floor
    if outline_height is not None:
        # In outline mode the die height is the binding quality contract.
        ceiling = min(ceiling, outline_height) if ceiling > 0 \
            else outline_height

    def quality_ok(height: float) -> bool:
        return height <= ceiling + GEOM_EPS

    removed = set(delta.removed)
    disturbed = disturbed_modules(baseline, delta, config)

    # Removal-only fast path: the surviving placements stay legal verbatim,
    # so a delta that only deletes needs zero solves (subject to the same
    # quality gate every windowed rung faces).
    if not disturbed:
        frozen = {name: p for name, p in baseline.placements.items()
                  if name not in removed}
        plan = _merged_plan(patched, config, frozen, [], chip_width)
        started = time.perf_counter()
        accepted = quality_ok(plan.chip_height)
        result.attempts.append(EcoAttempt(
            kind="removal", level=0, window=(),
            n_frozen=len(frozen), status="feasible",
            accepted=accepted,
            reason="removal-only delta keeps surviving placements"
            if accepted else
            f"surviving height {plan.chip_height:g} misses the quality "
            f"bound {ceiling:g}",
            wall_seconds=time.perf_counter() - started))
        if accepted:
            return _finish(result, baseline, delta, plan, config,
                           window=(), frozen=tuple(sorted(frozen)))
        return _full_resolve(result, baseline, delta, patched, config,
                             on_step)

    # Windowed rungs: margin doubles per level; identical windows are
    # skipped, a window covering everything escalates straight to full.
    all_names = set(patched.module_names)
    previous: set[str] | None = None
    for level in range(max(0, config.eco_max_levels)):
        window_names = eco_window(baseline, delta, config, level)
        if previous is not None and window_names == previous:
            continue
        previous = window_names
        if window_names >= all_names:
            break
        frozen = {name: p for name, p in baseline.placements.items()
                  if name not in window_names and name in all_names}
        order = [m.name for m in patched.modules if m.name in window_names]
        started = time.perf_counter()
        try:
            moved, builder, solution, _polygon = solve_window(
                patched, config, chip_width, order, list(frozen.values()),
                height_cap=outline_height, eco=(len(order), len(frozen)))
        except FloorplanError as exc:
            result.solver_invocations += 1
            result.attempts.append(EcoAttempt(
                kind="window", level=level,
                window=tuple(sorted(window_names)), n_frozen=len(frozen),
                status=exc.status or "infeasible", accepted=False,
                reason=str(exc),
                wall_seconds=time.perf_counter() - started))
            continue
        result.solver_invocations += 1
        plan = _merged_plan(patched, config, frozen, moved, chip_width)
        # A rung is accepted only when the *realized* merged plan is legal
        # AND meets the quality bound.  Legality is not implied by solver
        # optimality: flexible modules are placed through a tangent
        # linearization, and their realized dimensions can overlap even
        # after relinearization refinement.
        legal = plan.is_legal
        accepted = legal and quality_ok(plan.chip_height)
        if accepted:
            reason = "windowed solve met the quality bound"
        elif not legal:
            reason = ("realized window placement is illegal (flexible "
                      "dimensions drifted from their linearization)")
        else:
            reason = (f"patched height {plan.chip_height:g} exceeds the "
                      f"quality bound {ceiling:g}")
        result.attempts.append(EcoAttempt(
            kind="window", level=level, window=tuple(sorted(window_names)),
            n_frozen=len(frozen), n_obstacles=len(builder.obstacles),
            n_binaries=builder.n_integer_variables,
            status=solution.status.value, accepted=accepted,
            reason=reason,
            wall_seconds=time.perf_counter() - started,
            nodes=solution.n_nodes))
        if accepted:
            return _finish(result, baseline, delta, plan, config,
                           window=tuple(sorted(window_names)),
                           frozen=tuple(sorted(frozen)))

    return _full_resolve(result, baseline, delta, patched, config, on_step)


def _full_resolve(result: EcoResult, baseline: Floorplan,
                  delta: NetlistDelta, patched: Netlist,
                  config: FloorplanConfig, on_step) -> EcoResult:
    """The final rung: a cold solve of the patched netlist.  Always
    accepted when feasible — cold quality *defines* the reference."""
    from repro.core.floorplanner import Floorplanner

    started = time.perf_counter()
    try:
        plan = Floorplanner(patched, config, on_step=on_step).run()
    except FloorplanError as exc:
        result.attempts.append(EcoAttempt(
            kind="full", level=len(result.attempts),
            window=tuple(sorted(patched.module_names)), n_frozen=0,
            status=exc.status or "infeasible", accepted=False,
            reason=str(exc), wall_seconds=time.perf_counter() - started))
        result.solver_invocations += result.cold_solve_estimate
        result.status = ECO_INFEASIBLE
        return result
    result.solver_invocations += plan.trace.n_steps
    result.attempts.append(EcoAttempt(
        kind="full", level=len(result.attempts),
        window=tuple(sorted(patched.module_names)), n_frozen=0,
        status="feasible", accepted=True,
        reason="escalated to a cold re-solve",
        wall_seconds=time.perf_counter() - started,
        nodes=plan.trace.total_nodes))
    return _finish(result, baseline, delta, plan, config,
                   window=tuple(sorted(patched.module_names)), frozen=())


def _finish(result: EcoResult, baseline: Floorplan, delta: NetlistDelta,
            plan: Floorplan, config: FloorplanConfig, *,
            window: tuple[str, ...], frozen: tuple[str, ...]) -> EcoResult:
    """Record the accepted plan and re-certify when the config asks."""
    result.status = ECO_PATCHED
    result.plan = plan
    result.patched_height = plan.chip_height
    result.window = window
    result.frozen = frozen
    if config.certify:
        from repro.check.eco import check_eco

        result.certification = check_eco(baseline, delta, result)
    return result
