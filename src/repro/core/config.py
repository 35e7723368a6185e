"""Floorplanner configuration.

Collects every knob of the method in one dataclass: chip sizing, window
sizes of the successive augmentation, objective and ordering choices
(Series 2), envelope usage (Series 3), linearization mode for flexible
modules, the covering-rectangle ablation, and solver backend/limits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.milp.solvers.branch_and_bound import LP_ENGINES
from repro.milp.solvers.registry import available_backends
from repro.milp.telemetry import DEFAULT_FORMULATION, FORMULATIONS

if TYPE_CHECKING:
    from repro.routing.technology import Technology


def _default_technology() -> "Technology":
    """Late import to avoid a core <-> routing import cycle."""
    from repro.routing.technology import Technology

    return Technology.over_the_cell()


class Objective(str, Enum):
    """Objective functions.

    ``AREA`` and ``AREA_WIRELENGTH`` are the paper's Series-2 objectives
    (chip width fixed, height minimized — area is ``W * y``).
    ``PERIMETER`` frees the chip width too and minimizes ``W + y``: a linear
    stand-in for the section-2.2 "minimal covering rectangle" goal that lets
    the chip shrink in both dimensions (the fixed width then only acts as an
    upper bound).
    """

    AREA = "area"
    AREA_WIRELENGTH = "area+wirelength"
    PERIMETER = "perimeter"


class Ordering(str, Enum):
    """Module-ordering strategies of Series 2."""

    RANDOM = "random"
    CONNECTIVITY = "connectivity"


class Linearization(str, Enum):
    """How ``h = S / w`` is linearized for flexible modules.

    ``TANGENT`` is the paper's first-order Taylor expansion (eq. (6)); it
    underestimates the convex hyperbola, so realized shapes can overlap
    slightly and a legalization pass restores feasibility.  ``SECANT``
    overestimates, guaranteeing legality directly.
    """

    TANGENT = "tangent"
    SECANT = "secant"


@dataclass
class FloorplanConfig:
    """All parameters of a floorplanning run.

    Attributes:
        chip_width: fixed chip width ``W`` of eq. (3); None derives it from
            the total module area (see :meth:`resolved_chip_width`).
        whitespace_factor: area head-room used when deriving the chip width.
        outline: fixed die outline ``(W, H)`` — setting it switches the run
            into fixed-outline mode: every placement is constrained to the
            ``W x H`` die, the open-ended height minimization becomes an
            outline-feasibility search
            (:func:`repro.core.outline.solve_fixed_outline`), and an
            impossible outline comes back as a structured
            ``INFEASIBLE_OUTLINE`` result rather than an exception.  None
            (the default) keeps the paper's open-outline behavior.
        outline_aspect: convenience for fixed-outline mode without explicit
            dimensions: derive the outline from the total module area at
            this W/H aspect ratio (head-room from ``whitespace_target``,
            else ``whitespace_factor``).  Ignored when :attr:`outline` is
            set explicitly.
        whitespace_target: target whitespace fraction of fixed-outline mode,
            in [0, 1).  It sizes a derived outline (area head-room
            ``1 / (1 - target)``) and stops the feasibility search early
            once a placement meets the target within its used region.
        seed_size: ``m`` — modules placed by the first MILP (Figure 3 step 1).
        group_size: ``e`` — modules added per augmentation step.
        objective: chip area, or chip area + wirelength.
        wirelength_weight: weight of the wirelength term in the combined
            objective.
        ordering: how the module sequence is chosen.
        ordering_seed: RNG seed for the random ordering.
        allow_rotation: permit 90-degree rotation of rigid modules (eq. (4)).
        linearization: flexible-module linearization mode.
        relinearization_rounds: extra solve rounds per subproblem in which
            each flexible module's height model is re-expanded (tangent)
            about its previously realized width — the iterative refinement
            of the eq. (6) Taylor approximation.  0 disables.
        use_envelopes: inflate modules by pin-proportional routing margins
            (section 3.2, Series 3).
        technology: routing technology (pitches, routing style); defaults to
            :meth:`Technology.over_the_cell`.
        use_covering_rectangles: replace the placed set by covering
            rectangles before each subproblem (section 3.1).  False keeps
            every placed module as its own fixed obstacle — the ablation
            quantifying what the covering reduction buys.  The covering is
            always the Figure-4 horizontal edge-cut, reduced by the
            overlapping-partition merge.
        record_snapshots: store each augmentation step's partial floorplan
            (placements + covering rectangles) in the trace, enabling
            Figure-2-style step visualizations.
        backend: MILP solver backend (``highs`` / ``bnb`` / ``smt``).  The
            ``smt`` backend is the LP-free difference-logic solver
            (:mod:`repro.milp.solvers.smt_dl`); it covers the rigid-module
            fragment of the formulation (no flexible modules, no wirelength
            terms).
        formulation: non-overlap encoding of the eq. (2) disjunctions — one
            of :data:`~repro.milp.telemetry.FORMULATIONS`.  ``"bigm"``
            (default) is the paper's two-binary big-M encoding and
            reproduces today's golden traces byte-for-byte; ``"unary"`` is
            the stronger Huchette–Dey–Vielma-style one-hot encoding with
            tightened big-Ms and valid inequalities (same optimal
            objectives, fewer branch-and-bound nodes).
        subproblem_time_limit: per-MILP wall-clock limit in seconds.
        mip_rel_gap: per-MILP relative gap tolerance.
        int_tol: integrality tolerance of the own branch-and-bound and of
            the ``smt`` search.
        node_limit: branch-and-bound node limit; None keeps each backend's
            default.
        lp_engine: LP-relaxation engine of the own branch-and-bound
            (``"highs"`` or ``"simplex"``); None keeps bnb's default
            (highs).
        certify: independently re-certify every subproblem solution
            (MILP certificate + geometric validation, recorded on each
            :class:`~repro.core.augmentation.AugmentationStep`) and attach
            a whole-floorplan geometry report to the result.  Off by
            default; adds checker time per step.
        presolve: fix dominated relative-position binaries while building
            each subproblem and, on the backends the registry presolves
            for (bnb, simplex, smt; see
            :func:`repro.milp.solvers.registry.solve_inputs`), run the
            solver-independent presolve layer (:mod:`repro.milp.presolve`)
            — bound tightening, big-M/coefficient reduction, redundant-row
            removal, symmetry-breaking rows — before the backend sees the
            model.  HiGHS presolves every model itself, so it gets the
            unreduced model.  The optimal objective is unchanged by
            construction (the presolve-parity suite pins this down).
        warm_start: seed each subproblem with a feasible incumbent — the
            window packed onto the current floorplan's skyline
            (:meth:`~repro.core.formulation.SubproblemBuilder.warm_start_stacked`),
            or a re-linearization round's previous placements where they
            still fit.  Bounds the HiGHS, bnb and smt searches from node
            one and, where presolve runs, powers its objective-cutoff row.
            The start is built only when the solve misses the cache, and
            never for a backend that reads none.
        solve_cache: consult the canonical solve cache
            (:mod:`repro.milp.cache`) for every subproblem — re-linearization
            rounds and repeated width candidates reuse structurally identical
            solves instead of re-running the backend.  Every hit is
            re-certified against the requesting model before being served, so
            the cache can cost time but never correctness.
        cache_dir: directory of the on-disk cache tier shared across
            processes (parallel width workers) and runs.  None falls back to
            ``$REPRO_CACHE_DIR``, else ``~/.cache/repro-floorplan``.
        service_workers: worker threads of the floorplanning job service
            (:mod:`repro.service`) — each drains the priority queue and
            executes one job at a time (jobs themselves may fan out across
            processes via :mod:`repro.parallel`).
        service_queue_size: capacity of the service job queue; submissions
            beyond it are rejected with HTTP 429.
        service_default_deadline: default per-job deadline in seconds
            applied when a submission names none; None means jobs never
            expire unless they ask to.
        service_execution: how a service worker executes a job —
            ``"inline"`` runs it in the worker thread (step events and
            cooperative cancellation come straight from the augmentation
            observer), ``"process"`` isolates it in a forked child so a
            dying worker process fails or requeues the job instead of
            taking the server down.
        eco_margin: adjacency margin of the incremental-ECO window
            (:func:`repro.core.eco.solve_eco`): a frozen module joins the
            disturbed window when its envelope lies within this distance of
            a region the delta touches.  Each escalation level doubles it.
        eco_quality_bound: accepted-quality multiplier of a windowed ECO
            solve: the patched chip height must stay within this factor of
            the packing lower bound (``envelope area / chip width``), else
            the window escalates.  Because no cold solve can beat the
            lower bound, an accepted windowed plan is never worse than
            this factor times the cold height.
        eco_max_levels: windowed escalation levels tried before the ECO
            engine falls back to a full cold re-solve.
    """

    chip_width: float | None = None
    whitespace_factor: float = 1.20
    outline: tuple[float, float] | None = None
    outline_aspect: float | None = None
    whitespace_target: float | None = None
    seed_size: int = 6
    group_size: int = 4
    objective: Objective = Objective.AREA
    wirelength_weight: float = 0.01
    ordering: Ordering = Ordering.CONNECTIVITY
    ordering_seed: int = 0
    allow_rotation: bool = True
    linearization: Linearization = Linearization.SECANT
    relinearization_rounds: int = 0
    use_envelopes: bool = False
    technology: "Technology" = field(default_factory=_default_technology)
    use_covering_rectangles: bool = True
    record_snapshots: bool = False
    backend: str = "highs"
    formulation: str = DEFAULT_FORMULATION
    subproblem_time_limit: float | None = 30.0
    mip_rel_gap: float = 1e-4
    int_tol: float = 1e-6
    node_limit: int | None = None
    lp_engine: str | None = None
    certify: bool = False
    presolve: bool = True
    warm_start: bool = True
    solve_cache: bool = True
    cache_dir: str | None = None
    service_workers: int = 2
    service_queue_size: int = 256
    service_default_deadline: float | None = None
    service_execution: str = "inline"
    eco_margin: float = 1.0
    eco_quality_bound: float = 1.5
    eco_max_levels: int = 2

    def __post_init__(self) -> None:
        # NaN passes every range check below, and a service request can
        # carry NaN or Infinity (``json.loads`` parses both).
        for name in ("chip_width", "whitespace_factor", "outline_aspect",
                     "wirelength_weight", "eco_margin", "eco_quality_bound",
                     "subproblem_time_limit", "mip_rel_gap", "int_tol"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # A fractional count passes the range checks and fails later, in
        # a slice or range() of the run.
        for name in ("seed_size", "group_size", "relinearization_rounds",
                     "node_limit", "eco_max_levels"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or
                                      not isinstance(value, numbers.Integral)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.seed_size < 1:
            raise ValueError("seed_size must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.whitespace_factor < 1.0:
            raise ValueError("whitespace_factor must be >= 1.0")
        if self.chip_width is not None and self.chip_width <= 0:
            raise ValueError("chip_width must be positive")
        if self.outline is not None:
            # Service requests arrive as JSON, where the pair is a list.
            outline = tuple(float(v) for v in self.outline)
            if len(outline) != 2:
                raise ValueError("outline must be a (width, height) pair")
            if not all(math.isfinite(v) for v in outline):
                raise ValueError(f"outline must be finite, got {outline!r}")
            if outline[0] <= 0 or outline[1] <= 0:
                raise ValueError("outline dimensions must be positive")
            self.outline = outline
            if self.chip_width is not None and \
                    abs(self.chip_width - outline[0]) > 1e-9:
                raise ValueError(
                    f"chip_width {self.chip_width} conflicts with the fixed "
                    f"outline width {outline[0]}; set only one of them")
        if self.outline_aspect is not None and self.outline_aspect <= 0:
            raise ValueError("outline_aspect must be positive")
        if self.whitespace_target is not None and not (
                0.0 <= self.whitespace_target < 1.0):
            raise ValueError("whitespace_target must be in [0, 1)")
        if self.wirelength_weight < 0:
            raise ValueError("wirelength_weight must be >= 0")
        if self.relinearization_rounds < 0:
            raise ValueError("relinearization_rounds must be >= 0")
        if self.int_tol <= 0:
            raise ValueError("int_tol must be positive")
        if self.mip_rel_gap < 0:
            raise ValueError("mip_rel_gap must be >= 0")
        if self.subproblem_time_limit is not None \
                and self.subproblem_time_limit <= 0:
            raise ValueError("subproblem_time_limit must be positive")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")
        if self.service_workers < 1:
            raise ValueError("service_workers must be >= 1")
        if self.service_queue_size < 1:
            raise ValueError("service_queue_size must be >= 1")
        if self.service_default_deadline is not None \
                and self.service_default_deadline <= 0:
            raise ValueError("service_default_deadline must be positive")
        if self.service_execution not in ("inline", "process"):
            raise ValueError(
                "service_execution must be 'inline' or 'process'")
        if self.eco_margin < 0:
            raise ValueError("eco_margin must be >= 0")
        if self.eco_quality_bound < 1.0:
            raise ValueError("eco_quality_bound must be >= 1.0")
        if self.eco_max_levels < 0:
            raise ValueError("eco_max_levels must be >= 0")
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"formulation must be one of {FORMULATIONS}, "
                f"got {self.formulation!r}")
        # The LP-only simplex backend cannot solve the windows' MILPs.
        backends = tuple(b for b in available_backends() if b != "simplex")
        if self.backend not in backends:
            raise ValueError(
                f"backend must be one of {backends}, got {self.backend!r}")
        if self.lp_engine is not None and self.lp_engine not in LP_ENGINES:
            raise ValueError(
                f"lp_engine must be None or one of {LP_ENGINES}, "
                f"got {self.lp_engine!r}")
        self.objective = Objective(self.objective)
        self.ordering = Ordering(self.ordering)
        self.linearization = Linearization(self.linearization)

    def solver_options(self, *, time_limit: float | None = None) -> dict:
        """Keyword options for :func:`repro.milp.solvers.registry.solve`,
        restricted to what :attr:`backend` accepts.

        Args:
            time_limit: overrides :attr:`subproblem_time_limit` (used by the
                doubled-limit retry).
        """
        options: dict = {
            "time_limit": self.subproblem_time_limit
            if time_limit is None else time_limit,
            "mip_rel_gap": self.mip_rel_gap,
        }
        if self.node_limit is not None:
            options["node_limit"] = self.node_limit
        if self.backend in ("bnb", "smt"):
            options["int_tol"] = self.int_tol
        if self.backend == "bnb" and self.lp_engine is not None:
            options["lp_engine"] = self.lp_engine
        return options

    @property
    def outline_mode(self) -> bool:
        """True when this run is a fixed-outline run (an explicit outline,
        or enough convenience knobs to derive one)."""
        return (self.outline is not None or self.outline_aspect is not None
                or self.whitespace_target is not None)

    def _outline_headroom(self) -> float:
        """Area head-room of a derived outline: the whitespace target when
        given (``area / (1 - target)`` fills to exactly the target), else
        the open-outline whitespace factor."""
        if self.whitespace_target is not None:
            return 1.0 / (1.0 - self.whitespace_target)
        return self.whitespace_factor

    def resolved_outline(self, total_module_area: float,
                         widest_module: float = 0.0
                         ) -> tuple[float, float] | None:
        """The fixed die ``(W, H)`` of this run, or None in open-outline
        mode.

        An explicit :attr:`outline` is returned as-is.  Otherwise the
        outline is derived from the total module area: ``W * H = area *
        headroom`` at the :attr:`outline_aspect` (default 1) ratio, widened
        to the widest module when needed (the height shrinks to keep the
        area).
        """
        if self.outline is not None:
            return self.outline
        if not self.outline_mode:
            return None
        area = total_module_area * self._outline_headroom()
        aspect = self.outline_aspect if self.outline_aspect is not None \
            else 1.0
        width = max(math.sqrt(area * aspect), widest_module)
        return (width, area / width)

    def resolved_chip_width(self, total_module_area: float,
                            widest_module: float = 0.0) -> float:
        """The fixed chip width ``W``.

        When :attr:`chip_width` is None, ``W = sqrt(area * headroom)`` — a
        square chip with whitespace head-room — and at least as wide as the
        widest module.  A fixed outline pins the width to the die's.
        """
        if self.outline is not None:
            return self.outline[0]
        if self.chip_width is not None:
            return self.chip_width
        if self.outline_mode:
            return self.resolved_outline(total_module_area,
                                         widest_module)[0]
        width = math.sqrt(total_module_area * self.whitespace_factor)
        return max(width, widest_module)
