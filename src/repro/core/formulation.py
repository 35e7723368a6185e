"""The mixed-integer programming formulation (section 2).

:class:`SubproblemBuilder` assembles one augmentation subproblem: place a
*window* of unpositioned modules above/beside a set of *fixed obstacles*
(the covering rectangles of the partial floorplan) inside a chip of fixed
width ``W``, minimizing the chip height ``y`` — optionally plus a linearized
wirelength term.

Constraint systems implemented:

* eq. (2): pairwise non-overlap.  Two interchangeable encodings are
  registered (:data:`repro.milp.telemetry.FORMULATIONS`, selected by
  ``config.formulation``):

  - ``"bigm"`` — the paper's encoding: two binaries ``(p_ij, q_ij)`` per
    pair and four big-M inequalities, exactly one active per binary
    combination;
  - ``"unary"`` — the Huchette–Dey–Vielma-style unary encoding: four
    one-hot direction indicators per pair (``left/right/below/above``)
    with per-direction tightened big-Ms plus valid inequalities
    (indicator-scaled position lower bounds and chip-packing cuts) that
    strengthen the LP relaxation without changing the feasible geometry;

* eq. (4)-(5): optional 90-degree rotation of rigid modules via a binary
  ``z_i`` interpolating the effective width/height;
* eq. (6)-(8): flexible modules via the linearized height model of
  :mod:`repro.core.flexible` and one continuous ``dw_i`` each;
* eq. (3): chip bounds ``0 <= x_i``, ``x_i + w_i <= W``, ``y >= y_i + h_i``;
* fixed-obstacle non-overlap (the covering rectangles enter as constants, so
  fixed-fixed pairs need no variables at all — the dimensionality reduction
  of section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.config import FloorplanConfig, Objective
from repro.core.envelopes import margins_for
from repro.core.flexible import FlexLinearization, linearize
from repro.core.placement import EnvelopeMargins, Placement
from repro.geometry.rect import GEOM_EPS, Rect
from repro.milp.expr import LinExpr, Variable, lin_sum
from repro.milp.model import Model
from repro.milp.solution import Solution
from repro.netlist.module import Module


#: Windows of up to this many modules try every module order in the
#: skyline warm start (24 orders at 4 modules).
_ALL_ORDERS_UP_TO = 4


@dataclass
class _WindowModule:
    """Per-window-module variables and effective-dimension expressions."""

    module: Module
    margins: EnvelopeMargins
    x: Variable
    y: Variable
    width: LinExpr
    height: LinExpr
    max_width: float
    max_height: float
    min_width: float = 0.0
    min_height: float = 0.0
    rotation: Variable | None = None
    dw: Variable | None = None
    flex: FlexLinearization | None = None


@dataclass(frozen=True)
class AnchorAttraction:
    """A wirelength pull from a window module toward a fixed point (the
    generalized position of an already-placed module)."""

    window_module: str
    cx: float
    cy: float
    weight: float


@dataclass(frozen=True)
class PairLengthBound:
    """A hard Manhattan-distance bound between two window modules' centers —
    the paper's "additional constraints on the length of critical nets"."""

    a: str
    b: str
    max_length: float


@dataclass(frozen=True)
class AnchorLengthBound:
    """A hard Manhattan-distance bound between a window module's center and
    a fixed point (an already-placed endpoint of a critical net)."""

    module: str
    cx: float
    cy: float
    max_length: float


class SubproblemBuilder:
    """Build and decode one augmentation MILP."""

    def __init__(self, window: Sequence[Module], obstacles: Sequence[Rect],
                 chip_width: float, config: FloorplanConfig, *,
                 pair_weights: Mapping[tuple[str, str], float] | None = None,
                 anchors: Sequence[AnchorAttraction] = (),
                 pair_length_bounds: Sequence[PairLengthBound] = (),
                 anchor_length_bounds: Sequence[AnchorLengthBound] = (),
                 flex_linearizations: Mapping[str, FlexLinearization] | None = None,
                 base_height: float = 0.0,
                 prune_floor_obstacles: bool = True,
                 outline_height: float | None = None) -> None:
        """
        Args:
            window: the unpositioned modules of this step.
            obstacles: fixed covering rectangles of the partial floorplan.
            chip_width: the fixed chip width ``W`` of eq. (3).
            config: floorplanner configuration (rotation, linearization,
                envelopes, objective, weights).
            pair_weights: ``c_ij`` common-net counts between window modules
                (keys are sorted name pairs); used by the wirelength term.
            anchors: wirelength pulls toward already-placed modules.
            pair_length_bounds: hard length bounds between window modules
                (critical-net constraints).
            anchor_length_bounds: hard length bounds toward fixed points.
            flex_linearizations: per-module overrides of the flexible height
                model (used by the re-linearization loop to expand about the
                previous solution's width instead of the config default).
            base_height: current height of the partial floorplan; the chip
                height variable is bounded below by it.
            prune_floor_obstacles: add the valid cut excluding the useless
                "window module below a floor-level obstacle" branch.
            outline_height: fixed-outline height cap ``H``.  Caps the chip
                height variable (and with it the conservative vertical
                big-M, so both encodings tighten automatically) — every
                placement must fit the ``chip_width x H`` die.  A cap the
                partial floorplan already exceeds makes the model provably
                infeasible.  None keeps the open-outline bound.
        """
        if not window:
            raise ValueError("subproblem needs at least one window module")
        self.config = config
        self.chip_width = chip_width
        self.obstacles = list(obstacles)
        self.model = Model("floorplan_subproblem")
        self._flex_overrides = dict(flex_linearizations or {})
        self._window: dict[str, _WindowModule] = {}
        self._pair_binaries: dict[tuple[str, str], tuple[Variable, Variable]] = {}
        self._obstacle_binaries: dict[tuple[str, int], tuple[Variable, Variable]] = {}
        # Unary-encoding one-hot direction indicators, ordered
        # (left, right, below, above); empty under the big-M encoding.
        self._pair_unary: dict[tuple[str, str],
                               tuple[Variable, Variable, Variable, Variable]] = {}
        self._obstacle_unary: dict[tuple[str, int],
                                   tuple[Variable, Variable, Variable, Variable]] = {}
        self._wirelength_expr: LinExpr = LinExpr()
        # |a - b| linearization triples (aux_var, expr_a, expr_b): the aux
        # variable is >= both signed differences, so encode() can complete a
        # geometric assignment with the tight value |a - b|.
        self._abs_pairs: list[tuple[Variable, LinExpr, LinExpr]] = []
        # Fixing dominated relative-position binaries preserves the feasible
        # set exactly, but is still part of the presolve layer so that
        # presolve=off benchmarks exercise the paper's raw formulation.
        self._prune_dominated = bool(config.presolve)
        # Modules pulled by wirelength or pinned by length bounds are not
        # interchangeable with lookalikes: keep them out of symmetry groups.
        self._distinguished: set[str] = set()
        for a, b in (pair_weights or {}):
            self._distinguished.update((a, b))
        self._distinguished.update(a.window_module for a in anchors)
        for bound in pair_length_bounds:
            self._distinguished.update((bound.a, bound.b))
        self._distinguished.update(b.module for b in anchor_length_bounds)

        # Conservative vertical big-M: everything could stack on the current
        # floorplan (whose top is the taller of base_height and the
        # obstacles' tops).  A fixed-outline height cap tightens the bound
        # — and with it every big-M derived from it — in both encodings.
        floor_top = max([base_height] + [o.y2 for o in self.obstacles])
        self.outline_height = outline_height
        self._height_bound = floor_top + sum(
            self._max_height_of(m) for m in window) + 1.0
        if outline_height is not None:
            self._height_bound = min(self._height_bound,
                                     max(outline_height, floor_top))
        self._width_big_m = chip_width
        self._height_big_m = self._height_bound

        # The chip is at least as tall as the partial floorplan it extends.
        self.height_var = self.model.add_continuous(
            "chip_height", lb=floor_top, ub=self._height_bound)
        if outline_height is not None and outline_height < floor_top - GEOM_EPS:
            # The partial floorplan already pokes past the die: force a
            # provable INFEASIBLE through a row (variable lb > ub behavior
            # is backend-dependent, a contradictory row is not).
            self.model.add_constraint(
                self.height_var.to_expr() <= outline_height,
                name="outline:cap")
        # PERIMETER mode: the chip width is a variable too (bounded above by
        # the configured width, below by what the obstacles already use).
        self.width_var: Variable | None = None
        if config.objective is Objective.PERIMETER:
            used = max((o.x2 for o in self.obstacles), default=0.0)
            # Earlier solves carry ~1e-7 feasibility noise, so an obstacle
            # can poke past the configured width; never let lb exceed ub.
            self.width_var = self.model.add_continuous(
                "chip_width", lb=used, ub=max(chip_width, used))
        # The widest the chip can possibly be (PERIMETER mode lets the width
        # float up to its bound) — dominance pruning reasons against this.
        self._chip_width_cap = (self.width_var.ub
                                if self.width_var is not None else chip_width)

        for module in window:
            self._add_window_module(module)
        self._add_pairwise_non_overlap()
        self._add_obstacle_non_overlap(prune_floor_obstacles)
        self._add_chip_bounds()
        if config.objective is Objective.AREA_WIRELENGTH:
            self._add_wirelength(pair_weights or {}, anchors)
        self._add_length_bounds(pair_length_bounds, anchor_length_bounds)
        self._set_objective()

    # -- model construction --------------------------------------------------------

    def _max_height_of(self, module: Module) -> float:
        margins = margins_for(module, self.config.technology,
                              self.config.use_envelopes)
        base = module.max_extent() if (module.flexible or
                                       (self.config.allow_rotation and module.rotatable)) \
            else module.height
        return base + max(margins.vertical, margins.horizontal)

    def _add_window_module(self, module: Module) -> None:
        if module.name in self._window:
            raise ValueError(f"duplicate window module {module.name}")
        margins = margins_for(module, self.config.technology,
                              self.config.use_envelopes)
        x = self.model.add_continuous(f"x[{module.name}]", lb=0.0,
                                      ub=self.chip_width)
        y = self.model.add_continuous(f"y[{module.name}]", lb=0.0,
                                      ub=self._height_bound)
        rotation: Variable | None = None
        dw: Variable | None = None
        flex: FlexLinearization | None = None

        if module.flexible:
            flex = self._flex_overrides.get(
                module.name, linearize(module, self.config.linearization))
            dw = self.model.add_continuous(f"dw[{module.name}]", lb=0.0,
                                           ub=flex.dw_max)
            width = LinExpr({dw: -1.0}, flex.w_max + margins.horizontal)
            height = LinExpr({dw: flex.slope}, flex.h0 + margins.vertical)
            max_width = flex.w_max + margins.horizontal
            max_height = max(flex.height_linear(flex.dw_max),
                             flex.height_exact(flex.dw_max)) + margins.vertical
            min_width = flex.w_min + margins.horizontal
            min_height = min(flex.h0,
                             flex.height_linear(flex.dw_max)) + margins.vertical
        elif self.config.allow_rotation and module.rotatable \
                and abs(module.width - module.height) > GEOM_EPS:
            rotation = self.model.add_binary(f"z[{module.name}]")
            w_env = module.width + margins.horizontal
            h_env = module.height + margins.vertical
            # Rotating the envelope swaps its dimensions (margins rotate with
            # the module): width = (1-z) w_env + z h_env_rot where the rotated
            # envelope's width is module.height + rotated horizontal margins.
            rot_margins = margins.rotated()
            w_rot = module.height + rot_margins.horizontal
            h_rot = module.width + rot_margins.vertical
            width = LinExpr({rotation: w_rot - w_env}, w_env)
            height = LinExpr({rotation: h_rot - h_env}, h_env)
            max_width = max(w_env, w_rot)
            max_height = max(h_env, h_rot)
            min_width = min(w_env, w_rot)
            min_height = min(h_env, h_rot)
        else:
            width = LinExpr({}, module.width + margins.horizontal)
            height = LinExpr({}, module.height + margins.vertical)
            max_width = module.width + margins.horizontal
            max_height = module.height + margins.vertical
            min_width = max_width
            min_height = max_height

        self._window[module.name] = _WindowModule(
            module=module, margins=margins, x=x, y=y, width=width,
            height=height, max_width=max_width, max_height=max_height,
            min_width=min_width, min_height=min_height,
            rotation=rotation, dw=dw, flex=flex)

    @staticmethod
    def _affine1(expr: LinExpr) -> tuple[Variable | None, float, float]:
        """Split a width/height expression (at most one variable term) into
        ``(var, coefficient, constant)``."""
        if not expr.terms:
            return None, 0.0, expr.constant
        (var, coef), = expr.terms.items()
        return var, coef, expr.constant

    def _non_overlap_rows(self, tag: str, wi: _WindowModule,
                          p: Variable, q: Variable, *,
                          wj: _WindowModule | None = None,
                          obs: Rect | None = None) -> None:
        """The four eq. (2) big-M disjunction rows as one ``add_rows`` block.

        Covers both the pair case (``wj``: left/right/below/above between
        two window modules) and the obstacle case (``obs``: the second
        rectangle is constant, so its geometry moves into the right-hand
        sides).  Coefficients and right-hand sides reproduce the LinExpr
        algebra bit-for-bit — the assembly parity tests compare the two
        paths on whole golden subproblems.
        """
        mw, mh = self._width_big_m, self._height_big_m
        wvar_i, wc_i, w0_i = self._affine1(wi.width)
        hvar_i, hc_i, h0_i = self._affine1(wi.height)
        rows: list[dict[Variable, float]] = []
        rhs: list[float] = []
        senses: list[str] = []

        def row(terms: list[tuple[Variable | None, float]], b: float,
                sense: str = "<=") -> None:
            rows.append({var: coef for var, coef in terms if var is not None})
            rhs.append(b)
            senses.append(sense)

        if wj is not None:
            wvar_j, wc_j, w0_j = self._affine1(wj.width)
            hvar_j, hc_j, h0_j = self._affine1(wj.height)
            row([(wi.x, 1.0), (wvar_i, wc_i), (wj.x, -1.0),
                 (p, -mw), (q, -mw)], -w0_i)
            row([(wj.x, 1.0), (wvar_j, wc_j), (wi.x, -1.0),
                 (p, mw), (q, -mw)], mw - w0_j)
            row([(wi.y, 1.0), (hvar_i, hc_i), (wj.y, -1.0),
                 (p, -mh), (q, mh)], mh - h0_i)
            row([(wj.y, 1.0), (hvar_j, hc_j), (wi.y, -1.0),
                 (p, mh), (q, mh)], 2.0 * mh - h0_j)
        else:
            assert obs is not None
            # The "constant <= expr" rows arrive through the reflected
            # comparison in the scalar algebra, i.e. as >= rows with the
            # window module's variables on the positive side — keep that
            # exact orientation so the two build paths stay byte-identical.
            row([(wi.x, 1.0), (wvar_i, wc_i), (p, -mw), (q, -mw)],
                obs.x - w0_i)
            row([(wi.x, 1.0), (p, -mw), (q, mw)], obs.x2 - mw, ">=")
            row([(wi.y, 1.0), (hvar_i, hc_i), (p, -mh), (q, mh)],
                mh + obs.y - h0_i)
            row([(wi.y, 1.0), (p, -mh), (q, -mh)], obs.y2 - 2.0 * mh, ">=")

        self.model.add_rows(
            rows, senses, rhs,
            [f"no[{tag}]:left", f"no[{tag}]:right",
             f"no[{tag}]:below", f"no[{tag}]:above"])

    def _unary_binaries(self, tag: str
                        ) -> tuple[Variable, Variable, Variable, Variable]:
        """The four one-hot direction indicators of the unary encoding."""
        return (self.model.add_binary(f"left[{tag}]"),
                self.model.add_binary(f"right[{tag}]"),
                self.model.add_binary(f"below[{tag}]"),
                self.model.add_binary(f"above[{tag}]"))

    def _unary_rows(self, tag: str, specs: list[tuple[
            list[tuple[Variable | None, float]], float, str]],
            names: list[str]) -> None:
        """Emit one block of unary-encoding rows (the same ``add_rows``
        path as the big-M block builder)."""
        rows = [{var: coef for var, coef in terms
                 if var is not None and coef != 0.0}
                for terms, _b, _sense in specs]
        self.model.add_rows(rows, [sense for _t, _b, sense in specs],
                            [b for _t, b, _sense in specs], names)

    def _unary_pair_rows(self, tag: str, wi: _WindowModule, wj: _WindowModule,
                         z: tuple[Variable, Variable, Variable, Variable]
                         ) -> None:
        """The unary encoding of one window-module pair.

        One-hot choice over the four separating directions, each direction's
        big-M row deactivated by its own indicator, plus the
        Huchette–Dey–Vielma-style valid inequalities: indicator-scaled
        position lower bounds (``x_j >= min_w_i * left``) and chip-packing
        cuts that pull the chip-extent variables up in the LP relaxation
        (``y_i + h_i + min_h_j * below <= y``).  All inequalities reason
        over *minimum* effective dimensions, so they hold for every
        rotation / flexible-width choice.
        """
        zl, zr, zb, za = z
        mw, mh = self._width_big_m, self._height_big_m
        wvar_i, wc_i, w0_i = self._affine1(wi.width)
        hvar_i, hc_i, h0_i = self._affine1(wi.height)
        wvar_j, wc_j, w0_j = self._affine1(wj.width)
        hvar_j, hc_j, h0_j = self._affine1(wj.height)
        wv = self.width_var
        cap = self._chip_width_cap
        specs: list[tuple[list[tuple[Variable | None, float]], float, str]] = [
            ([(zl, 1.0), (zr, 1.0), (zb, 1.0), (za, 1.0)], 1.0, "=="),
            ([(wi.x, 1.0), (wvar_i, wc_i), (wj.x, -1.0), (zl, mw)],
             mw - w0_i, "<="),
            ([(wj.x, 1.0), (wvar_j, wc_j), (wi.x, -1.0), (zr, mw)],
             mw - w0_j, "<="),
            ([(wi.y, 1.0), (hvar_i, hc_i), (wj.y, -1.0), (zb, mh)],
             mh - h0_i, "<="),
            ([(wj.y, 1.0), (hvar_j, hc_j), (wi.y, -1.0), (za, mh)],
             mh - h0_j, "<="),
        ]
        names = [f"no[{tag}]:onehot", f"no[{tag}]:left", f"no[{tag}]:right",
                 f"no[{tag}]:below", f"no[{tag}]:above"]
        self._unary_rows(tag, specs, names)

        cuts: list[tuple[list[tuple[Variable | None, float]], float, str]] = []
        cut_names: list[str] = []
        for dir_name, zv, other, min_dim in (
                ("left", zl, wj.x, wi.min_width),
                ("right", zr, wi.x, wj.min_width),
                ("below", zb, wj.y, wi.min_height),
                ("above", za, wi.y, wj.min_height)):
            if min_dim > GEOM_EPS:
                cuts.append(([(other, 1.0), (zv, -min_dim)], 0.0, ">="))
                cut_names.append(f"vi[{tag}]:{dir_name}")
        # Chip-packing cuts: when the pair separates along an axis, both
        # extents stack inside the chip along it.
        for dir_name, zv, wm, other_min in (("left", zl, wi, wj.min_width),
                                            ("right", zr, wj, wi.min_width)):
            wvar, wc, w0 = self._affine1(wm.width)
            terms: list[tuple[Variable | None, float]] = [
                (wm.x, 1.0), (wvar, wc), (zv, other_min)]
            if wv is not None:
                terms.append((wv, -1.0))
                cuts.append((terms, -w0, "<="))
            else:
                cuts.append((terms, cap - w0, "<="))
            cut_names.append(f"vi[{tag}]:packw-{dir_name}")
        for dir_name, zv, wm, other_min in (("below", zb, wi, wj.min_height),
                                            ("above", za, wj, wi.min_height)):
            hvar, hc, h0 = self._affine1(wm.height)
            cuts.append(([(wm.y, 1.0), (hvar, hc), (zv, other_min),
                          (self.height_var, -1.0)], -h0, "<="))
            cut_names.append(f"vi[{tag}]:packh-{dir_name}")
        if cuts:
            self._unary_rows(tag, cuts, cut_names)

    def _unary_obstacle_rows(self, tag: str, wm: _WindowModule, obs: Rect,
                             z: tuple[Variable, Variable, Variable, Variable]
                             ) -> None:
        """The unary encoding of one module-vs-fixed-obstacle disjunction.

        The obstacle's geometry is constant, so every direction gets the
        *tightest* valid big-M: the ``right``/``above`` rows collapse to the
        indicator-scaled bounds ``x >= obs.x2 * right`` / ``y >= obs.y2 *
        above`` (their big-M equals the obstacle edge itself), and the
        ``left``/``below`` rows are slack only by the remaining chip extent
        beyond the obstacle — all strictly tighter than the global big-Ms of
        the ``"bigm"`` encoding.
        """
        zl, zr, zb, za = z
        wvar, wc, w0 = self._affine1(wm.width)
        hvar, hc, h0 = self._affine1(wm.height)
        ml = max(self._chip_width_cap - obs.x, 0.0)
        mb = max(self._height_bound - obs.y, 0.0)
        specs: list[tuple[list[tuple[Variable | None, float]], float, str]] = [
            ([(zl, 1.0), (zr, 1.0), (zb, 1.0), (za, 1.0)], 1.0, "=="),
            ([(wm.x, 1.0), (wvar, wc), (zl, ml)], obs.x + ml - w0, "<="),
            ([(wm.x, 1.0), (zr, -obs.x2)], 0.0, ">="),
            ([(wm.y, 1.0), (hvar, hc), (zb, mb)], obs.y + mb - h0, "<="),
            ([(wm.y, 1.0), (za, -obs.y2)], 0.0, ">="),
        ]
        names = [f"no[{tag}]:onehot", f"no[{tag}]:left", f"no[{tag}]:right",
                 f"no[{tag}]:below", f"no[{tag}]:above"]
        self._unary_rows(tag, specs, names)

    def _add_pairwise_non_overlap(self) -> None:
        unary = self.config.formulation == "unary"
        names = list(self._window)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                wi = self._window[names[a]]
                wj = self._window[names[b]]
                pair = (wi.module.name, wj.module.name)
                tag = f"{wi.module.name}|{wj.module.name}"
                side_by_side_dead = self._prune_dominated and \
                    wi.min_width + wj.min_width > self._chip_width_cap + GEOM_EPS
                if unary:
                    z = self._unary_binaries(f"{pair[0]},{pair[1]}")
                    self._pair_unary[pair] = z
                    self._unary_pair_rows(tag, wi, wj, z)
                    if side_by_side_dead:
                        # Both horizontal one-hot branches are dead: fixing
                        # their indicators to 0 preserves the feasible set
                        # exactly and lets presolve drop the columns.
                        z[0].ub = 0.0
                        z[1].ub = 0.0
                    continue
                p = self.model.add_binary(f"p[{wi.module.name},{wj.module.name}]")
                q = self.model.add_binary(f"q[{wi.module.name},{wj.module.name}]")
                self._pair_binaries[pair] = (p, q)
                self._non_overlap_rows(tag, wi, p, q, wj=wj)
                if side_by_side_dead:
                    # The pair cannot sit side by side inside the chip even
                    # at minimum widths: both horizontal disjuncts are dead,
                    # so every feasible point has q = 1 (vertical
                    # separation).  Fixing the bound preserves the feasible
                    # set exactly and lets presolve drop the column.
                    q.lb = 1.0

    def _add_obstacle_non_overlap(self, prune_floor: bool) -> None:
        unary = self.config.formulation == "unary"
        for name, wm in self._window.items():
            for k, obs in enumerate(self.obstacles):
                tag = f"{name}|obs{k}"
                # Dominated relative-position branches: a branch whose
                # geometry cannot be realized for any module shape is cut or
                # (when a whole axis dies) fixed.  All three tests reason
                # over *minimum* effective dimensions, so they hold for
                # every rotation / flexible-width choice.
                left_dead = self._prune_dominated \
                    and wm.min_width > obs.x + GEOM_EPS
                right_dead = self._prune_dominated \
                    and obs.x2 + wm.min_width > self._chip_width_cap + GEOM_EPS
                below_dead = (prune_floor and obs.y <= GEOM_EPS) or (
                    self._prune_dominated
                    and wm.min_height > obs.y + GEOM_EPS)
                if unary:
                    z = self._unary_binaries(f"{name},obs{k}")
                    self._obstacle_unary[(name, k)] = z
                    self._unary_obstacle_rows(tag, wm, obs, z)
                    # Dead one-hot branches fix their indicators directly —
                    # no cut rows needed in the unary encoding.
                    if left_dead:
                        z[0].ub = 0.0
                    if right_dead:
                        z[1].ub = 0.0
                    if below_dead:
                        z[2].ub = 0.0
                    if left_dead and right_dead and below_dead:
                        z[3].lb = 1.0  # only "module above obstacle" remains
                    continue
                p = self.model.add_binary(f"p[{name},obs{k}]")
                q = self.model.add_binary(f"q[{name},obs{k}]")
                self._obstacle_binaries[(name, k)] = (p, q)
                self._non_overlap_rows(tag, wm, p, q, obs=obs)
                if left_dead and right_dead:
                    # No horizontal branch fits: vertical separation forced.
                    q.lb = 1.0
                    if below_dead:
                        p.lb = 1.0  # only "module above obstacle" remains
                else:
                    if left_dead:
                        # Exclude (p, q) = (0, 0).
                        self.model.add_constraint(
                            p + q >= 1, name=f"cut[{tag}]:noleft")
                    if right_dead:
                        # Exclude (p, q) = (1, 0) with the valid cut p <= q.
                        self.model.add_constraint(
                            p.to_expr() <= q, name=f"cut[{tag}]:noright")
                if below_dead and not (left_dead and right_dead):
                    # A module can never fit below this obstacle (a
                    # floor-level one, or one whose clearance is smaller
                    # than the module's minimum height); exclude
                    # (p, q) = (0, 1) with the valid cut q <= p.
                    self.model.add_constraint(
                        q.to_expr() <= p, name=f"cut[{tag}]:floor")

    def _add_chip_bounds(self) -> None:
        for name, wm in self._window.items():
            wvar, wc, w0 = self._affine1(wm.width)
            hvar, hc, h0 = self._affine1(wm.height)
            chipw: dict[Variable, float] = {wm.x: 1.0}
            if wvar is not None:
                chipw[wvar] = wc
            if self.width_var is not None:
                chipw[self.width_var] = -1.0
                chipw_rhs = -w0
            else:
                chipw_rhs = self.chip_width - w0
            chiph: dict[Variable, float] = {wm.y: 1.0, self.height_var: -1.0}
            if hvar is not None:
                chiph[hvar] = chiph.get(hvar, 0.0) + hc
            self.model.add_rows(
                [chipw, chiph], "<=", [chipw_rhs, -h0],
                [f"chipw[{name}]", f"chiph[{name}]"])

    def _add_wirelength(self, pair_weights: Mapping[tuple[str, str], float],
                        anchors: Sequence[AnchorAttraction]) -> None:
        terms: list[LinExpr] = []
        for (a, b), weight in sorted(pair_weights.items()):
            if weight <= 0 or a not in self._window or b not in self._window:
                continue
            wa, wb = self._window[a], self._window[b]
            dx = self.model.add_continuous(f"dx[{a},{b}]", lb=0.0)
            dy = self.model.add_continuous(f"dy[{a},{b}]", lb=0.0)
            ca_x = wa.x + wa.width * 0.5
            cb_x = wb.x + wb.width * 0.5
            ca_y = wa.y + wa.height * 0.5
            cb_y = wb.y + wb.height * 0.5
            self.model.add_constraint(dx >= ca_x - cb_x, name=f"wl[{a},{b}]:dx+")
            self.model.add_constraint(dx >= cb_x - ca_x, name=f"wl[{a},{b}]:dx-")
            self.model.add_constraint(dy >= ca_y - cb_y, name=f"wl[{a},{b}]:dy+")
            self.model.add_constraint(dy >= cb_y - ca_y, name=f"wl[{a},{b}]:dy-")
            self._abs_pairs.append((dx, ca_x, cb_x))
            self._abs_pairs.append((dy, ca_y, cb_y))
            terms.append(weight * (dx + dy))
        for i, anchor in enumerate(anchors):
            if anchor.weight <= 0 or anchor.window_module not in self._window:
                continue
            wm = self._window[anchor.window_module]
            dx = self.model.add_continuous(f"adx[{i}]", lb=0.0)
            dy = self.model.add_continuous(f"ady[{i}]", lb=0.0)
            cx = wm.x + wm.width * 0.5
            cy = wm.y + wm.height * 0.5
            self.model.add_constraint(dx >= cx - anchor.cx, name=f"awl[{i}]:dx+")
            self.model.add_constraint(dx >= anchor.cx - cx, name=f"awl[{i}]:dx-")
            self.model.add_constraint(dy >= cy - anchor.cy, name=f"awl[{i}]:dy+")
            self.model.add_constraint(dy >= anchor.cy - cy, name=f"awl[{i}]:dy-")
            self._abs_pairs.append((dx, cx, LinExpr({}, anchor.cx)))
            self._abs_pairs.append((dy, cy, LinExpr({}, anchor.cy)))
            terms.append(anchor.weight * (dx + dy))
        self._wirelength_expr = lin_sum(terms)

    def _add_length_bounds(self, pair_bounds: Sequence[PairLengthBound],
                           anchor_bounds: Sequence[AnchorLengthBound]) -> None:
        """Critical-net length constraints: center-to-center Manhattan
        distance capped by the net's ``max_length``.

        The |dx| and |dy| linearizations are one-sided bounds, so capping
        their sum caps the true distance (the aux variables cannot cheat
        downward: each is >= both signed differences).
        """
        for k, bound in enumerate(pair_bounds):
            if bound.a not in self._window or bound.b not in self._window:
                continue
            wa, wb = self._window[bound.a], self._window[bound.b]
            dx = self.model.add_continuous(f"ldx[{k}]", lb=0.0)
            dy = self.model.add_continuous(f"ldy[{k}]", lb=0.0)
            ca_x = wa.x + wa.width * 0.5
            cb_x = wb.x + wb.width * 0.5
            ca_y = wa.y + wa.height * 0.5
            cb_y = wb.y + wb.height * 0.5
            tag = f"{bound.a},{bound.b}"
            self.model.add_constraint(dx >= ca_x - cb_x, name=f"len[{tag}]:dx+")
            self.model.add_constraint(dx >= cb_x - ca_x, name=f"len[{tag}]:dx-")
            self.model.add_constraint(dy >= ca_y - cb_y, name=f"len[{tag}]:dy+")
            self.model.add_constraint(dy >= cb_y - ca_y, name=f"len[{tag}]:dy-")
            self._abs_pairs.append((dx, ca_x, cb_x))
            self._abs_pairs.append((dy, ca_y, cb_y))
            self.model.add_constraint(dx + dy <= bound.max_length,
                                      name=f"len[{tag}]:cap")
        for k, bound in enumerate(anchor_bounds):
            if bound.module not in self._window:
                continue
            wm = self._window[bound.module]
            dx = self.model.add_continuous(f"aldx[{k}]", lb=0.0)
            dy = self.model.add_continuous(f"aldy[{k}]", lb=0.0)
            cx = wm.x + wm.width * 0.5
            cy = wm.y + wm.height * 0.5
            tag = f"{bound.module}@{k}"
            self.model.add_constraint(dx >= cx - bound.cx, name=f"len[{tag}]:dx+")
            self.model.add_constraint(dx >= bound.cx - cx, name=f"len[{tag}]:dx-")
            self.model.add_constraint(dy >= cy - bound.cy, name=f"len[{tag}]:dy+")
            self.model.add_constraint(dy >= bound.cy - cy, name=f"len[{tag}]:dy-")
            self._abs_pairs.append((dx, cx, LinExpr({}, bound.cx)))
            self._abs_pairs.append((dy, cy, LinExpr({}, bound.cy)))
            self.model.add_constraint(dx + dy <= bound.max_length,
                                      name=f"len[{tag}]:cap")

    def _set_objective(self) -> None:
        if self.config.objective is Objective.PERIMETER:
            assert self.width_var is not None
            self.model.set_objective(self.width_var + self.height_var)
            return
        area_term = self.chip_width * self.height_var
        if self.config.objective is Objective.AREA_WIRELENGTH:
            self.model.set_objective(
                area_term + self.config.wirelength_weight * self._wirelength_expr)
        else:
            self.model.set_objective(area_term)

    # -- statistics -------------------------------------------------------------------

    @property
    def n_integer_variables(self) -> int:
        """Binary count of this subproblem — the quantity successive
        augmentation keeps near-constant."""
        return self.model.n_integer_variables

    # -- symmetry ----------------------------------------------------------------------

    def _symmetry_name_groups(self) -> tuple[tuple[str, ...], ...]:
        """Window-module names grouped by interchangeable shape.

        Two modules are interchangeable when swapping their whole variable
        bundles maps feasible points to feasible points with the same
        objective: identical dimension expressions and margins, and no
        module-specific objective pull or length bound.  Wirelength mode
        distinguishes every module through its nets, so it gets no groups.
        """
        if self.config.objective is Objective.AREA_WIRELENGTH:
            return ()
        groups: dict[tuple, list[str]] = {}
        for name, wm in self._window.items():
            if name in self._distinguished:
                continue
            if wm.flex is not None:
                shape: tuple = ("flex", round(wm.flex.area, 9),
                                round(wm.flex.w_max, 9),
                                round(wm.flex.w_min, 9),
                                round(wm.flex.h0, 9),
                                round(wm.flex.slope, 9))
            else:
                shape = ("rigid", round(wm.width.constant, 9),
                         round(wm.height.constant, 9),
                         wm.rotation is not None,
                         round(wm.max_width, 9), round(wm.max_height, 9))
            key = shape + (round(wm.margins.left, 9),
                           round(wm.margins.right, 9),
                           round(wm.margins.bottom, 9),
                           round(wm.margins.top, 9))
            groups.setdefault(key, []).append(name)
        return tuple(tuple(g) for g in groups.values() if len(g) > 1)

    def symmetry_groups(self) -> tuple[tuple[Variable, ...], ...]:
        """x-variable groups of interchangeable window modules, for
        presolve's symmetry-breaking ``x_a <= x_b`` ordering rows."""
        return tuple(tuple(self._window[n].x for n in group)
                     for group in self._symmetry_name_groups())

    # -- warm starts -------------------------------------------------------------------

    def warm_start_stacked(self) -> dict[Variable, float] | None:
        """A feasible incumbent: the window packed onto the partial
        floorplan's skyline.

        Module by module, each drops onto the skyline (the obstacles' upper
        contour over the chip width) where its top rests lowest, then its
        y, then its x, and raises the skyline.  It tries its default shape
        (``dw = 0``) and, where it may rotate, its rotated one, with its
        left or right side on each skyline breakpoint.  Windows of up to
        :data:`_ALL_ORDERS_UP_TO` modules try every order; larger ones the
        given order, height-descending and area-descending.  The window
        shelf-stacked above the floorplan in default shapes is one more
        candidate.  Candidates are ranked by the model's objective at their
        geometry (then the lower top, then the lower summed module tops),
        and the first that :meth:`_assignment_from` validates wins: it
        keeps the fixed outline, the length bounds and every other row.
        Slots inside a symmetry group are handed out in x-order, so the
        start also satisfies presolve's ordering rows.  Returns None when
        no candidate fits the chip width, the outline or a length bound.
        """
        cap = self._chip_width_cap
        shapes: dict[str, list[tuple[float, float, float]]] = {}
        for name, wm in self._window.items():
            w, h = wm.width.constant, wm.height.constant
            options = [(w, h, 0.0)]
            if wm.rotation is not None:
                options.append((w + sum(wm.width.terms.values()),
                                h + sum(wm.height.terms.values()), 1.0))
            shapes[name] = [s for s in options if s[0] <= cap + GEOM_EPS]
        names = list(self._window)
        if not all(shapes.values()):
            orders: Sequence[Sequence[str]] = []
        elif len(names) <= _ALL_ORDERS_UP_TO:
            orders = list(itertools.permutations(names))
        else:
            first = {name: options[0] for name, options in shapes.items()}
            orders = [names, sorted(names, key=lambda n: -first[n][1]),
                      sorted(names, key=lambda n: -first[n][0] * first[n][1])]
        layouts = _drop_orders(orders, shapes, self._floor(cap), cap)
        shelf = self._shelf_layout(cap)
        if shelf is not None:
            layouts.append(shelf)
        ranked = []
        for k, layout in enumerate(layouts):
            tops = [y + h for _x, y, _w, h, _r in layout.values()]
            values, _dims = self._geometry(_entries(layout))
            ranked.append((self.model.objective.value(values), max(tops),
                           sum(tops), k))
        groups = self._symmetry_name_groups()
        for *_score, k in sorted(ranked):
            layout = layouts[k]
            # Members of a group are interchangeable: hand the group's
            # slots out sorted by position, in member order.
            for group in groups:
                for name, slot in zip(group,
                                      sorted(layout[n] for n in group)):
                    layout[name] = slot
            values = self._assignment_from(_entries(layout))
            if values is not None:
                return values
        return None

    def _floor(self, cap: float) -> tuple[list[float], list[float]]:
        """The obstacles' upper contour over ``[0, cap]``: ``k + 1``
        breakpoints and ``k`` run heights (0 where no obstacle stands)."""
        cuts = sorted({0.0, cap, *(min(max(v, 0.0), cap)
                                   for o in self.obstacles
                                   for v in (o.x, o.x2))})
        xs, hs = [0.0], []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            top = max((o.y2 for o in self.obstacles if o.x < mid < o.x2),
                      default=0.0)
            if hs and hs[-1] == top:
                xs[-1] = hi
            else:
                xs.append(hi)
                hs.append(top)
        return xs, hs

    def _shelf_layout(self, cap: float
                      ) -> dict[str, tuple[float, float, float, float,
                                           float]] | None:
        """The window shelf-stacked above the floorplan in default shapes;
        None when some module is wider than the chip."""
        layout = {}
        x_cursor = 0.0
        shelf_y = float(self.height_var.lb)
        shelf_h = 0.0
        for name, wm in self._window.items():
            w, h = wm.width.constant, wm.height.constant
            if w > cap + GEOM_EPS:
                return None
            if x_cursor + w > cap + GEOM_EPS:
                x_cursor = 0.0
                shelf_y += shelf_h
                shelf_h = 0.0
            layout[name] = (x_cursor, shelf_y, w, h, 0.0)
            x_cursor += w
            shelf_h = max(shelf_h, h)
        return layout

    def encode(self, placements: Sequence[Placement], *,
               tol: float = 1e-6) -> dict[Variable, float] | None:
        """Map placements back to a full model assignment (decode's inverse).

        Used to warm-start re-linearization rounds with the previous
        round's geometry.  Returns None when the placements do not cover
        the window exactly or are not representable/feasible in this model
        (e.g. a changed flexible linearization shifted a modeled height).
        """
        by_name = {p.module.name: p for p in placements}
        if set(by_name) != set(self._window):
            return None
        entries: dict[str, tuple[float, float, float, float]] = {}
        for name, wm in self._window.items():
            placement = by_name[name]
            if placement.rotated and wm.rotation is None:
                return None
            rot = 1.0 if placement.rotated else 0.0
            dw = 0.0
            if wm.flex is not None:
                # envelope.w = (w_max - dw) + horizontal margins
                dw = wm.flex.w_max + wm.margins.horizontal - placement.envelope.w
                dw = min(max(dw, 0.0), wm.flex.dw_max)
            entries[name] = (placement.envelope.x, placement.envelope.y,
                             rot, dw)
        return self._assignment_from(entries, tol=tol)

    def _assignment_from(
            self, entries: Mapping[str, tuple[float, float, float, float]],
            *, tol: float = 1e-6) -> dict[Variable, float] | None:
        """Complete per-module (x, y, rotation, dw) geometry into a full,
        validated model assignment — or None when it is not feasible.

        Completion order: the continuous variables (:meth:`_geometry`),
        then one relative-position binary pair per module pair / obstacle
        (the first geometric separation consistent with the binaries'
        bounds).  The result is checked against every variable bound and
        every model row, because a claimed-feasible warm start that is not
        actually feasible would poison the branch-and-bound incumbent.
        """
        if any(name not in entries
               or (entries[name][2] and wm.rotation is None)
               for name, wm in self._window.items()):
            return None
        values, dims = self._geometry(entries)
        for (a, b), (p, q) in self._pair_binaries.items():
            combo = self._choose_separation(dims[a], dims[b], p, q, tol)
            if combo is None:
                return None
            values[p], values[q] = combo
        for (name, k), (p, q) in self._obstacle_binaries.items():
            obs = self.obstacles[k]
            combo = self._choose_separation(
                dims[name], (obs.x, obs.y, obs.w, obs.h), p, q, tol)
            if combo is None:
                return None
            values[p], values[q] = combo
        for (a, b), z in self._pair_unary.items():
            onehot = self._choose_direction(dims[a], dims[b], z, tol)
            if onehot is None:
                return None
            values.update(zip(z, onehot))
        for (name, k), z in self._obstacle_unary.items():
            obs = self.obstacles[k]
            onehot = self._choose_direction(
                dims[name], (obs.x, obs.y, obs.w, obs.h), z, tol)
            if onehot is None:
                return None
            values.update(zip(z, onehot))

        if len(values) != len(self.model.variables):
            return None
        bound_tol = max(tol, 1e-6)
        for var, val in values.items():
            if val < var.lb - bound_tol or val > var.ub + bound_tol:
                return None
            values[var] = min(max(val, var.lb), var.ub)
        if self.model.check_assignment(values, tol=bound_tol):
            return None
        return values

    def _geometry(self, entries: Mapping[str, tuple[float, float, float,
                                                    float]]
                  ) -> tuple[dict[Variable, float],
                             dict[str, tuple[float, float, float, float]]]:
        """The continuous part of :meth:`_assignment_from`: positions and
        shape variables, the chip extent variables as tight as the geometry
        allows, and the |a - b| auxiliaries at their tight values; with
        each module's ``(x, y, w, h)``.  Enough to evaluate the objective;
        nothing is checked."""
        values: dict[Variable, float] = {}
        dims: dict[str, tuple[float, float, float, float]] = {}
        for name, wm in self._window.items():
            x, y, rot, dw = entries[name]
            values[wm.x] = float(x)
            values[wm.y] = float(y)
            if wm.rotation is not None:
                values[wm.rotation] = float(rot)
            if wm.dw is not None:
                values[wm.dw] = float(dw)
            dims[name] = (float(x), float(y), wm.width.value(values),
                          wm.height.value(values))
        top = max(y + h for (_x, y, _w, h) in dims.values())
        values[self.height_var] = max(float(self.height_var.lb), top)
        if self.width_var is not None:
            right = max(x + w for (x, _y, w, _h) in dims.values())
            values[self.width_var] = max(float(self.width_var.lb), right)
        for aux, ea, eb in self._abs_pairs:
            values[aux] = abs(ea.value(values) - eb.value(values))
        return values, dims

    @staticmethod
    def _choose_separation(da: tuple[float, float, float, float],
                           db: tuple[float, float, float, float],
                           p: Variable, q: Variable,
                           tol: float) -> tuple[float, float] | None:
        """The (p, q) values of the first geometric separation of two
        rectangles that is consistent with the binaries' bounds (dominance
        pruning may have fixed one of them); None when they overlap."""
        ax, ay, aw, ah = da
        bx, by, bw, bh = db
        # "a above b" first: it is the one branch dominance cuts never
        # exclude, so diagonal separations stay clear of the cut rows.
        candidates: list[tuple[float, float]] = []
        if by + bh <= ay + tol:
            candidates.append((1.0, 1.0))  # a above b
        if ay + ah <= by + tol:
            candidates.append((0.0, 1.0))  # a below b
        if ax + aw <= bx + tol:
            candidates.append((0.0, 0.0))  # a left of b
        if bx + bw <= ax + tol:
            candidates.append((1.0, 0.0))  # a right of b
        for p_val, q_val in candidates:
            if p.lb <= p_val <= p.ub and q.lb <= q_val <= q.ub:
                return p_val, q_val
        return None

    @staticmethod
    def _choose_direction(da: tuple[float, float, float, float],
                          db: tuple[float, float, float, float],
                          z: tuple[Variable, Variable, Variable, Variable],
                          tol: float
                          ) -> tuple[float, float, float, float] | None:
        """The one-hot (left, right, below, above) values of the first
        geometric separation consistent with the indicators' bounds
        (dominance pruning may have fixed some of them); None when the
        rectangles overlap."""
        ax, ay, aw, ah = da
        bx, by, bw, bh = db
        # Same preference order as _choose_separation: "a above b" is the
        # branch dominance pruning never kills.
        candidates: list[int] = []
        if by + bh <= ay + tol:
            candidates.append(3)  # a above b
        if ay + ah <= by + tol:
            candidates.append(2)  # a below b
        if ax + aw <= bx + tol:
            candidates.append(0)  # a left of b
        if bx + bw <= ax + tol:
            candidates.append(1)  # a right of b
        for idx in candidates:
            if z[idx].ub >= 0.5 and all(
                    z[j].lb <= 0.5 for j in range(4) if j != idx):
                return tuple(1.0 if j == idx else 0.0 for j in range(4))
        return None

    # -- decoding ----------------------------------------------------------------------

    def decode(self, solution: Solution) -> list[Placement]:
        """Extract placements from a solved model.

        Flexible modules get their *exact* height ``S / w`` (the linearized
        height only lives inside the model); with the secant linearization
        the exact shape is never taller than the modeled one, so legality is
        preserved.
        """
        if not solution.status.has_solution:
            raise ValueError(f"cannot decode a {solution.status.value} solution")
        placements: list[Placement] = []
        for name, wm in self._window.items():
            x = solution[wm.x]
            y = solution[wm.y]
            rotated = bool(wm.rotation is not None and solution.rounded(wm.rotation) == 1)
            margins = wm.margins.rotated() if rotated else wm.margins

            if wm.flex is not None and wm.dw is not None:
                dw = min(max(solution[wm.dw], 0.0), wm.flex.dw_max)
                width = wm.flex.width(dw)
                height = wm.flex.height_exact(dw)
            elif rotated:
                width, height = wm.module.height, wm.module.width
            else:
                width, height = wm.module.width, wm.module.height

            envelope = Rect(x, y, width + margins.horizontal,
                            height + margins.vertical)
            rect = Rect(x + margins.left, y + margins.bottom, width, height)
            placements.append(Placement(module=wm.module, rect=rect,
                                        rotated=rotated, envelope=envelope))
        return placements


def _entries(layout: Mapping[str, tuple[float, float, float, float, float]]
             ) -> dict[str, tuple[float, float, float, float]]:
    """The ``(x, y, rotation, dw)`` entries of an ``(x, y, w, h,
    rotation)`` layout in default shapes (``dw = 0``)."""
    return {name: (x, y, rot, 0.0)
            for name, (x, y, _w, _h, rot) in layout.items()}


def _drop_orders(orders: Sequence[Sequence[str]],
                 shapes: Mapping[str, list[tuple[float, float, float]]],
                 floor: tuple[list[float], list[float]], cap: float
                 ) -> list[dict[str, tuple[float, float, float, float,
                                           float]]]:
    """For each order, its modules dropped one by one onto the skyline
    ``floor`` (:func:`_drop`): ``(x, y, w, h, rotation)`` per module, in
    placement order.  Orders that share a prefix share its drops."""
    placed: dict[tuple, tuple[dict, tuple[list[float], list[float]]]] = {
        (): ({}, floor)}
    for order in orders:
        for k in range(len(order)):
            prefix = tuple(order[:k + 1])
            if prefix not in placed:
                layout, (xs, hs) = placed[prefix[:-1]]
                x, y, w, h, rot = _drop(xs, hs, shapes[order[k]], cap)
                placed[prefix] = ({**layout, order[k]: (x, y, w, h, rot)},
                                  _raised(xs, hs, x, x + w, y + h))
    return [placed[tuple(order)][0] for order in orders]


def _drop(xs: list[float], hs: list[float],
          shapes: list[tuple[float, float, float]], cap: float
          ) -> tuple[float, float, float, float, float]:
    """Where one module rests on the skyline ``(xs, hs)``: among its
    ``(w, h, rotation)`` shapes and the x positions that put its left or
    right side on a breakpoint, the one whose top is lowest, then the
    lowest y, then the smallest x.  Returns ``(x, y, w, h, rotation)``."""
    best: tuple | None = None
    best_top = float("inf")
    for w, h, rot in shapes:
        for i in range(len(hs)):
            if hs[i] + h > best_top:
                continue
            for x in (xs[i], xs[i + 1] - w):
                if x < -GEOM_EPS or x + w > cap + GEOM_EPS:
                    continue
                if x < 0.0:
                    x = 0.0
                elif x > cap - w:
                    x = cap - w
                # Run i lies under the module; scan outwards from it.
                y = hs[i]
                j, right = i + 1, x + w - GEOM_EPS
                while j < len(hs) and xs[j] < right:
                    if hs[j] > y:
                        y = hs[j]
                    j += 1
                j, left = i - 1, x + GEOM_EPS
                while j >= 0 and xs[j + 1] > left:
                    if hs[j] > y:
                        y = hs[j]
                    j -= 1
                if best is None or (y + h, y, x) < best[0]:
                    best = ((y + h, y, x), x, y, w, h, rot)
                    best_top = y + h
    assert best is not None  # x = 0 fits every shape kept
    return best[1:]


def _raised(xs: list[float], hs: list[float], x0: float, x1: float,
            top: float) -> tuple[list[float], list[float]]:
    """The skyline ``(xs, hs)`` with ``[x0, x1]`` raised to ``top``."""
    runs = [(min(b, x0), h) for a, b, h in zip(xs, xs[1:], hs) if a < x0]
    runs.append((x1, top))
    runs += [(b, h) for b, h in zip(xs[1:], hs) if b > x1]
    return [xs[0]] + [b for b, _h in runs], [h for _b, h in runs]
