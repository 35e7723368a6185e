"""Cross-step warm-start suite.

The augmentation loop seeds each step with the new window packed onto the
skyline of the partial floorplan — after the covering-rectangle
replacement, so the incumbent must be feasible against the *covered*
obstacles, not the original modules.  These tests pin down that the
incumbent really is feasible (a poisoned incumbent would silently corrupt
the backend's pruning) and never worse than the old shelf layout, that
geometry encodes back into a full model assignment, that warm starts plus
presolve never cost branch-and-bound nodes on the reference instance, that
HiGHS keeps each step's optimum with and without the start, and that the
start is built only when a solve misses the cache.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import augmentation
from repro.core.config import FloorplanConfig, Objective
from repro.core.floorplanner import Floorplanner
from repro.core.formulation import (
    AnchorAttraction,
    AnchorLengthBound,
    PairLengthBound,
    SubproblemBuilder,
)
from repro.geometry.rect import Rect
from repro.milp.solution import SolveStatus
from repro.milp.solvers import scipy_backend
from repro.milp.solvers.branch_and_bound import _validated_warm_start
from repro.milp.solvers.registry import solve, solve_inputs
from repro.netlist.generators import random_netlist
from repro.netlist.mcnc import apte_like, hp_like
from repro.netlist.module import Module
from repro.routing.technology import Technology

#: Relative objective tolerance between two optimal solves of one step.
OBJ_TOL = 1e-6

#: The tests of HiGHS reading a start need bindings that take one.
needs_highs_start = pytest.mark.skipif(
    not scipy_backend.reads_start(),
    reason="this SciPy's HiGHS bindings take no start")


def objectives_match(a: float, b: float) -> bool:
    return abs(a - b) <= OBJ_TOL * max(1.0, abs(a), abs(b))


def _config(**overrides) -> FloorplanConfig:
    base = dict(use_envelopes=False, record_snapshots=False,
                seed_size=4, group_size=2, backend="bnb",
                subproblem_time_limit=30.0)
    base.update(overrides)
    return FloorplanConfig(**base)


def _step_builder(netlist, config, group, placed) -> SubproblemBuilder:
    """A step builder exactly the way the augmentation loop makes one:
    placed modules replaced by covering rectangles, floor at their top."""
    window = [netlist.module(name) for name in group]
    chip_width = augmentation._resolve_chip_width(netlist, config)
    obstacles, _ = augmentation._cover_partial_floorplan(
        placed, chip_width, config)
    base_height = max((p.envelope.y2 for p in placed), default=0.0)
    return SubproblemBuilder(window, obstacles, chip_width, config,
                             base_height=base_height)


class TestCrossStepIncumbent:
    def test_stacked_incumbent_feasible_after_covering_replacement(self):
        netlist = random_netlist(6, seed=3)
        config = _config()
        names = [m.name for m in netlist.modules]

        step0 = _step_builder(netlist, config, names[:4], [])
        sol0 = solve(step0.model, backend="highs", presolve=True,
                     symmetry_groups=step0.symmetry_groups())
        assert sol0.status is SolveStatus.OPTIMAL
        placed = step0.decode(sol0)

        step1 = _step_builder(netlist, config, names[4:6], placed)
        warm = step1.warm_start_stacked()
        assert warm is not None
        # Feasible against every model row and bound...
        assert not step1.model.check_assignment(warm, tol=1e-6)
        # ...and accepted verbatim by the branch-and-bound's validator.
        assert _validated_warm_start(
            step1.model.to_standard_form(), warm, 1e-6) is not None

    def test_incumbent_bounds_the_solve_from_above(self):
        netlist = random_netlist(6, seed=3)
        config = _config()
        names = [m.name for m in netlist.modules]
        step0 = _step_builder(netlist, config, names[:4], [])
        placed = step0.decode(solve(step0.model, backend="highs"))
        step1 = _step_builder(netlist, config, names[4:6], placed)
        warm = step1.warm_start_stacked()
        warm_objective = step1.model.objective.value(warm)
        sol = solve(step1.model, backend="bnb", presolve=True,
                    warm_start=warm,
                    symmetry_groups=step1.symmetry_groups())
        assert sol.status is SolveStatus.OPTIMAL
        # minimize-sense subproblem: the optimum can only improve on the
        # stacked start that seeded it
        assert sol.objective <= warm_objective + 1e-6


class TestEncode:
    def test_decoded_placements_encode_back(self):
        config = _config()
        window = [Module.rigid("a", 3.0, 2.0, rotatable=True),
                  Module.rigid("b", 2.0, 2.0, rotatable=True)]
        builder = SubproblemBuilder(window, [Rect(0.0, 0.0, 4.0, 1.0)],
                                    12.0, config)
        sol = solve(builder.model, backend="highs")
        assert sol.status is SolveStatus.OPTIMAL
        placements = builder.decode(sol)

        fresh = SubproblemBuilder(window, [Rect(0.0, 0.0, 4.0, 1.0)],
                                  12.0, config)
        encoded = fresh.encode(placements)
        assert encoded is not None
        assert not fresh.model.check_assignment(encoded, tol=1e-6)
        # the encoded point realizes the same chip height
        assert abs(fresh.model.objective.value(encoded)
                   - sol.objective) <= 1e-6 * max(1.0, abs(sol.objective))

    def test_encode_rejects_foreign_placements(self):
        config = _config()
        window = [Module.rigid("a", 3.0, 2.0)]
        builder = SubproblemBuilder(window, [], 12.0, config)
        other = SubproblemBuilder([Module.rigid("z", 1.0, 1.0)], [], 12.0,
                                  config)
        sol = solve(other.model, backend="highs")
        assert builder.encode(other.decode(sol)) is None


class TestValidatedWarmStart:
    def test_rejects_incomplete_and_infeasible_points(self):
        config = _config()
        window = [Module.rigid("a", 3.0, 2.0), Module.rigid("b", 2.0, 2.0)]
        builder = SubproblemBuilder(window, [], 12.0, config)
        form = builder.model.to_standard_form()
        warm = builder.warm_start_stacked()
        assert warm is not None
        assert _validated_warm_start(form, warm, 1e-6) is not None

        incomplete = dict(warm)
        incomplete.pop(next(iter(incomplete)))
        assert _validated_warm_start(form, incomplete, 1e-6) is None

        overlapped = dict(warm)
        # slam both modules to the origin: violates non-overlap rows
        for name in ("a", "b"):
            overlapped[builder._window[name].x] = 0.0
            overlapped[builder._window[name].y] = 0.0
        assert _validated_warm_start(form, overlapped, 1e-6) is None


class TestNodeReduction:
    def test_warm_presolve_never_costs_nodes_on_reference_instance(
            self, monkeypatch):
        """End-to-end acceptance shape: the full augmentation run with
        presolve + warm starts explores no more bnb nodes than cold, each
        of its steps keeps the optimum of a cold solve of that step, and
        its chip is no taller than the cold run's.

        A warm start that is itself an optimal vertex is kept, and equally
        optimal vertices may steer the greedy augmentation apart, so the
        two chips need not be equal: on this instance the skyline start's
        first window leads to a lower chip (58.23 against 58.64)."""
        netlist = random_netlist(8, seed=0)
        kwargs = dict(seed_size=4, group_size=2, backend="bnb",
                      use_envelopes=False, record_snapshots=False,
                      subproblem_time_limit=60.0)
        cold = augmentation.run_augmentation(
            netlist, FloorplanConfig(presolve=False, warm_start=False,
                                     **kwargs))
        solve_step = augmentation._solve_with_retry
        pairs = []

        def checked(builder, config, **step_kwargs):
            solution = solve_step(builder, config, **step_kwargs)
            pairs.append((solution, solve(builder.model, backend="bnb",
                                          **config.solver_options())))
            return solution

        monkeypatch.setattr(augmentation, "_solve_with_retry", checked)
        warm = augmentation.run_augmentation(
            netlist, FloorplanConfig(presolve=True, warm_start=True,
                                     **kwargs))
        # The acceptance bar: tightened big-Ms + seeded incumbents must cut
        # at least a quarter of the cold-start search tree (measured ~75%
        # on this instance; 25% leaves headroom for platform jitter).
        assert warm.trace.total_nodes <= 0.75 * cold.trace.total_nodes, \
            (warm.trace.total_nodes, cold.trace.total_nodes)
        assert len(pairs) == len(warm.trace.steps) >= 2
        for step, (solution, raw) in enumerate(pairs):
            assert solution.status is raw.status is SolveStatus.OPTIMAL, \
                (step, solution.status, raw.status)
            assert objectives_match(solution.objective, raw.objective), \
                (step, solution.objective, raw.objective)
        assert warm.chip_height <= cold.chip_height + 1e-6, \
            (warm.chip_height, cold.chip_height)

    def test_bnb_simplex_accepts_warm_start(self):
        config = _config(backend="bnb", lp_engine="simplex")
        window = [Module.rigid("a", 3.0, 2.0, rotatable=True),
                  Module.rigid("b", 2.0, 2.0, rotatable=True)]
        builder = SubproblemBuilder(window, [], 12.0, config)
        warm = builder.warm_start_stacked()
        sol = solve(builder.model, backend="bnb", presolve=True,
                    warm_start=warm,
                    symmetry_groups=builder.symmetry_groups(),
                    **config.solver_options())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.backend == "bnb[simplex]"


# ---------------------------------------------------------------------------
# the skyline start
# ---------------------------------------------------------------------------

#: Module sides drawn from a short list, so lookalikes (symmetry groups)
#: turn up often.
SIDES = (1.0, 2.0, 2.5, 4.0, 7.0)


@st.composite
def start_builders(draw) -> tuple[SubproblemBuilder, bool]:
    """A step builder over a random window, partial-floorplan skyline, chip
    width and configuration, and whether it carries a fixed outline or a
    length bound (the only reasons besides the chip width for a start to
    be missing)."""
    n = draw(st.integers(1, 5))
    window = []
    for k in range(n):
        if draw(st.integers(0, 4)) == 0:
            window.append(Module.flexible_area(
                f"f{k}", draw(st.sampled_from((4.0, 6.0, 12.0)))))
        else:
            window.append(Module.rigid(
                f"m{k}", draw(st.sampled_from(SIDES)),
                draw(st.sampled_from(SIDES)), rotatable=draw(st.booleans())))
    chip_width = draw(st.sampled_from((5.0, 8.0, 12.5, 20.0)))
    cuts = sorted(draw(st.sets(st.sampled_from(
        [chip_width * k / 8 for k in range(1, 8)]), max_size=5)))
    edges = [0.0, *cuts, chip_width]
    obstacles = []
    for lo, hi in zip(edges, edges[1:]):
        height = draw(st.sampled_from((0.0, 1.0, 3.0, 4.5, 8.0)))
        if height:
            obstacles.append(Rect(lo, 0.0, hi - lo, height))
    base_height = max((o.y2 for o in obstacles), default=0.0)
    objective = draw(st.sampled_from(list(Objective)))
    config = FloorplanConfig(use_envelopes=False, objective=objective,
                             allow_rotation=draw(st.booleans()),
                             presolve=draw(st.booleans()))
    names = [m.name for m in window]
    pair_weights, anchors = {}, []
    if objective is Objective.AREA_WIRELENGTH:
        for a in range(n):
            for b in range(a + 1, n):
                if draw(st.booleans()):
                    pair_weights[tuple(sorted((names[a], names[b])))] = 1.0
        if draw(st.booleans()):
            anchors.append(AnchorAttraction(names[0], chip_width / 2,
                                            base_height, 2.0))
    pair_bounds, anchor_bounds = [], []
    if n >= 2 and draw(st.integers(0, 3)) == 0:
        pair_bounds.append(PairLengthBound(
            names[0], names[1], draw(st.sampled_from((3.0, 8.0, 30.0)))))
    if draw(st.integers(0, 3)) == 0:
        anchor_bounds.append(AnchorLengthBound(
            names[-1], 0.0, base_height,
            draw(st.sampled_from((5.0, 15.0, 40.0)))))
    outline_height = None
    if draw(st.integers(0, 3)) == 0:
        outline_height = base_height + draw(st.sampled_from((2.0, 6.0, 20.0)))
    builder = SubproblemBuilder(
        window, obstacles, chip_width, config, pair_weights=pair_weights,
        anchors=anchors, pair_length_bounds=pair_bounds,
        anchor_length_bounds=anchor_bounds, base_height=base_height,
        outline_height=outline_height)
    bounded = bool(pair_bounds or anchor_bounds) or outline_height is not None
    return builder, bounded


def _start_widths(builder: SubproblemBuilder, name: str) -> list[float]:
    """The widths of the shapes the start tries for one window module."""
    wm = builder._window[name]
    widths = [wm.width.constant]
    if wm.rotation is not None:
        widths.append(wm.width.constant + sum(wm.width.terms.values()))
    return widths


class TestSkylineStart:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(start_builders())
    def test_feasible_canonical_and_never_worse_than_the_shelf(self, case):
        builder, bounded = case
        model = builder.model
        cap = builder._chip_width_cap
        warm = builder.warm_start_stacked()
        if warm is None:
            too_wide = any(min(_start_widths(builder, name)) > cap + 1e-7
                           for name in builder._window)
            assert bounded or too_wide
            return
        assert not model.check_assignment(warm, tol=1e-6)
        # Group slots in x-order: presolve's ordering rows hold.
        for group in builder.symmetry_groups():
            xs = [warm[var] for var in group]
            assert xs == sorted(xs)
        shelf = builder._shelf_layout(cap)
        if shelf is not None:
            shelf_values = builder._assignment_from(
                {name: (x, y, rot, 0.0)
                 for name, (x, y, _w, _h, rot) in shelf.items()})
            if shelf_values is not None:
                assert model.objective.value(warm) \
                    <= model.objective.value(shelf_values) + 1e-6

    @pytest.mark.parametrize("obstacles,width,expected", [
        # a valley between two blocks
        ([Rect(0.0, 0.0, 4.0, 5.0), Rect(7.0, 0.0, 3.0, 5.0)], 3.0,
         (4.0, 0.0)),
        # a pillar the module must not straddle: the gap left of it is
        # too narrow
        ([Rect(3.0, 0.0, 2.0, 5.0)], 4.0, (5.0, 0.0)),
    ], ids=["valley", "pillar"])
    def test_drops_into_the_lowest_gap(self, obstacles, width, expected):
        """A module rests in the floorplan's lowest gap it fits, not on
        top."""
        config = _config(allow_rotation=False)
        builder = SubproblemBuilder([Module.rigid("a", width, 2.0)],
                                    obstacles, 10.0, config, base_height=5.0)
        warm = builder.warm_start_stacked()
        wm = builder._window["a"]
        assert (warm[wm.x], warm[wm.y]) == expected
        assert warm[builder.height_var] == 5.0

    def test_group_slots_are_handed_out_in_x_order(self):
        """The first lookalike fills the valley on the right and the second
        rests on the left; the start swaps their slots into x-order."""
        config = _config(allow_rotation=False)
        window = [Module.rigid("a", 4.0, 5.0), Module.rigid("b", 4.0, 5.0)]
        builder = SubproblemBuilder(window, [Rect(0.0, 0.0, 6.0, 5.0)], 10.0,
                                    config, base_height=5.0)
        (group,) = builder.symmetry_groups()
        warm = builder.warm_start_stacked()
        assert [(warm[builder._window[n].x], warm[builder._window[n].y])
                for n in "ab"] == [(0.0, 5.0), (6.0, 0.0)]
        assert [warm[x] for x in group] == [0.0, 6.0]


@needs_highs_start
class TestStartStepParity:
    """Every augmentation step of a HiGHS run, solved by HiGHS from the
    skyline start and without one, reaches OPTIMAL with the same objective:
    the start only changes where HiGHS's search begins (step-level, as
    ``test_presolve.py``'s ``TestHighsProfileStepParity``)."""

    @pytest.mark.parametrize("seed_size,group_size", [(6, 4), (3, 2)])
    @pytest.mark.parametrize("make", [apte_like, hp_like],
                             ids=["apte_like", "hp_like"])
    def test_every_step_keeps_its_optimum(self, monkeypatch, make,
                                          seed_size, group_size):
        config = FloorplanConfig(
            seed_size=seed_size, group_size=group_size, ordering_seed=0,
            use_envelopes=True, technology=Technology.around_the_cell(),
            subproblem_time_limit=10.0, mip_rel_gap=OBJ_TOL,
            backend="highs", solve_cache=False)
        solve_step = augmentation._solve_with_retry
        pairs = []

        def checked(builder, config, **kwargs):
            solution = solve_step(builder, config, **kwargs)
            options = config.solver_options()
            warm = builder.warm_start_stacked()
            assert warm is not None
            pairs.append((
                scipy_backend.solve_highs(builder.model, **options),
                scipy_backend.solve_highs(builder.model, warm_start=warm,
                                          **options)))
            return solution

        monkeypatch.setattr(augmentation, "_solve_with_retry", checked)
        plan = Floorplanner(make(), config).run()
        assert plan.is_legal
        assert len(pairs) >= 2
        for step, (cold, started) in enumerate(pairs):
            assert cold.status is started.status is SolveStatus.OPTIMAL, \
                (step, cold.status, started.status)
            assert objectives_match(cold.objective, started.objective), \
                (step, cold.objective, started.objective)


class TestHighsStart:
    def _window(self) -> SubproblemBuilder:
        modules = list(random_netlist(5, seed=1).modules)
        width = sum(m.area for m in modules) ** 0.5 * 1.2
        return SubproblemBuilder(modules, [], width,
                                 _config(chip_width=width))

    def test_an_infeasible_start_changes_neither_status_nor_objective(self):
        model = self._window().model
        origin = {var: 0.0 for var in model.variables}
        assert model.check_assignment(origin)
        cold = scipy_backend.solve_highs(model, mip_rel_gap=OBJ_TOL)
        started = scipy_backend.solve_highs(model, mip_rel_gap=OBJ_TOL,
                                            warm_start=origin)
        assert cold.status is started.status is SolveStatus.OPTIMAL
        assert objectives_match(cold.objective, started.objective)

    @needs_highs_start
    def test_a_feasible_start_is_the_incumbent_from_the_first_node(self):
        builder = self._window()
        warm = builder.warm_start_stacked()
        bound = builder.model.objective.value(warm)
        started = scipy_backend.solve_highs(builder.model, node_limit=1,
                                            warm_start=warm)
        assert started.status.has_solution
        assert started.objective <= bound + 1e-6


class TestLazyStart:
    """The start is built only after the cache lookup missed, at most once
    per window: a replay from the disk tier never builds one."""

    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_built_once_per_missed_window_and_never_on_a_replay(
            self, backend, monkeypatch, tmp_path):
        from repro.milp.cache import clear_caches

        calls: list[SubproblemBuilder] = []
        real = SubproblemBuilder.warm_start_stacked

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(SubproblemBuilder, "warm_start_stacked", counted)
        netlist = random_netlist(7, seed=2)
        config = _config(seed_size=3, backend=backend, solve_cache=True,
                         cache_dir=str(tmp_path))
        cold = Floorplanner(netlist, config).run()
        reads = solve_inputs(backend, config.presolve)[1]
        assert (len(calls) > 0) is reads
        assert len({id(builder) for builder in calls}) == len(calls)
        assert len(calls) <= len(cold.trace.steps)

        calls.clear()
        clear_caches()  # the replay starts with an empty memory tier
        replay = Floorplanner(netlist, config).run()
        assert all(step.telemetry.cache["hit"]
                   for step in replay.trace.steps)
        assert replay.placements == cold.placements
        assert calls == []

    def test_solve_many_runs_missed_providers_in_the_parent(self):
        """With parallel workers, only the providers of the instances the
        parent's lookups missed run, in the parent (a lambda could not be
        sent to a worker)."""
        from repro.milp.cache import SolveCache
        from repro.milp.solvers.registry import solve_many

        config = _config()
        builders = [SubproblemBuilder(
            [Module.rigid("a", 3.0, 2.0), Module.rigid("b", w, 2.0)], [],
            8.0, config) for w in (2.0, 4.0)]
        calls: list[SubproblemBuilder] = []
        providers = [lambda b=b: calls.append(b) or b.warm_start_stacked()
                     for b in builders]
        cache = SolveCache()
        for _run in range(2):
            solutions = solve_many([b.model for b in builders],
                                   backend="bnb", warm_starts=providers,
                                   cache=cache, workers=2)
            assert all(s.status is SolveStatus.OPTIMAL for s in solutions)
        assert calls == builders
