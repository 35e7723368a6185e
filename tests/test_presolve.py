"""Presolve-parity suite.

Every reduction in :mod:`repro.milp.presolve` is objective-preserving by
construction, so solving any instance with and without the presolve layer
must reach the same status and (up to LP roundoff — the reduced and
original forms are equivalent but not identical LPs, so backends may land
on different optimal vertices) the same optimal objective.  Postsolved
solutions must additionally certify against the *original* standard form:
the presolve→postsolve mapping may never leak reduced-space artifacts into
what the independent checker sees.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.check.certificate import check_certificate
from repro.check.fuzz import generate_model
from repro.core import augmentation
from repro.core.config import FloorplanConfig
from repro.core.floorplanner import Floorplanner
from repro.core.formulation import SubproblemBuilder
from repro.geometry.rect import Rect
from repro.milp.cache import SolveCache
from repro.milp.expr import VarKind, lin_sum
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.milp.solvers import scipy_backend
from repro.milp.solvers.registry import solve
from repro.netlist.mcnc import apte_like, hp_like
from repro.netlist.module import Module
from repro.routing.technology import Technology

#: Relative objective tolerance between the presolved and raw solves.
OBJ_TOL = 1e-6
#: Gap passed to the solvers so OPTIMAL claims are tight enough to compare.
GAP = 1e-6

#: The branch-and-bound over each of its LP engines, by the fuzzer's
#: labels.  The registry presolves for bnb; it leaves HiGHS to its own
#: presolve, so a HiGHS solve with ``presolve=True`` checks nothing here.
BNB_ENGINES = {"bnb": "highs", "bnb[simplex]": "simplex"}


def objectives_match(a: float, b: float, tol: float = OBJ_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def certify(model: Model, solution) -> None:
    """The postsolved solution must verify against the ORIGINAL form."""
    report = check_certificate(model, solution,
                               form=model.to_standard_form(),
                               mip_rel_gap=GAP * 10)
    assert report.ok, [v.detail for v in report.violations]


# ---------------------------------------------------------------------------
# fixture instances
# ---------------------------------------------------------------------------

def knapsack() -> Model:
    model = Model("knapsack")
    items = [(3, 4), (4, 5), (5, 6), (7, 9), (2, 2)]
    xs = [model.add_binary(f"x{i}") for i in range(len(items))]
    model.add_constraint(
        lin_sum(w * x for (w, _v), x in zip(items, xs)) <= 10, name="cap")
    model.set_objective(
        lin_sum(v * x for (_w, v), x in zip(items, xs)), sense="max")
    return model


def big_m_switch() -> Model:
    """A loose-big-M indicator model: propagation shrinks M from 100 down
    to what the box supports."""
    model = Model("bigm")
    x = model.add_continuous("x", 0.0, 8.0)
    y = model.add_continuous("y", 0.0, 8.0)
    b = model.add_binary("b")
    model.add_constraint(x - 100.0 * b <= 2.0, name="ind_x")
    model.add_constraint(y + 100.0 * b <= 103.0, name="ind_y")
    model.add_constraint(x + y >= 6.0, name="cover")
    model.set_objective(x + 2.0 * y + 3.0 * b, sense="min")
    return model


def mixed_integer_box() -> Model:
    model = Model("mixed")
    x = model.add_var("x", 0.0, 6.0, VarKind.INTEGER)
    y = model.add_continuous("y", 0.0, 10.0)
    z = model.add_binary("z")
    model.add_constraint(2 * x + y <= 11.0, name="c1")
    model.add_constraint(x + y + 4 * z >= 5.0, name="c2")
    model.add_constraint(y - 3 * z <= 6.5, name="c3")
    model.set_objective(3 * x - y + 2 * z, sense="min")
    return model


def infeasible_box() -> Model:
    model = Model("infeasible")
    x = model.add_continuous("x", 0.0, 1.0)
    b = model.add_binary("b")
    model.add_constraint(x + b >= 3.5, name="impossible")
    model.set_objective(x + b, sense="min")
    return model


def floorplan_builder() -> SubproblemBuilder:
    """Two identical rigid modules (a genuine symmetry pair) plus a third
    over one fixed obstacle — the paper's actual subproblem shape."""
    config = FloorplanConfig(chip_width=9.0, use_envelopes=False,
                             record_snapshots=False)
    window = [Module.rigid("a", 2.0, 3.0, rotatable=True),
              Module.rigid("b", 2.0, 3.0, rotatable=True),
              Module.rigid("c", 4.0, 2.0, rotatable=True)]
    return SubproblemBuilder(window, [Rect(0.0, 0.0, 3.0, 2.0)], 9.0, config)


FIXTURES = {
    "knapsack": knapsack,
    "big_m_switch": big_m_switch,
    "mixed_integer_box": mixed_integer_box,
}


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

class TestFixtureParity:
    @pytest.mark.parametrize("variant", BNB_ENGINES)
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_same_optimum_with_and_without_presolve(self, name, variant):
        model = FIXTURES[name]()
        engine = BNB_ENGINES[variant]
        raw = solve(model, backend="bnb", lp_engine=engine, mip_rel_gap=GAP,
                    presolve=False)
        pre = solve(model, backend="bnb", lp_engine=engine, mip_rel_gap=GAP,
                    presolve=True)
        assert raw.status is SolveStatus.OPTIMAL
        assert pre.status is SolveStatus.OPTIMAL
        assert objectives_match(raw.objective, pre.objective), \
            (raw.objective, pre.objective)
        certify(model, raw)
        certify(model, pre)

    @pytest.mark.parametrize("variant", BNB_ENGINES)
    def test_infeasible_parity(self, variant):
        model = infeasible_box()
        engine = BNB_ENGINES[variant]
        raw = solve(model, backend="bnb", lp_engine=engine, presolve=False)
        pre = solve(model, backend="bnb", lp_engine=engine, presolve=True)
        assert raw.status is SolveStatus.INFEASIBLE
        assert pre.status is SolveStatus.INFEASIBLE

    def test_presolve_detects_infeasibility_itself(self):
        pre = solve(infeasible_box(), backend="bnb", presolve=True)
        report = pre.presolve_report()
        assert report is not None
        assert report.infeasible


class TestFuzzInstanceParity:
    """The fuzz generator's instance distribution (pure LPs, boxed MILPs,
    floorplan-shaped subproblems), each solved raw and presolved."""

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_instance(self, seed):
        model = generate_model(random.Random(seed))
        raw = solve(model, backend="bnb", mip_rel_gap=GAP, presolve=False)
        pre = solve(model, backend="bnb", mip_rel_gap=GAP, presolve=True)
        assert raw.status is pre.status, (raw.status, pre.status)
        if raw.status is SolveStatus.OPTIMAL:
            assert objectives_match(raw.objective, pre.objective), \
                (raw.objective, pre.objective)
            certify(model, pre)


class TestFloorplanSubproblemParity:
    @pytest.mark.parametrize("variant", BNB_ENGINES)
    def test_builder_model_with_symmetry_groups(self, variant):
        builder = floorplan_builder()
        groups = builder.symmetry_groups()
        assert groups, "identical modules must form a symmetry group"
        engine = BNB_ENGINES[variant]
        raw = solve(builder.model, backend="bnb", lp_engine=engine,
                    mip_rel_gap=GAP, presolve=False)
        pre = solve(builder.model, backend="bnb", lp_engine=engine,
                    mip_rel_gap=GAP, presolve=True, symmetry_groups=groups)
        assert raw.status is SolveStatus.OPTIMAL
        assert pre.status is SolveStatus.OPTIMAL
        assert objectives_match(raw.objective, pre.objective), \
            (raw.objective, pre.objective)
        certify(builder.model, pre)

    def test_warm_started_presolve_keeps_the_optimum(self):
        builder = floorplan_builder()
        warm = builder.warm_start_stacked()
        assert warm is not None
        raw = solve(builder.model, backend="bnb", mip_rel_gap=GAP,
                    presolve=False)
        pre = solve(builder.model, backend="bnb", mip_rel_gap=GAP,
                    presolve=True, warm_start=warm,
                    symmetry_groups=builder.symmetry_groups())
        assert pre.status is SolveStatus.OPTIMAL
        assert objectives_match(raw.objective, pre.objective), \
            (raw.objective, pre.objective)
        certify(builder.model, pre)
        report = pre.presolve_report()
        assert report is not None
        assert report.objective_cutoff is not None


# ---------------------------------------------------------------------------
# postsolve mapping and the report
# ---------------------------------------------------------------------------

class TestPostsolve:
    def test_solution_covers_every_original_variable(self):
        builder = floorplan_builder()
        pre = solve(builder.model, backend="bnb", presolve=True,
                    symmetry_groups=builder.symmetry_groups())
        assert pre.status is SolveStatus.OPTIMAL
        assert set(pre.values) == set(builder.model.variables)

    def test_model_solved_entirely_by_presolve(self):
        model = Model("all_fixed")
        x = model.add_continuous("x", 2.0, 2.0)
        b = model.add_binary("b")
        model.add_constraint(b >= 1, name="force")
        model.set_objective(x + b, sense="min")
        pre = solve(model, backend="bnb", presolve=True)
        assert pre.status is SolveStatus.OPTIMAL
        assert objectives_match(pre.objective, 3.0)
        assert set(pre.values) == {x, b}
        assert pre.values[b] == 1.0
        certify(model, pre)
        report = pre.presolve_report()
        assert report is not None
        assert report.cols_after == 0

    def test_report_attached_and_sane(self):
        model = big_m_switch()
        pre = solve(model, backend="bnb", presolve=True)
        report = pre.presolve_report()
        assert report is not None
        assert report.rows_after <= report.rows_before
        assert report.cols_after <= report.cols_before
        assert report.ints_after <= report.ints_before
        assert report.bounds_tightened >= 0
        assert not report.infeasible
        # round-trips through the telemetry dict encoding
        assert report.to_dict() == type(report).from_dict(
            report.to_dict()).to_dict()

    def test_no_report_without_presolve(self):
        pre = solve(big_m_switch(), backend="bnb", presolve=False)
        assert pre.presolve_report() is None

    def test_big_m_is_actually_tightened(self):
        """The loose M = 100 indicator rows must shrink: this pins down
        that coefficient tightening engages, not just that it is harmless."""
        pre = solve(big_m_switch(), backend="bnb", presolve=True)
        report = pre.presolve_report()
        assert report is not None
        assert report.coeffs_tightened >= 1
        assert report.m_shrink_total > 0.0

    def test_highs_leaves_presolve_to_the_solver(self):
        """HiGHS presolves every model itself: the registry runs no presolve
        for it, and the flag does not split its cache key.  HiGHS reads a
        warm start (``_Highs.setSolution``) where its bindings take one, so
        there an offered start does."""
        model = big_m_switch()
        x, y, b = model.variables
        warm = {x: 2.0, y: 4.0, b: 0.0}
        assert not model.check_assignment(warm)
        keys = {}
        for presolve in (False, True):
            for warm_start in (None, warm):
                sol = solve(model, backend="highs", presolve=presolve,
                            warm_start=warm_start, cache=SolveCache())
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.presolve_report() is None
                keys.setdefault(warm_start is not None, set()).add(
                    sol.telemetry.cache["key"])
        assert [len(split) for split in keys.values()] == [1, 1]
        assert (keys[False] != keys[True]) is scipy_backend.reads_start()


# ---------------------------------------------------------------------------
# per-step parity along a whole augmentation run
# ---------------------------------------------------------------------------

class _RecordedBuilder(SubproblemBuilder):
    """A SubproblemBuilder that can build its own model again under
    another configuration."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._args, self._kwargs = args, kwargs

    def rebuilt(self, config: FloorplanConfig) -> SubproblemBuilder:
        window, obstacles, chip_width, _config = self._args
        return SubproblemBuilder(window, obstacles, chip_width, config,
                                 **self._kwargs)


class TestAugmentationStepParity:
    """Every augmentation step of a presolve-on run, rebuilt over the same
    window and obstacles with ``presolve=False`` and solved without the
    registry presolve, reaches the same status and optimal objective.

    Step-level, not trajectory-level: equally optimal vertices may steer
    the greedy augmentation apart, so whole runs are not compared.  On
    highs the check covers the formulation's dominated-binary pruning; on
    bnb it covers the pruning plus the registry presolve.  The settings are
    the quick bench suite's (envelopes, 10 s limit; 6/4 seed/group sizes,
    4/2 on bnb, which hits the limit at 6/4).
    """

    @pytest.mark.parametrize("backend,seed_size,group_size",
                             [("highs", 6, 4), ("bnb", 4, 2)])
    @pytest.mark.parametrize("make", [apte_like, hp_like],
                             ids=["apte_like", "hp_like"])
    def test_every_step_keeps_its_optimum(self, monkeypatch, make, backend,
                                          seed_size, group_size):
        config = FloorplanConfig(
            seed_size=seed_size, group_size=group_size, ordering_seed=0,
            use_envelopes=True, technology=Technology.around_the_cell(),
            subproblem_time_limit=10.0, backend=backend, solve_cache=False)
        raw_config = dataclasses.replace(config, presolve=False)
        solve_step = augmentation._solve_with_retry
        pairs = []

        def checked(builder, config, **kwargs):
            solution = solve_step(builder, config, **kwargs)
            raw = builder.rebuilt(raw_config)
            pairs.append((solution, solve(raw.model, backend=backend,
                                          **raw_config.solver_options())))
            return solution

        monkeypatch.setattr(augmentation, "SubproblemBuilder",
                            _RecordedBuilder)
        monkeypatch.setattr(augmentation, "_solve_with_retry", checked)
        plan = Floorplanner(make(), config).run()
        assert plan.is_legal
        assert len(pairs) >= 2
        for step, (solution, raw) in enumerate(pairs):
            assert solution.status is raw.status, (step, solution.status,
                                                   raw.status)
            assert objectives_match(solution.objective, raw.objective), \
                (step, solution.objective, raw.objective)


class TestHighsProfileStepParity:
    """Every augmentation step of a HiGHS run, solved again with HiGHS's
    default options instead of ``scipy_backend.HIGHS_PROFILE``, reaches the
    same status and optimal objective.  The profile only changes how HiGHS
    searches, so either may return another optimal vertex (step-level, not
    trajectory-level, as above)."""

    @pytest.mark.parametrize("seed_size,group_size", [(6, 4), (3, 2)])
    @pytest.mark.parametrize("make", [apte_like, hp_like],
                             ids=["apte_like", "hp_like"])
    def test_every_step_keeps_its_optimum(self, monkeypatch, make,
                                          seed_size, group_size):
        from unittest import mock

        from repro.milp.solvers import scipy_backend

        assert scipy_backend.highs_profile()
        config = FloorplanConfig(
            seed_size=seed_size, group_size=group_size, ordering_seed=0,
            use_envelopes=True, technology=Technology.around_the_cell(),
            subproblem_time_limit=10.0, mip_rel_gap=GAP, backend="highs",
            solve_cache=False)
        solve_step = augmentation._solve_with_retry
        pairs = []

        def checked(builder, config, **kwargs):
            solution = solve_step(builder, config, **kwargs)
            with mock.patch.dict(scipy_backend.HIGHS_PROFILE, clear=True):
                default = solve(builder.model, backend="highs",
                                **config.solver_options())
            pairs.append((solution, default))
            return solution

        monkeypatch.setattr(augmentation, "_solve_with_retry", checked)
        plan = Floorplanner(make(), config).run()
        assert plan.is_legal
        assert len(pairs) >= 2
        for step, (solution, default) in enumerate(pairs):
            assert solution.status is default.status is SolveStatus.OPTIMAL, \
                (step, solution.status, default.status)
            assert objectives_match(solution.objective, default.objective), \
                (step, solution.objective, default.objective)
