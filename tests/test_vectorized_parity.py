"""Scalar-vs-vectorized parity suite.

The vectorization pass rewired three hot paths — the branch-and-bound node
frontier (contiguous arrays vs per-node objects), constraint assembly
(one row store built into CSR in one call vs per-row appends), and the
skyline/covering geometry
(numpy row operations vs per-step loops) — and added batched solving
(:func:`repro.milp.solvers.registry.solve_many`).  Every fast path keeps a
scalar reference, and this suite pins them against each other:

* the arena frontier and the per-node object frontier kept here as its
  reference produce identical statuses, objectives, bounds, and node counts
  on seeded and hypothesis-generated instances;
* the persistent HiGHS engine and its per-call linprog fallback explore the
  identical tree;
* the highs backend's direct HiGHS call and its :func:`scipy.optimize.milp`
  fallback return the same solve under either option profile, and so do
  its direct LP call and its :func:`scipy.optimize.linprog` fallback;
* the assembled standard form equals a dense per-row scalar reconstruction
  exactly (no tolerance — same floats, same order), and its ``indptr``,
  ``indices`` and ``data`` equal those of that reconstruction as CSR;
* the array-backed :class:`~repro.geometry.skyline.Skyline` and the covering
  decompositions byte-match a scalar reference implementation of the same
  epsilon semantics;
* ``solve_many()`` equals element-wise sequential ``solve()``, including
  cache-hit accounting on its serial path.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import sys
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse

from repro.check.fuzz import _floorplan_shaped, generate_model
from repro.core.augmentation import run_augmentation
from repro.core.config import FloorplanConfig
from repro.core.formulation import SubproblemBuilder
from repro.core.topology import Relation, optimize_topology
from repro.geometry.covering import (
    horizontal_cut_decomposition,
    merge_covering_rectangles,
)
from repro.geometry.rect import GEOM_EPS, Rect
from repro.geometry.skyline import Skyline
from repro.milp.cache import SolveCache
from repro.milp.expr import VarKind
from repro.milp.model import Model, ObjectiveSense, Sense
from repro.milp.solution import SolveStatus
from repro.milp.solvers import branch_and_bound as bnb
from repro.milp.solvers import scipy_backend
from repro.milp.solvers.branch_and_bound import _Popped, solve_bnb
from repro.milp.solvers.registry import solve, solve_many
from repro.netlist.generators import random_netlist
from repro.routing.flow import route_and_adjust
from repro.routing.technology import Technology

# ---------------------------------------------------------------------------
# branch and bound: array frontier vs object frontier
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _Node:
    """A branch-and-bound node: bound plus extra variable bounds."""

    bound: float
    tiebreak: int
    depth: int = field(compare=False)
    lb: np.ndarray = field(compare=False)
    ub: np.ndarray = field(compare=False)


class _ObjectFrontier:
    """Reference frontier: one :class:`_Node` dataclass per node."""

    def __init__(self, n_cols: int) -> None:
        self._heap: list[_Node] = []
        self._counter = itertools.count()
        self.peak_nodes = 0
        self.rows_reclaimed = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push_root(self, bound: float, lb: np.ndarray, ub: np.ndarray) -> None:
        heapq.heappush(self._heap,
                       _Node(bound, next(self._counter), 0, lb.copy(),
                             ub.copy()))
        self.peak_nodes = max(self.peak_nodes, len(self._heap))

    def pop(self) -> _Popped:
        node = heapq.heappop(self._heap)
        return _Popped(node.bound, node.depth, node, node.lb, node.ub, True)

    def branch(self, node: _Popped, bound: float, col: int,
               floor_val: float, ceil_val: float) -> None:
        parent = node.slot
        down_ub = parent.ub.copy()
        down_ub[col] = floor_val
        up_lb = parent.lb.copy()
        up_lb[col] = ceil_val
        heapq.heappush(self._heap,
                       _Node(bound, next(self._counter), parent.depth + 1,
                             parent.lb.copy(), down_ub))
        heapq.heappush(self._heap,
                       _Node(bound, next(self._counter), parent.depth + 1,
                             up_lb, parent.ub.copy()))
        self.peak_nodes = max(self.peak_nodes, len(self._heap))

    def discard(self, node: _Popped) -> None:
        pass

    def prune_dominated(self, threshold: float) -> None:
        pass


def _bnb_pair(model: Model) -> None:
    fast = solve_bnb(model, time_limit=20.0)
    with mock.patch.object(bnb, "_ArrayFrontier",
                           side_effect=_ObjectFrontier) as reference:
        ref = solve_bnb(model, time_limit=20.0)
    assert fast.status is ref.status
    assert fast.n_nodes == ref.n_nodes
    if fast.status.has_solution:
        assert fast.objective == ref.objective  # byte parity, no tolerance
        assert fast.bound == ref.bound
        assert {v.name: x for v, x in fast.values.items()} == \
            {v.name: x for v, x in ref.values.items()}
    # Pure-LP and root-integral instances are answered without a frontier;
    # every other one must have run on the reference.
    assert reference.called == (fast.telemetry.frontier is not None)
    if reference.called:
        # Reclaimed rows leave tombstones on the heap, so the peak matches.
        assert fast.telemetry.frontier["peak_nodes"] == \
            ref.telemetry.frontier["peak_nodes"]


class TestBnbStoreParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_instances(self, seed):
        _bnb_pair(generate_model(random.Random(seed * 911 + 17)))

    @pytest.mark.parametrize("seed", range(4))
    def test_floorplan_shaped_instances(self, seed):
        _bnb_pair(_floorplan_shaped(random.Random(seed * 131 + 5)))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_hypothesis_instances(self, seed):
        _bnb_pair(generate_model(random.Random(seed)))


# ---------------------------------------------------------------------------
# branch and bound: persistent HiGHS engine vs its linprog fallback
# ---------------------------------------------------------------------------

#: Trees are cut by node count, never by wall clock: a time limit would make
#: the node counts of the two engines depend on their speed.
FALLBACK_NODE_LIMIT = 300


def _window_model(n_modules: int, seed: int) -> Model:
    """One augmentation-style MILP placing a whole random netlist."""
    modules = list(random_netlist(n_modules, seed=seed).modules)
    width = math.sqrt(sum(m.area for m in modules)) * 1.2
    config = FloorplanConfig(chip_width=width, use_envelopes=False)
    return SubproblemBuilder(modules, [], width, config).model


def _engine_pair(model: Model) -> None:
    persistent = solve_bnb(model, node_limit=FALLBACK_NODE_LIMIT)
    with mock.patch.object(bnb, "_PersistentHighsEngine",
                           side_effect=ImportError("no _highspy")), \
            mock.patch.object(bnb, "_LinprogEngine",
                              side_effect=bnb._LinprogEngine) as fallback:
        linprog = solve_bnb(model, node_limit=FALLBACK_NODE_LIMIT)
    assert fallback.called
    assert persistent.backend == linprog.backend == "bnb[highs]"
    assert persistent.status is linprog.status
    assert persistent.n_nodes == linprog.n_nodes
    assert persistent.telemetry.lp_calls == linprog.telemetry.lp_calls
    # assert_equal treats two NaNs (no incumbent, no bound) as equal.
    np.testing.assert_equal((persistent.objective, persistent.bound),
                            (linprog.objective, linprog.bound))
    assert {v.name: x for v, x in persistent.values.items()} == \
        {v.name: x for v, x in linprog.values.items()}
    assert [e.objective for e in persistent.telemetry.incumbents] == \
        [e.objective for e in linprog.telemetry.incumbents]


class TestLinprogFallbackParity:
    """Where SciPy lacks its vendored HiGHS bindings the ``"highs"`` engine
    is one linprog call per node; it must explore the persistent engine's
    tree exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_instances(self, seed):
        _engine_pair(generate_model(random.Random(seed * 911 + 17)))

    @pytest.mark.parametrize("n_modules,seed",
                             [(3, 0), (3, 3), (4, 0), (5, 1), (6, 0)])
    def test_window_instances(self, n_modules, seed):
        _engine_pair(_window_model(n_modules, seed))


# ---------------------------------------------------------------------------
# highs backend: the direct HiGHS call vs its scipy.optimize.milp fallback
# ---------------------------------------------------------------------------

#: HiGHS's defaults, and feasibility jump off.
PROFILES = [{}, {"mip_heuristic_run_feasibility_jump": False}]


def _direct_and_milp(profile: dict, call):
    """``call()`` once on the direct HiGHS call under ``profile``, and once
    where ``scipy.optimize._highspy`` cannot be imported and milp is handed
    ``profile`` on top of its options (the fallback itself runs HiGHS's
    defaults)."""
    real_milp = scipy_backend.optimize.milp

    def milp(*args, options, **kwargs):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options",
                                    RuntimeWarning)
            return real_milp(*args, options={**options, **profile},
                             **kwargs)

    with mock.patch.dict(scipy_backend.HIGHS_PROFILE, profile, clear=True):
        direct = call()
    with mock.patch.dict(sys.modules, {"scipy.optimize._highspy": None}), \
            mock.patch.object(scipy_backend.optimize, "milp",
                              side_effect=milp):
        via_milp = call()
    return direct, via_milp


def _raw_pair(form, profile: dict, options: dict):
    """``_solve_mip`` direct and through milp: the same SciPy-style
    result."""
    direct, via_milp = _direct_and_milp(
        profile, lambda: scipy_backend._solve_mip(form, options))
    assert isinstance(via_milp, optimize.OptimizeResult)
    assert (direct.status, direct.message, direct.mip_node_count) == \
        (via_milp.status, via_milp.message, via_milp.mip_node_count)
    np.testing.assert_equal((direct.x, direct.mip_dual_bound),
                            (via_milp.x, via_milp.mip_dual_bound))
    return direct


def _highs_pair(model: Model, profile: dict, **options):
    """``solve_highs`` direct and through milp: the same Solution."""
    direct, via_milp = _direct_and_milp(
        profile, lambda: scipy_backend.solve_highs(model, mip_rel_gap=1e-6,
                                                   **options))
    assert (direct.status, direct.n_nodes, direct.message,
            direct.backend) == (via_milp.status, via_milp.n_nodes,
                                via_milp.message, via_milp.backend)
    np.testing.assert_equal((direct.objective, direct.bound),
                            (via_milp.objective, via_milp.bound))
    assert {v.name: x for v, x in direct.values.items()} == \
        {v.name: x for v, x in via_milp.values.items()}
    return direct


@functools.cache
def _topology_lps() -> dict[str, Model]:
    """The section-2.5 LPs of a small flow, which have many optimal
    vertices: legalizing an augmented plan with flexible modules, and
    adjusting the channels of its routed plan; and the LP of a cyclic
    relation set, which is infeasible."""
    netlist = random_netlist(8, seed=3, flexible_fraction=0.25)
    technology = Technology.around_the_cell()
    result = run_augmentation(netlist, FloorplanConfig(
        use_envelopes=True, technology=technology, seed_size=3,
        group_size=2, solve_cache=False))
    models: list[Model] = []
    solve_highs = scipy_backend.solve_highs

    def record(model: Model, **options):
        models.append(model)
        return solve_highs(model, **options)

    with mock.patch.object(scipy_backend, "solve_highs", side_effect=record):
        plan = optimize_topology(result.placements,
                                 max_chip_width=result.chip_width)
        route_and_adjust({p.name: p for p in plan.placements}, plan.chip,
                         netlist, technology)
        a, b, c = (p.name for p in plan.placements[:3])
        with pytest.raises(RuntimeError, match="infeasible"):
            optimize_topology(plan.placements[:3],
                              [Relation(a, b, "x", 0.0),
                               Relation(b, c, "x", 0.0),
                               Relation(c, a, "x", 0.0)])
    assert len(models) == 3
    return dict(zip(("legalization", "adjustment", "cycle"), models))


def _lp_pair(model: Model, **options):
    """``solve_highs`` on a pure LP, direct and where the bindings are
    missing, so that :func:`scipy.optimize.linprog` solves it: the same
    Solution."""
    with mock.patch.object(scipy_backend.optimize, "linprog",
                           side_effect=AssertionError("linprog called")):
        direct = scipy_backend.solve_highs(model, **options)
    with mock.patch.dict(sys.modules, {"scipy.optimize._highspy": None}), \
            mock.patch.object(scipy_backend.optimize, "linprog",
                              wraps=optimize.linprog) as linprog:
        via_linprog = scipy_backend.solve_highs(model, **options)
    assert linprog.called
    assert (direct.status, direct.message, direct.backend) == \
        (via_linprog.status, via_linprog.message, via_linprog.backend)
    np.testing.assert_equal((direct.objective, direct.bound),
                            (via_linprog.objective, via_linprog.bound))
    assert {v.name: x for v, x in direct.values.items()} == \
        {v.name: x for v, x in via_linprog.values.items()}
    return direct


class TestMilpFallbackParity:
    """Where SciPy lacks its vendored HiGHS bindings, ``solve_highs`` solves
    each MIP with :func:`scipy.optimize.milp` and each LP with
    :func:`scipy.optimize.linprog`; given the same options either must
    return what the direct call returns: status, objective, bound, values,
    node count and message."""

    @pytest.mark.parametrize("which", ["legalization", "adjustment"])
    def test_topology_lp(self, which):
        solution = _lp_pair(_topology_lps()[which])
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.backend == "highs-lp"

    def test_infeasible_relation_cycle(self):
        solution = _lp_pair(_topology_lps()["cycle"])
        assert solution.status is SolveStatus.INFEASIBLE
        assert "model_status is Infeasible; primal_status is" in \
            solution.message

    def test_time_limited_lp(self):
        solution = _lp_pair(_topology_lps()["adjustment"], time_limit=1e-9)
        assert solution.status is SolveStatus.LIMIT
        assert not solution.values
        assert "model_status is Time limit reached" in solution.message

    @pytest.mark.parametrize("broken", [None, 0, 1, 2],
                             ids=["none", "upper", "lower", "equal"])
    def test_lp_point_off_its_rows_is_an_error(self, broken):
        """linprog's check of an optimal point: HiGHS reporting a point
        whose row ``broken`` (``<=``, ``>=`` or ``==``) is off by 0.01
        makes the solve an ERROR with linprog's message."""
        m = Model("rows")
        x = m.add_continuous("x", lb=0.0, ub=10.0)
        y = m.add_continuous("y", lb=0.0, ub=10.0)
        m.add_constraint(x + y <= 4.0)
        m.add_constraint(x - y >= -1.0)
        m.add_constraint(x + 2.0 * y == 5.0)
        m.set_objective(x + y)
        # Row values of the model HiGHS holds, laid out as linprog lays
        # it out: the <= row, the negated >= row, then the equality.
        rows = [3.25, 0.25, 5.0]
        if broken is not None:
            rows[broken] = (4.01, 1.01, 5.01)[broken]
        reported = SimpleNamespace(
            getSolution=lambda: SimpleNamespace(col_value=[1.5, 1.75],
                                                row_value=rows),
            getInfo=lambda: SimpleNamespace(objective_function_value=3.25))
        with mock.patch.object(scipy_backend, "_run_highs", return_value=(
                reported, 0, "Optimization terminated successfully.",
                True)):
            solution = scipy_backend.solve_highs(m)
        if broken is None:
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == 3.25
        else:
            assert solution.status is SolveStatus.ERROR
            assert solution.message.startswith(
                "The solution does not satisfy the constraints")

    @pytest.mark.parametrize("profile", PROFILES, ids=["default", "fj-off"])
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_instances(self, seed, profile):
        _highs_pair(generate_model(random.Random(seed * 911 + 17)), profile)

    @pytest.mark.parametrize("profile", PROFILES, ids=["default", "fj-off"])
    @pytest.mark.parametrize("n_modules,seed",
                             [(3, 0), (4, 0), (5, 1), (6, 0)])
    def test_window_instances(self, n_modules, seed, profile):
        solution = _highs_pair(_window_model(n_modules, seed), profile)
        assert solution.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("profile", PROFILES, ids=["default", "fj-off"])
    def test_node_limit_stop(self, profile):
        """A node-limit stop that left an incumbent is FEASIBLE at HiGHS's
        incumbent on both paths, with no rounded retry and no bnb
        fallback, although SciPy's status map reads it as status 4.  Its
        message says so, not SciPy's "status code was not recognized"."""
        model = _window_model(6, 0)
        form = model.to_standard_form()
        raw = _raw_pair(form, profile,
                        {"mip_rel_gap": 1e-6, "node_limit": 3})
        assert "Solution limit reached" in raw.message
        assert raw.status == 4
        assert raw.mip_node_count == 3 and raw.x is not None
        with mock.patch.object(scipy_backend, "_round_sig_sparse",
                               side_effect=AssertionError("rounded retry")):
            solution = _highs_pair(model, profile, node_limit=3)
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.backend == "highs" and solution.n_nodes == 3
        assert solution.message == "Node limit reached."
        assert [solution.values[v] for v in form.variables] == \
            raw.x.tolist()
        assert solution.objective == float(form.c @ raw.x) + form.c0
        assert solution.bound < solution.objective

    @pytest.mark.parametrize("profile", PROFILES, ids=["default", "fj-off"])
    def test_infeasible_mip(self, profile):
        m = Model("infeasible")
        x = m.add_var("x", 0.0, 3.0, VarKind.INTEGER)
        y = m.add_continuous("y", lb=0.0, ub=1.0)
        m.add_constraint(2.0 * x + y == 3.5)
        m.add_constraint(y <= 0.25)
        m.set_objective(x + y)
        assert _highs_pair(m, profile).status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("profile", PROFILES, ids=["default", "fj-off"])
    def test_unbounded_mip(self, profile):
        m = Model("unbounded")
        x = m.add_var("x", 0.0, math.inf, VarKind.INTEGER)
        y = m.add_continuous("y", lb=0.0, ub=1.0)
        m.add_constraint(x - y >= 0.5)
        m.set_objective(-1.0 * x - y)
        solution = _highs_pair(m, profile)
        assert not solution.status.has_solution


# ---------------------------------------------------------------------------
# constraint assembly: the row store's CSR vs dense per-row reconstruction
# ---------------------------------------------------------------------------


def _scalar_assembly(model: Model):
    """Rebuild (A_dense, row_lb, row_ub, c, c0) with the per-row python
    loop the vectorized assembly replaced."""
    n = len(model.variables)
    cons = model.constraints
    a = np.zeros((len(cons), n))
    row_lb = np.empty(len(cons))
    row_ub = np.empty(len(cons))
    for i, con in enumerate(cons):
        for var, coeff in con.expr.terms.items():
            a[i, var.index] += coeff
        rhs = -con.expr.constant
        if con.sense is Sense.LE:
            row_lb[i], row_ub[i] = -np.inf, rhs
        elif con.sense is Sense.GE:
            row_lb[i], row_ub[i] = rhs, np.inf
        else:
            row_lb[i], row_ub[i] = rhs, rhs
    c = np.zeros(n)
    for var, coeff in model.objective.terms.items():
        c[var.index] += coeff
    c0 = model.objective.constant
    if model.objective_sense is ObjectiveSense.MAX:
        c, c0 = -c, -c0
    return a, row_lb, row_ub, c, c0


def _assert_assembly_parity(model: Model) -> None:
    form = model.to_standard_form()
    a, row_lb, row_ub, c, c0 = _scalar_assembly(model)
    assert form.a_matrix.shape == a.shape
    np.testing.assert_array_equal(form.a_matrix.toarray(), a)
    # Equal as stored, too: sorted column indices, no explicit zeros.
    reference = sparse.csr_matrix(a)
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(form.a_matrix, part),
                                      getattr(reference, part))
    np.testing.assert_array_equal(form.row_lb, row_lb)
    np.testing.assert_array_equal(form.row_ub, row_ub)
    np.testing.assert_array_equal(form.c, c)
    assert form.c0 == c0


class TestAssemblyParity:
    @pytest.mark.parametrize("seed", range(15))
    def test_seeded_instances(self, seed):
        _assert_assembly_parity(generate_model(random.Random(seed * 37 + 3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_floorplan_formulations(self, seed):
        # SubproblemBuilder is the row-block producer — the path that
        # actually exercises the spliced COO triplets.
        _assert_assembly_parity(_floorplan_shaped(random.Random(seed)))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**9))
    def test_hypothesis_instances(self, seed):
        _assert_assembly_parity(generate_model(random.Random(seed)))


# ---------------------------------------------------------------------------
# geometry: array skyline vs scalar reference
# ---------------------------------------------------------------------------


class RefSkyline:
    """Scalar reference of the skyline's epsilon semantics: a python list of
    ``(x1, x2, height)`` runs, per-run add_rect, chained merge against each
    merge group's first height — the loop the array version replaced."""

    def __init__(self, x_min: float, x_max: float,
                 eps: float = GEOM_EPS) -> None:
        self.x_min, self.x_max, self.eps = x_min, x_max, eps
        self.runs: list[tuple[float, float, float]] = [(x_min, x_max, 0.0)]

    def add_rect(self, rect: Rect) -> None:
        lo = max(rect.x, self.x_min)
        hi = min(rect.x2, self.x_max)
        eps = self.eps
        if hi - lo <= eps:
            return
        top = rect.y2
        out: list[tuple[float, float, float]] = []
        for x1, x2, h in self.runs:
            if not (x2 > lo + eps and x1 < hi - eps):
                out.append((x1, x2, h))
                continue
            start = x1
            if x1 < lo - eps:
                out.append((x1, lo, h))
                start = lo
            if x2 > hi + eps:
                out.append((start, hi, max(h, top)))
                out.append((hi, x2, h))
            else:
                out.append((start, x2, max(h, top)))
        merged = [list(out[0])]
        anchor = out[0][2]
        for x1, x2, h in out[1:]:
            if abs(h - anchor) <= eps:
                merged[-1][1] = x2
            else:
                merged.append([x1, x2, h])
                anchor = h
        self.runs = [(x1, x2, h) for x1, x2, h in merged]

    def height_at(self, x: float) -> float:
        hits = [h for x1, x2, h in self.runs
                if x1 - self.eps <= x <= x2 + self.eps]
        return max(0.0, max(hits)) if hits else 0.0

    def area_under(self) -> float:
        return sum((x2 - x1) * h for x1, x2, h in self.runs)

    def distinct_heights(self) -> list[float]:
        kept: list[float] = []
        for h in sorted(h for _x1, _x2, h in self.runs):
            if not kept or abs(h - kept[-1]) > self.eps:
                kept.append(h)
        return kept


def _random_rects(rng: random.Random, n: int) -> list[Rect]:
    rects = []
    for _ in range(n):
        if rng.random() < 0.6:          # integer grid: exercises merges
            x = float(rng.randint(0, 18))
            w = float(rng.randint(1, 6))
            y = float(rng.randint(0, 4))
            h = float(rng.randint(1, 6))
        else:                            # float coords: exercises eps logic
            x = rng.uniform(0.0, 18.0)
            w = rng.uniform(0.3, 6.0)
            y = rng.uniform(0.0, 4.0)
            h = rng.uniform(0.3, 6.0)
        rects.append(Rect(x, y, w, h))
    return rects


def _assert_skyline_parity(rects: list[Rect], span: tuple[float, float]) -> None:
    sky = Skyline(*span)
    ref = RefSkyline(*span)
    for r in rects:
        sky.add_rect(r)
        ref.add_rect(r)
        got = [(s.x1, s.x2, s.height) for s in sky.steps]
        assert got == ref.runs  # byte parity after every insertion
    assert sky.area_under() == ref.area_under()
    assert sky.distinct_heights() == ref.distinct_heights()
    for x in np.linspace(span[0], span[1], 23):
        assert sky.height_at(float(x)) == ref.height_at(float(x))


def _ref_horizontal_cuts(sky: Skyline, eps: float = GEOM_EPS) -> list[Rect]:
    """Per-step scalar reference of the Figure-4 edge-cut decomposition."""
    heights = [h for h in sky.distinct_heights() if h > eps]
    rects: list[Rect] = []
    prev = 0.0
    for h in heights:
        run_start = None
        steps = list(sky.steps)
        for i, step in enumerate(steps):
            tall = step.height >= h - eps
            if tall and run_start is None:
                run_start = step.x1
            if run_start is not None and (not tall or i == len(steps) - 1):
                end = step.x1 if not tall else step.x2
                rects.append(Rect(run_start, prev, end - run_start, h - prev))
                run_start = None
        prev = h
    return rects


def _ref_merge(rects: list[Rect], eps: float = GEOM_EPS) -> list[Rect]:
    """Quadratic scalar reference of the overlap-merge containment scan."""
    extended = sorted((Rect(r.x, 0.0, r.w, r.y2) for r in rects),
                      key=lambda r: r.area, reverse=True)
    kept: list[Rect] = []
    for r in extended:
        if not any(k.x - eps <= r.x and k.y - eps <= r.y
                   and r.x2 <= k.x2 + eps and r.y2 <= k.y2 + eps
                   for k in kept):
            kept.append(r)
    return kept


class TestGeometryParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_skyline_parity_seeded(self, seed):
        rng = random.Random(seed * 83 + 11)
        span = (0.0, 24.0)
        _assert_skyline_parity(_random_rects(rng, rng.randint(1, 14)), span)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10**9),
           n=st.integers(min_value=1, max_value=10))
    def test_skyline_parity_hypothesis(self, seed, n):
        _assert_skyline_parity(_random_rects(random.Random(seed), n),
                               (0.0, 24.0))

    @pytest.mark.parametrize("seed", range(25))
    def test_covering_parity_seeded(self, seed):
        rng = random.Random(seed * 389 + 7)
        sky = Skyline(0.0, 24.0)
        for r in _random_rects(rng, rng.randint(1, 12)):
            sky.add_rect(r)
        cuts = horizontal_cut_decomposition(sky)
        assert [(r.x, r.y, r.w, r.h) for r in cuts] == \
            [(r.x, r.y, r.w, r.h) for r in _ref_horizontal_cuts(sky)]
        merged = merge_covering_rectangles(cuts)
        assert [(r.x, r.y, r.w, r.h) for r in merged] == \
            [(r.x, r.y, r.w, r.h) for r in _ref_merge(cuts)]


# ---------------------------------------------------------------------------
# solve_many vs sequential solve
# ---------------------------------------------------------------------------


def _batch_models(n: int, seed: int = 0) -> list[Model]:
    return [generate_model(random.Random(seed * 7919 + i)) for i in range(n)]


def _assert_solutions_equal(batch, sequential) -> None:
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        assert got.status is want.status
        if want.status.has_solution:
            assert got.objective == want.objective
            assert got.bound == want.bound
            assert {v.name: x for v, x in got.values.items()} == \
                {v.name: x for v, x in want.values.items()}
        elif not math.isnan(want.objective):
            assert got.objective == want.objective
        assert got.n_nodes == want.n_nodes
        assert got.backend == want.backend


class TestSolveManyParity:
    @pytest.mark.parametrize("backend", ["highs", "bnb"])
    def test_serial_equals_sequential(self, backend):
        models = _batch_models(6, seed=1)
        sequential = [solve(m, backend=backend, time_limit=20.0)
                      for m in models]
        batch = solve_many(models, backend=backend, time_limit=20.0)
        _assert_solutions_equal(batch, sequential)
        for i, sol in enumerate(batch):
            assert sol.telemetry.batch == {"size": len(models), "index": i}

    def test_serial_cache_accounting_matches(self):
        # Duplicate instances make the hit/miss interleaving observable:
        # item order decides which occurrence misses and which hits.
        base = _batch_models(3, seed=2)
        models = [base[0], base[1], base[0], base[2], base[1]]
        seq_cache = SolveCache(None)
        sequential = [solve(m, time_limit=20.0, cache=seq_cache)
                      for m in models]
        batch_cache = SolveCache(None)
        batch = solve_many(models, time_limit=20.0, cache=batch_cache)
        _assert_solutions_equal(batch, sequential)

        def counters(stats):  # key_seconds is wall clock, not accounting
            doc = stats.to_dict()
            doc.pop("key_seconds")
            return doc

        assert counters(batch_cache.stats) == counters(seq_cache.stats)
        assert batch_cache.stats.hits >= 2      # the duplicates hit
        # Hit provenance rides the same telemetry either way.
        for got, want in zip(batch, sequential):
            got_cache = got.telemetry.cache if got.telemetry else None
            want_cache = want.telemetry.cache if want.telemetry else None
            assert (got_cache or {}).get("hit") == \
                (want_cache or {}).get("hit")

    def test_parallel_matches_serial(self):
        models = _batch_models(5, seed=3)
        serial = solve_many(models, time_limit=20.0, workers=1)
        parallel = solve_many(models, time_limit=20.0, workers=2)
        _assert_solutions_equal(parallel, serial)
        for i, sol in enumerate(parallel):
            assert sol.telemetry.batch == {"size": len(models), "index": i}

    def test_presolve_and_warm_start_thread_through(self):
        # bnb: the registry leaves HiGHS to its own presolve.
        models = _batch_models(4, seed=4)
        sequential = [solve(m, backend="bnb", time_limit=20.0, presolve=True)
                      for m in models]
        batch = solve_many(models, backend="bnb", time_limit=20.0,
                           presolve=True)
        _assert_solutions_equal(batch, sequential)

    def test_capture_mode_isolates_errors(self):
        models = _batch_models(3, seed=5)
        bad = Model("bad")
        x = bad.add_binary("x")
        bad.set_objective(x, sense="min")
        batch = solve_many([models[0], bad, models[1]],
                           backend="no-such-backend", on_error="capture")
        assert all(s.status is SolveStatus.ERROR for s in batch)
        assert all(s.message.startswith("raised ") for s in batch)
        with pytest.raises(Exception):
            solve_many([bad], backend="no-such-backend", on_error="raise")
