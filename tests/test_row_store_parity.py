"""Array-native model build and cache key against their per-row references.

The topology LP is one ``add_rows`` block and the cache key is formatted
from CSR arrays.  Each keeps its old per-row code here as the reference it
must equal exactly:

* ``canonical_form_text`` takes each row's scale and sign from NumPy and
  formats every number in one %-format call; the reference walks the rows
  and formats each number with ``format(value, ".12g")``.  The texts must be
  ``==`` on forms with explicit zeros, duplicate and unsorted entries,
  negative leading coefficients, empty rows, infinite and -0.0 bounds and
  magnitudes from 1e-300 to 1e300, and keying must leave the form's arrays
  as they were.
* ``optimize_topology`` builds its relation and chip rows as one block; the
  reference builds each row with the ``LinExpr`` algebra.  The standard
  forms must be equal array for array, and the rows must carry the same
  names and senses, under each flexible height model the LP is given: the
  default secant, the paper's tangent, or a tangent about a width in range
  (the model ``refine_shapes`` hands it each round).
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.topology as topology
from repro.core.config import FloorplanConfig, Linearization, Objective
from repro.core.flexible import linearize, linearize_at
from repro.core.formulation import SubproblemBuilder
from repro.core.placement import Placement
from repro.core.shape_refine import refine_shapes
from repro.core.topology import derive_relations, optimize_topology
from repro.geometry.rect import GEOM_EPS, Rect
from repro.milp.cache import BLOB_VERSION, canonical_form_key, canonical_form_text
from repro.milp.expr import LinExpr, Variable, VarKind
from repro.milp.lpformat import write_lp
from repro.milp.model import Model, StandardForm
from repro.netlist.module import Module, PinCounts

# ---------------------------------------------------------------------------
# references: the per-row code the array paths replaced
# ---------------------------------------------------------------------------


def reference_q(value: float) -> str:
    """One float quantized to 12 significant digits."""
    if math.isnan(value):
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    if value == 0.0:
        return "0"
    return format(value, ".12g")


def reference_form_text(form: StandardForm, context: tuple = ()) -> str:
    """The canonical text, one row at a time (on a copy of the matrix:
    this loop used to sum the caller's duplicates in place)."""
    lines = [f"cachev{BLOB_VERSION}",
             "ctx=" + "|".join(str(item) for item in context)]
    lines.append("vars=" + ";".join(
        f"{v.kind.value[0]}:{reference_q(lo)}:{reference_q(hi)}"
        for v, lo, hi in zip(form.variables, form.lb, form.ub)))
    lines.append("obj=" + ",".join(reference_q(c) for c in form.c)
                 + f"|{reference_q(form.c0)}|{int(form.maximize)}")
    a = form.a_matrix.tocsr(copy=True)
    a.sum_duplicates()
    rows: list[str] = []
    for i in range(a.shape[0]):
        start, end = a.indptr[i], a.indptr[i + 1]
        pairs = sorted((int(c), float(v))
                       for c, v in zip(a.indices[start:end],
                                       a.data[start:end]) if v != 0.0)
        lo, hi = float(form.row_lb[i]), float(form.row_ub[i])
        if pairs:
            scale = max(abs(v) for _c, v in pairs)
            if pairs[0][1] < 0.0:
                scale = -scale
            pairs = [(c, v / scale) for c, v in pairs]
            lo, hi = lo / scale, hi / scale
            if scale < 0.0:
                lo, hi = hi, lo
        rows.append(",".join(f"{c}:{reference_q(v)}" for c, v in pairs)
                    + f"|{reference_q(lo)}|{reference_q(hi)}")
    rows.sort()
    lines.append("rows:")
    lines.extend(rows)
    return "\n".join(lines)


def reference_topology_model(placements, relations, *, max_chip_width=None,
                             resize_flexible=True, fixed_names=frozenset(),
                             flex_linearizations=None) -> Model:
    """The given-topology LP with one ``LinExpr`` comparison per row; a
    flexible module ``flex_linearizations`` does not name takes the
    secant."""
    model = Model("topology_lp")
    current_w = max((p.envelope.x2 for p in placements), default=1.0)
    current_h = max((p.envelope.y2 for p in placements), default=1.0)
    width_cap = float("inf") if max_chip_width is None \
        else max_chip_width * (1.0 + 1e-6) + 1e-9
    width_var = model.add_continuous("chip_width", lb=0.0, ub=width_cap)
    height_var = model.add_continuous("chip_height", lb=0.0)
    xs, ys, env_widths, env_heights = {}, {}, {}, {}
    for p in placements:
        name = p.name
        if name in fixed_names:
            xs[name] = model.add_continuous(f"x[{name}]", lb=p.envelope.x,
                                            ub=p.envelope.x)
            ys[name] = model.add_continuous(f"y[{name}]", lb=p.envelope.y,
                                            ub=p.envelope.y)
            env_widths[name] = LinExpr({}, p.envelope.w)
            env_heights[name] = LinExpr({}, p.envelope.h)
            continue
        xs[name] = model.add_continuous(f"x[{name}]", lb=0.0)
        ys[name] = model.add_continuous(f"y[{name}]", lb=0.0)
        margin_w = p.envelope.w - p.rect.w
        margin_h = p.envelope.h - p.rect.h
        if p.module.flexible and resize_flexible:
            if flex_linearizations and name in flex_linearizations:
                flex = flex_linearizations[name]
            else:
                flex = linearize(p.module, Linearization.SECANT)
            dw = model.add_continuous(f"dw[{name}]", lb=0.0, ub=flex.dw_max)
            env_widths[name] = LinExpr({dw: -1.0}, flex.w_max + margin_w)
            env_heights[name] = LinExpr({dw: flex.slope}, flex.h0 + margin_h)
        else:
            env_widths[name] = LinExpr({}, p.envelope.w)
            env_heights[name] = LinExpr({}, p.envelope.h)
    for rel in relations:
        if rel.axis == "x":
            model.add_constraint(
                xs[rel.first] + env_widths[rel.first] + rel.gap
                <= xs[rel.second],
                name=f"rel[{rel.first}<{rel.second}]:x")
        else:
            model.add_constraint(
                ys[rel.first] + env_heights[rel.first] + rel.gap
                <= ys[rel.second],
                name=f"rel[{rel.first}<{rel.second}]:y")
    for name in xs:
        model.add_constraint(xs[name] + env_widths[name] <= width_var,
                             name=f"chipw[{name}]")
        model.add_constraint(ys[name] + env_heights[name] <= height_var,
                             name=f"chiph[{name}]")
    model.set_objective(current_h * width_var + current_w * height_var)
    return model


# ---------------------------------------------------------------------------
# the cache key
# ---------------------------------------------------------------------------

_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
_SIGNED = st.builds(lambda m, negative: -m if negative else m,
                    _MAGNITUDES, st.booleans())
_COEFFICIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]), _SIGNED)
_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -3.5]), _SIGNED)
_CONTEXTS = st.lists(st.one_of(st.text(max_size=4), st.integers(),
                               st.floats(allow_nan=False)),
                     max_size=3).map(tuple)


def _matrix_arrays(a) -> list[tuple[str, bytes]]:
    return [(str(part.dtype), part.tobytes())
            for part in (a.indptr, a.indices, a.data)]


@st.composite
def csr_forms(draw) -> StandardForm:
    """A standard form whose CSR matrix holds explicit zeros and duplicate,
    unsorted entries (possibly summing to zero), and may have empty rows."""
    n_cols = draw(st.integers(min_value=1, max_value=5))
    n_rows = draw(st.integers(min_value=0, max_value=6))
    entries = [draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=n_cols - 1),
                  _COEFFICIENTS), max_size=6)) for _ in range(n_rows)]
    indptr = np.cumsum([0] + [len(row) for row in entries])
    indices = np.array([c for row in entries for c, _v in row], dtype=np.int32)
    data = np.array([v for row in entries for _c, v in row], dtype=np.float64)
    a_matrix = sparse.csr_matrix((data, indices, indptr),
                                 shape=(n_rows, n_cols))

    def floats(n: int, values) -> np.ndarray:
        return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=np.float64)

    kinds = draw(st.lists(st.sampled_from(list(VarKind)),
                          min_size=n_cols, max_size=n_cols))
    lb, ub = floats(n_cols, _BOUNDS), floats(n_cols, _BOUNDS)
    variables = tuple(Variable(f"v{j}", j, lb[j], ub[j], kinds[j])
                      for j in range(n_cols))
    return StandardForm(
        c=floats(n_cols, _COEFFICIENTS), c0=draw(_BOUNDS), a_matrix=a_matrix,
        row_lb=floats(n_rows, _BOUNDS), row_ub=floats(n_rows, _BOUNDS),
        lb=lb, ub=ub,
        integrality=np.array([int(k is not VarKind.CONTINUOUS) for k in kinds]),
        variables=variables, maximize=draw(st.booleans()))


class TestKeyParity:
    @settings(max_examples=300, deadline=None)
    @given(form=csr_forms(), context=_CONTEXTS)
    def test_text_equals_the_per_row_reference(self, form, context):
        before = _matrix_arrays(form.a_matrix)
        text = canonical_form_text(form, context)
        assert _matrix_arrays(form.a_matrix) == before
        assert text == reference_form_text(form, context)

    def test_key_leaves_duplicate_unsorted_entries_alone(self):
        """Keying used to sum the caller's CSR matrix in place: ``tocsr()``
        returns a CSR input itself."""
        messy = sparse.csr_matrix(
            (np.array([1.0, 2.0, 0.5]), np.array([1, 0, 1]),
             np.array([0, 3])), shape=(1, 2))
        tidy = sparse.csr_matrix(np.array([[2.0, 1.5]]))
        variables = tuple(Variable(f"v{j}", j, 0.0, 1.0, VarKind.CONTINUOUS)
                          for j in range(2))

        def form(a_matrix):
            return StandardForm(
                c=np.zeros(2), c0=0.0, a_matrix=a_matrix,
                row_lb=np.array([-math.inf]), row_ub=np.array([1.0]),
                lb=np.zeros(2), ub=np.ones(2), integrality=np.zeros(2),
                variables=variables, maximize=False)

        assert canonical_form_key(form(messy)) == canonical_form_key(form(tidy))
        assert messy.nnz == 3
        np.testing.assert_array_equal(messy.indices, [1, 0, 1])
        np.testing.assert_array_equal(messy.data, [1.0, 2.0, 0.5])


# ---------------------------------------------------------------------------
# the topology LP
# ---------------------------------------------------------------------------


class _Built(Exception):
    """Carries the model ``optimize_topology`` built, in place of a solve."""


def built_topology_model(run, *args, **kwargs) -> Model:
    """The model ``run(*args, **kwargs)`` hands ``optimize_topology``'s
    solve first."""
    def capture(model, **_solve_kwargs):
        raise _Built(model)

    with mock.patch.object(topology, "solve", capture):
        with pytest.raises(_Built) as built:
            run(*args, **kwargs)
    return built.value.args[0]


def _assert_same_model(got: Model, want: Model) -> None:
    a, b = got.to_standard_form(), want.to_standard_form()
    assert a.a_matrix.shape == b.a_matrix.shape
    assert _matrix_arrays(a.a_matrix) == _matrix_arrays(b.a_matrix)
    for part in ("row_lb", "row_ub", "c", "lb", "ub", "integrality"):
        x, y = getattr(a, part), getattr(b, part)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), part
    assert (a.c0, a.maximize) == (b.c0, b.maximize)
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert [(c.name, c.sense) for c in got.constraints] \
        == [(c.name, c.sense) for c in want.constraints]


@st.composite
def topology_cases(draw):
    """Random rigid and flexible placements (overlaps allowed, some with
    envelope margins), pinned modules, per-pair gaps, and each flexible
    module's height model: the default secant (not in the map), the
    tangent at its widest shape, or a tangent about a width in range."""
    n = draw(st.integers(min_value=1, max_value=7))
    size = st.floats(min_value=0.5, max_value=6.0)
    spot = st.floats(min_value=0.0, max_value=20.0)
    placements = []
    flex_linearizations = {}
    for i in range(n):
        w, h, x, y = draw(size), draw(size), draw(spot), draw(spot)
        if draw(st.booleans()):
            module = Module.flexible_area(f"m{i}", w * h, aspect_low=0.25,
                                          aspect_high=4.0)
            height_model = draw(st.sampled_from(["secant", "tangent", "at"]))
            if height_model == "tangent":
                flex_linearizations[module.name] = linearize(
                    module, Linearization.TANGENT)
            elif height_model == "at":
                flex_linearizations[module.name] = linearize_at(
                    module, draw(st.floats(min_value=module.width_min,
                                           max_value=module.width_max)))
        else:
            module = Module.rigid(f"m{i}", w, h)
        margin = draw(st.sampled_from([0.0, 0.25, 1.0]))
        placements.append(Placement(
            module, Rect(x + margin, y + margin, w, h),
            envelope=Rect(x, y, w + 2 * margin, h + 2 * margin)))
    names = [p.name for p in placements]
    fixed = frozenset(draw(st.sets(st.sampled_from(names))))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.25]), min_size=1))
    options = dict(
        max_chip_width=draw(st.one_of(st.none(), st.floats(1.0, 50.0))),
        resize_flexible=draw(st.booleans()), fixed_names=fixed,
        flex_linearizations=flex_linearizations)
    return placements, gaps, options


class TestTopologyParity:
    @settings(max_examples=150, deadline=None)
    @given(case=topology_cases())
    def test_rows_equal_the_linexpr_algebra(self, case):
        placements, gaps, options = case
        calls = []

        def gap_fn(first, second, axis):
            calls.append((first.name, second.name, axis))
            return gaps[len(calls) % len(gaps)]

        relations = derive_relations(placements, gap_fn=gap_fn)
        assert calls == [(r.first, r.second, r.axis) for r in relations]
        got = built_topology_model(optimize_topology, placements, relations,
                                   **options)
        want = reference_topology_model(placements, relations, **options)
        _assert_same_model(got, want)

    def test_refinement_round_is_the_topology_lp(self):
        """``refine_shapes`` solves ``optimize_topology``'s LP with each
        flexible module's tangent about its current width."""
        rigid = Placement(Module.rigid("r", 2.0, 10.0),
                          Rect(0.0, 0.0, 2.0, 10.0))
        flex = Placement(Module.flexible_area("f", 36.0, aspect_low=0.25,
                                              aspect_high=4.0),
                         Rect(2.0, 0.0, 6.0, 6.0))
        placements = [rigid, flex]
        got = built_topology_model(refine_shapes, placements,
                                   max_chip_width=7.5)
        _assert_same_model(got, reference_topology_model(
            placements, derive_relations(placements), max_chip_width=7.5,
            flex_linearizations={"f": linearize_at(flex.module, 6.0)}))

    def test_unknown_module_still_rejected(self):
        placements = [Placement(Module.rigid("a", 1.0, 1.0),
                                Rect(0.0, 0.0, 1.0, 1.0))]
        (rel,) = derive_relations(placements + [Placement(
            Module.rigid("b", 1.0, 1.0), Rect(2.0, 0.0, 1.0, 1.0))])
        with pytest.raises(ValueError, match="unknown module"):
            optimize_topology(placements, [rel])


# ---------------------------------------------------------------------------
# the window model
# ---------------------------------------------------------------------------


class ReferenceBuilder(SubproblemBuilder):
    """The window model with the per-row code the row blocks replaced: one
    ``add_binary`` per binary, each unit's rows as ``{variable:
    coefficient}`` maps through ``add_rows``, and the dominance cuts
    through the ``LinExpr`` algebra."""

    @staticmethod
    def _affine1(expr):
        if not expr.terms:
            return None, 0.0, expr.constant
        (var, coef), = expr.terms.items()
        return var, coef, expr.constant

    def _rows(self, specs, names) -> None:
        self.model.add_rows(
            [{var: coef for var, coef in terms if var is not None}
             for terms, _b, _sense in specs],
            [sense for _t, _b, sense in specs], [b for _t, b, _s in specs],
            names)

    def _add_pairwise_non_overlap(self, _modules) -> None:
        unary = self.config.formulation == "unary"
        mw, mh = self._width_big_m, self._height_big_m
        names = list(self._window)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                wi, wj = self._window[names[a]], self._window[names[b]]
                pair, tag = (names[a], names[b]), f"{names[a]}|{names[b]}"
                wvar_i, wc_i, w0_i = self._affine1(wi.width)
                hvar_i, hc_i, h0_i = self._affine1(wi.height)
                wvar_j, wc_j, w0_j = self._affine1(wj.width)
                hvar_j, hc_j, h0_j = self._affine1(wj.height)
                dead = self._prune_dominated and wi.min_width + \
                    wj.min_width > self._chip_width_cap + GEOM_EPS
                if not unary:
                    p = self.model.add_binary(f"p[{pair[0]},{pair[1]}]")
                    q = self.model.add_binary(f"q[{pair[0]},{pair[1]}]")
                    self._pair_binaries[pair] = (p, q)
                    self._rows([
                        ([(wi.x, 1.0), (wvar_i, wc_i), (wj.x, -1.0),
                          (p, -mw), (q, -mw)], -w0_i, "<="),
                        ([(wj.x, 1.0), (wvar_j, wc_j), (wi.x, -1.0),
                          (p, mw), (q, -mw)], mw - w0_j, "<="),
                        ([(wi.y, 1.0), (hvar_i, hc_i), (wj.y, -1.0),
                          (p, -mh), (q, mh)], mh - h0_i, "<="),
                        ([(wj.y, 1.0), (hvar_j, hc_j), (wi.y, -1.0),
                          (p, mh), (q, mh)], 2.0 * mh - h0_j, "<=")],
                        [f"no[{tag}]:{d}" for d in _DIRECTIONS])
                    if dead:
                        q.lb = 1.0
                    continue
                z = tuple(self.model.add_binary(f"{d}[{pair[0]},{pair[1]}]")
                          for d in _DIRECTIONS)
                zl, zr, zb, za = z
                self._pair_unary[pair] = z
                self._rows([
                    ([(zl, 1.0), (zr, 1.0), (zb, 1.0), (za, 1.0)], 1.0, "=="),
                    ([(wi.x, 1.0), (wvar_i, wc_i), (wj.x, -1.0), (zl, mw)],
                     mw - w0_i, "<="),
                    ([(wj.x, 1.0), (wvar_j, wc_j), (wi.x, -1.0), (zr, mw)],
                     mw - w0_j, "<="),
                    ([(wi.y, 1.0), (hvar_i, hc_i), (wj.y, -1.0), (zb, mh)],
                     mh - h0_i, "<="),
                    ([(wj.y, 1.0), (hvar_j, hc_j), (wi.y, -1.0), (za, mh)],
                     mh - h0_j, "<=")],
                    [f"no[{tag}]:{d}" for d in ("onehot",) + _DIRECTIONS])
                cuts, cut_names = [], []
                for d, zv, other, min_dim in (
                        ("left", zl, wj.x, wi.min_width),
                        ("right", zr, wi.x, wj.min_width),
                        ("below", zb, wj.y, wi.min_height),
                        ("above", za, wi.y, wj.min_height)):
                    if min_dim > GEOM_EPS:
                        cuts.append(([(other, 1.0), (zv, -min_dim)], 0.0, ">="))
                        cut_names.append(f"vi[{tag}]:{d}")
                for d, zv, wm, other_min in (("left", zl, wi, wj.min_width),
                                             ("right", zr, wj, wi.min_width)):
                    wvar, wc, w0 = self._affine1(wm.width)
                    terms = [(wm.x, 1.0), (wvar, wc), (zv, other_min)]
                    if self.width_var is not None:
                        cuts.append((terms + [(self.width_var, -1.0)], -w0,
                                     "<="))
                    else:
                        cuts.append((terms, self._chip_width_cap - w0, "<="))
                    cut_names.append(f"vi[{tag}]:packw-{d}")
                for d, zv, wm, other_min in (("below", zb, wi, wj.min_height),
                                             ("above", za, wj, wi.min_height)):
                    hvar, hc, h0 = self._affine1(wm.height)
                    cuts.append(([(wm.y, 1.0), (hvar, hc), (zv, other_min),
                                  (self.height_var, -1.0)], -h0, "<="))
                    cut_names.append(f"vi[{tag}]:packh-{d}")
                self._rows(cuts, cut_names)
                if dead:
                    zl.ub = 0.0
                    zr.ub = 0.0

    def _add_obstacle_non_overlap(self, _modules, prune_floor) -> None:
        unary = self.config.formulation == "unary"
        mw, mh = self._width_big_m, self._height_big_m
        for name, wm in self._window.items():
            wvar, wc, w0 = self._affine1(wm.width)
            hvar, hc, h0 = self._affine1(wm.height)
            for k, obs in enumerate(self.obstacles):
                tag = f"{name}|obs{k}"
                left_dead = self._prune_dominated \
                    and wm.min_width > obs.x + GEOM_EPS
                right_dead = self._prune_dominated and obs.x2 + \
                    wm.min_width > self._chip_width_cap + GEOM_EPS
                below_dead = (prune_floor and obs.y <= GEOM_EPS) or (
                    self._prune_dominated
                    and wm.min_height > obs.y + GEOM_EPS)
                if unary:
                    z = tuple(self.model.add_binary(f"{d}[{name},obs{k}]")
                              for d in _DIRECTIONS)
                    zl, zr, zb, za = z
                    self._obstacle_unary[(name, k)] = z
                    ml = max(self._chip_width_cap - obs.x, 0.0)
                    mb = max(self._height_bound - obs.y, 0.0)
                    self._rows([
                        ([(zl, 1.0), (zr, 1.0), (zb, 1.0), (za, 1.0)], 1.0,
                         "=="),
                        ([(wm.x, 1.0), (wvar, wc), (zl, ml)],
                         obs.x + ml - w0, "<="),
                        ([(wm.x, 1.0), (zr, -obs.x2)], 0.0, ">="),
                        ([(wm.y, 1.0), (hvar, hc), (zb, mb)],
                         obs.y + mb - h0, "<="),
                        ([(wm.y, 1.0), (za, -obs.y2)], 0.0, ">=")],
                        [f"no[{tag}]:{d}" for d in ("onehot",) + _DIRECTIONS])
                    for dead, zv in ((left_dead, zl), (right_dead, zr),
                                     (below_dead, zb)):
                        if dead:
                            zv.ub = 0.0
                    if left_dead and right_dead and below_dead:
                        za.lb = 1.0
                    continue
                p = self.model.add_binary(f"p[{name},obs{k}]")
                q = self.model.add_binary(f"q[{name},obs{k}]")
                self._obstacle_binaries[(name, k)] = (p, q)
                self._rows([
                    ([(wm.x, 1.0), (wvar, wc), (p, -mw), (q, -mw)],
                     obs.x - w0, "<="),
                    ([(wm.x, 1.0), (p, -mw), (q, mw)], obs.x2 - mw, ">="),
                    ([(wm.y, 1.0), (hvar, hc), (p, -mh), (q, mh)],
                     mh + obs.y - h0, "<="),
                    ([(wm.y, 1.0), (p, -mh), (q, -mh)], obs.y2 - 2.0 * mh,
                     ">=")],
                    [f"no[{tag}]:{d}" for d in _DIRECTIONS])
                if left_dead and right_dead:
                    q.lb = 1.0
                    if below_dead:
                        p.lb = 1.0
                    continue
                if left_dead:
                    self.model.add_constraint(p + q >= 1,
                                              name=f"cut[{tag}]:noleft")
                if right_dead:
                    self.model.add_constraint(p.to_expr() <= q,
                                              name=f"cut[{tag}]:noright")
                if below_dead:
                    self.model.add_constraint(q.to_expr() <= p,
                                              name=f"cut[{tag}]:floor")

    def _add_chip_bounds(self, _modules) -> None:
        for name, wm in self._window.items():
            wvar, wc, w0 = self._affine1(wm.width)
            hvar, hc, h0 = self._affine1(wm.height)
            chipw = {wm.x: 1.0}
            if wvar is not None:
                chipw[wvar] = wc
            if self.width_var is not None:
                chipw[self.width_var] = -1.0
                chipw_rhs = -w0
            else:
                chipw_rhs = self.chip_width - w0
            chiph = {wm.y: 1.0, self.height_var: -1.0}
            if hvar is not None:
                chiph[hvar] = chiph.get(hvar, 0.0) + hc
            self.model.add_rows([chipw, chiph], "<=", [chipw_rhs, -h0],
                                [f"chipw[{name}]", f"chiph[{name}]"])


_DIRECTIONS = ("left", "right", "below", "above")


@st.composite
def window_cases(draw):
    """A window of rigid, rotatable and flexible modules (some with pins,
    so envelopes widen them) over zero to five obstacles — floor-level,
    raised, overlapping, poking past the chip — under either encoding,
    every objective, presolve on or off, floor pruning on or off, and an
    outline cap that the obstacles may already exceed."""
    size = st.floats(min_value=0.5, max_value=8.0)
    window = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        pins = PinCounts(*draw(st.lists(st.integers(0, 3), min_size=4,
                                        max_size=4)))
        kind = draw(st.sampled_from(["rigid", "fixed", "flex", "square"]))
        if kind == "flex":
            window.append(Module.flexible_area(
                f"m{i}", draw(size) * draw(size),
                aspect_low=draw(st.sampled_from([0.25, 0.5, 1.0])),
                aspect_high=draw(st.sampled_from([1.0, 2.0, 4.0])),
                pins=pins))
        else:
            w = draw(size)
            window.append(Module.rigid(
                f"m{i}", w, w if kind == "square" else draw(size),
                rotatable=kind != "fixed", pins=pins))
    chip_width = draw(st.floats(min_value=2.0, max_value=20.0))
    spot = st.floats(min_value=0.0, max_value=chip_width)
    obstacles = [Rect(draw(spot), draw(st.sampled_from([0.0, 0.0, 1.5]))
                      + draw(st.floats(0.0, 10.0)), draw(size), draw(size))
                 for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    config = FloorplanConfig(
        formulation=draw(st.sampled_from(["bigm", "unary"])),
        allow_rotation=draw(st.booleans()),
        use_envelopes=draw(st.booleans()),
        objective=draw(st.sampled_from(list(Objective))),
        linearization=draw(st.sampled_from(list(Linearization))),
        presolve=draw(st.booleans()))
    flex = [m for m in window if m.flexible]
    overrides = {m.name: linearize_at(m, draw(st.floats(m.width_min,
                                                        m.width_max)))
                 for m in flex if draw(st.booleans())}
    top = max((o.y2 for o in obstacles), default=0.0)
    kwargs = dict(
        pair_weights={(a.name, b.name): 1.0 for a, b in
                      itertools.combinations(window, 2)},
        flex_linearizations=overrides,
        base_height=draw(st.sampled_from([0.0, top, top + 1.0])),
        prune_floor_obstacles=draw(st.booleans()),
        outline_height=draw(st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=top + 20.0))))
    return window, obstacles, chip_width, config, kwargs


def _constraint_view(model: Model) -> list:
    """Each row as ``model.constraints`` shows it: name, sense, terms in
    order and constant (``repr`` keeps the sign of a zero)."""
    return [(c.name, c.sense,
             [(v.name, repr(coef)) for v, coef in c.expr.terms.items()],
             repr(c.expr.constant)) for c in model.constraints]


def _bookkeeping(builder) -> list:
    """What decode, encode and the warm starts read besides the model."""
    return [{key: tuple(v.name for v in binaries)
             for key, binaries in table.items()}
            for table in (builder._pair_binaries, builder._obstacle_binaries,
                          builder._pair_unary, builder._obstacle_unary)]


class TestWindowParity:
    @settings(max_examples=300, deadline=None)
    @given(case=window_cases())
    def test_blocks_equal_the_per_row_reference(self, case):
        window, obstacles, chip_width, config, kwargs = case
        got = SubproblemBuilder(window, obstacles, chip_width, config,
                                **kwargs)
        want = ReferenceBuilder(window, obstacles, chip_width, config,
                                **kwargs)
        _assert_same_model(got.model, want.model)
        assert [(v.kind, v.lb, v.ub) for v in got.model.variables] \
            == [(v.kind, v.lb, v.ub) for v in want.model.variables]
        assert _constraint_view(got.model) == _constraint_view(want.model)
        assert write_lp(got.model) == write_lp(want.model)
        assert _bookkeeping(got) == _bookkeeping(want)

    def test_cases_reach_every_row_kind(self):
        """The strategy is not vacuous: a fixed draw of cases yields every
        dominance cut, the outline cap and both encodings' rows."""
        kinds = set()

        @settings(max_examples=300, deadline=None, database=None)
        @given(case=window_cases())
        def collect(case):
            window, obstacles, chip_width, config, kwargs = case
            model = SubproblemBuilder(window, obstacles, chip_width, config,
                                      **kwargs).model
            kinds.update(c.name.split(":")[-1] if ":" in c.name
                         else c.name.split("[")[0]
                         for c in model.constraints)

        collect()
        assert {"noleft", "noright", "floor", "cap", "onehot", "packw-left",
                "left", "chipw", "chiph"} <= kinds
