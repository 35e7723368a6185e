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

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.topology as topology
from repro.core.config import Linearization
from repro.core.flexible import linearize, linearize_at
from repro.core.placement import Placement
from repro.core.shape_refine import refine_shapes
from repro.core.topology import derive_relations, optimize_topology
from repro.geometry.rect import Rect
from repro.milp.cache import BLOB_VERSION, canonical_form_key, canonical_form_text
from repro.milp.expr import LinExpr, Variable, VarKind
from repro.milp.model import Model, StandardForm
from repro.netlist.module import Module

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
