"""Unit tests for the expression algebra and model construction."""

import math

import pytest

from repro.milp.expr import VarKind, lin_sum
from repro.milp.model import Model, Sense


@pytest.fixture
def model() -> Model:
    return Model("t")


class TestAlgebra:
    def test_variable_to_expr(self, model):
        x = model.add_continuous("x")
        expr = x.to_expr()
        assert expr.terms == {x: 1.0}
        assert expr.constant == 0.0

    def test_addition(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = x + 2 * y + 3
        assert expr.terms[x] == 1.0
        assert expr.terms[y] == 2.0
        assert expr.constant == 3.0

    def test_subtraction_and_negation(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = -(x - y) + 1
        assert expr.terms[x] == -1.0
        assert expr.terms[y] == 1.0
        assert expr.constant == 1.0

    def test_rsub(self, model):
        x = model.add_continuous("x")
        expr = 5 - x
        assert expr.terms[x] == -1.0
        assert expr.constant == 5.0

    def test_scalar_multiplication_both_sides(self, model):
        x = model.add_continuous("x")
        assert (3 * x).terms[x] == 3.0
        assert (x * 3).terms[x] == 3.0
        assert (x / 2).terms[x] == 0.5

    def test_coefficient_merging(self, model):
        x = model.add_continuous("x")
        expr = x + x + 2 * x
        assert expr.terms[x] == 4.0

    def test_value_evaluation(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = 2 * x - y + 1
        assert expr.value({x: 3.0, y: 4.0}) == 3.0

    def test_lin_sum(self, model):
        xs = [model.add_continuous(f"x{i}") for i in range(5)]
        expr = lin_sum(2 * x for x in xs)
        assert all(expr.terms[x] == 2.0 for x in xs)

    def test_lin_sum_with_constants(self, model):
        x = model.add_continuous("x")
        expr = lin_sum([x, 3, 2 * x, -1])
        assert expr.terms[x] == 3.0
        assert expr.constant == 2.0

    def test_simplified_drops_zeros(self, model):
        x = model.add_continuous("x")
        y = model.add_continuous("y")
        expr = (x + y - y).simplified()
        assert y not in expr.terms

    def test_comparison_builds_constraint(self, model):
        x = model.add_continuous("x")
        con = x + 1 <= 5
        assert con.sense is Sense.LE
        assert con.expr.constant == -4.0

    def test_ge_and_eq(self, model):
        x = model.add_continuous("x")
        assert (x >= 2).sense is Sense.GE
        assert (x == 2).sense is Sense.EQ


class TestModel:
    def test_binary_bounds_clamped(self, model):
        z = model.add_binary("z")
        assert (z.lb, z.ub) == (0.0, 1.0)
        assert z.is_integral

    def test_bad_bounds_rejected(self, model):
        with pytest.raises(ValueError):
            model.add_var("x", lb=3.0, ub=1.0)

    def test_counts(self, model):
        model.add_continuous("x")
        model.add_binary("z")
        assert model.n_variables == 2
        assert model.n_integer_variables == 1
        assert not model.is_pure_lp()

    def test_foreign_variable_rejected(self, model):
        other = Model("other")
        x = other.add_continuous("x")
        with pytest.raises(ValueError):
            model.add_constraint(x >= 0)

    def test_add_rows_rejects_a_foreign_variable_atomically(self, model):
        x = model.add_continuous("x")
        y = Model("other").add_continuous("y")
        with pytest.raises(ValueError, match="not owned"):
            model.add_rows([{x: 1.0}, {y: 1.0}], "<=", [1.0, 2.0], ["a", "b"])
        with pytest.raises(ValueError):
            model.add_rows([{x: 1.0}], "<=", [1.0, 2.0], ["a"])
        assert model.n_constraints == 0
        assert model.to_standard_form().a_matrix.shape == (0, 1)

    def test_add_rows_sparse_rows(self, model):
        x = model.add_continuous("x")
        z = model.add_binary("z")
        model.add_constraint(x + z >= 1, name="first")
        model.add_rows([{x: 2.0, z: 0.0}, {z: -1.0}, {}], ["<=", "==", ">="],
                       [4.0, -1.0, 0.0], ["a", "b", "c"])
        form = model.to_standard_form()
        assert form.a_matrix.nnz == 4  # the zero is dropped
        assert form.a_matrix.toarray().tolist() == \
            [[1.0, 1.0], [2.0, 0.0], [0.0, -1.0], [0.0, 0.0]]
        assert form.row_lb.tolist() == [1.0, -math.inf, -1.0, 0.0]
        assert form.row_ub.tolist() == [math.inf, 4.0, -1.0, math.inf]
        first, a, b, c = model.constraints
        assert first.name == "first"
        assert (a.name, a.sense, a.expr.terms, a.expr.constant) == \
            ("a", Sense.LE, {x: 2.0}, -4.0)
        assert (b.name, b.sense, b.expr.terms, b.expr.constant) == \
            ("b", Sense.EQ, {z: -1.0}, 1.0)
        assert (c.name, c.sense, c.expr.terms) == ("c", Sense.GE, {})

    def test_add_row_block_padded_rows(self, model):
        """Fixed-width rows padded with column -1, between scalar rows;
        zero coefficients and padding reach neither the matrix nor the
        Constraint view, and each row keeps its terms' order."""
        x = model.add_continuous("x")
        z, w = model.add_binaries(["z", "w"])
        assert [(v.name, v.index, v.lb, v.ub, v.kind) for v in (z, w)] == \
            [("z", 1, 0.0, 1.0, VarKind.BINARY),
             ("w", 2, 0.0, 1.0, VarKind.BINARY)]
        model.add_constraint(x + z >= 1, name="first")
        model.add_row_block([w.index, x.index, -1, z.index, -1, -1],
                            [3.0, 2.0, 0.0, 0.0, 7.0, 0.0],
                            [Sense.LE, Sense.EQ], [4.0, -0.0], ["a", "b"])
        model.add_row_block([], [], [], [], [])
        model.add_constraint(x <= 9, name="last")
        form = model.to_standard_form()
        assert form.a_matrix.toarray().tolist() == \
            [[1.0, 1.0, 0.0], [2.0, 0.0, 3.0], [0.0, 0.0, 0.0],
             [1.0, 0.0, 0.0]]
        assert form.a_matrix.indices.tolist() == [0, 1, 0, 2, 0]
        assert form.row_ub.tolist()[1:] == [4.0, -0.0, 9.0]
        _first, a, b, _last = model.constraints
        assert list(a.expr.terms.items()) == [(w, 3.0), (x, 2.0)]
        assert (b.name, b.sense, b.expr.terms) == ("b", Sense.EQ, {})

    def test_add_row_block_rejects_bad_shapes_and_columns(self, model):
        x = model.add_continuous("x")
        with pytest.raises(ValueError, match="equal width"):
            model.add_row_block([x.index, -1, x.index], [1.0, 0.0, 1.0],
                                [Sense.LE, Sense.LE], [1.0, 2.0], ["a", "b"])
        with pytest.raises(ValueError, match="does not own"):
            model.add_row_block([x.index + 1], [1.0], [Sense.LE], [1.0],
                                ["a"])
        assert model.n_constraints == 0
        model.add_row_block([x.index, x.index], [1.0, 2.0], [Sense.LE],
                            [1.0], ["twice"])
        with pytest.raises(ValueError, match="'twice' names a column twice"):
            model.to_standard_form()

    def test_non_constraint_rejected(self, model):
        with pytest.raises(TypeError):
            model.add_constraint(True)  # comparison accidentally boolean

    def test_check_assignment(self, model):
        x = model.add_continuous("x")
        model.add_constraint(x <= 5, name="cap")
        assert model.check_assignment({x: 4.0}) == []
        violated = model.check_assignment({x: 7.0})
        assert len(violated) == 1 and violated[0].name == "cap"

    def test_constraint_violation_amount(self, model):
        x = model.add_continuous("x")
        con = model.add_constraint(x <= 5)
        assert con.violation({x: 7.0}) == pytest.approx(2.0)
        assert con.violation({x: 5.0}) == 0.0

    def test_standard_form_shapes(self, model):
        x = model.add_continuous("x", ub=10)
        z = model.add_binary("z")
        model.add_constraint(x + 2 * z <= 4)
        model.add_constraint(x - z >= 1)
        model.add_constraint(x + z == 3)
        model.set_objective(x + z)
        form = model.to_standard_form()
        assert form.a_matrix.shape == (3, 2)
        assert form.integrality.tolist() == [0, 1]
        assert form.row_ub[0] == 4.0 and math.isinf(form.row_lb[0])
        assert form.row_lb[1] == 1.0 and math.isinf(form.row_ub[1])
        assert form.row_lb[2] == form.row_ub[2] == 3.0

    def test_standard_form_max_negates(self, model):
        x = model.add_continuous("x", ub=1)
        model.set_objective(3 * x, "max")
        form = model.to_standard_form()
        assert form.maximize
        assert form.c.tolist() == [-3.0]

    def test_constraint_naming(self, model):
        x = model.add_continuous("x")
        model.add_constraints([x <= 1, x <= 2], prefix="cap")
        assert [c.name for c in model.constraints] == ["cap0", "cap1"]

    def test_rhs_constant_folding(self, model):
        x = model.add_continuous("x")
        model.add_constraint(x + 3 <= 10)
        form = model.to_standard_form()
        assert form.row_ub[0] == 7.0
