"""Expression AST: rendering, binding resolution, compilation details."""

import pytest

from repro.engine.expr import (
    And,
    Binding,
    ColumnRef,
    Comparison,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    Slot,
    and_together,
    conjuncts_of,
)
from repro.engine.expr_compile import compile_row_expr
from repro.engine.sql.parser import parse_expression
from repro.engine.types import INTEGER, VARCHAR
from repro.engine.udf import FunctionRegistry
from repro.errors import ExecutionError, PlanError


@pytest.fixture()
def binding():
    return Binding([
        Slot("t", "a", INTEGER),
        Slot("t", "b", VARCHAR),
        Slot("u", "a", INTEGER),
        Slot("u", "c", VARCHAR),
    ])


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestBinding:
    def test_qualified_resolution(self, binding):
        assert binding.resolve(ColumnRef("t", "a")) == 0
        assert binding.resolve(ColumnRef("u", "a")) == 2

    def test_unqualified_unique(self, binding):
        assert binding.resolve(ColumnRef(None, "b")) == 1

    def test_unqualified_ambiguous(self, binding):
        with pytest.raises(PlanError):
            binding.resolve(ColumnRef(None, "a"))

    def test_unknown_column(self, binding):
        with pytest.raises(PlanError):
            binding.resolve(ColumnRef("t", "ghost"))

    def test_case_insensitive(self, binding):
        assert binding.resolve(ColumnRef("T", "B")) == 1

    def test_extend_concatenates(self, binding):
        extended = binding.extend(Binding([Slot("v", "z", INTEGER)]))
        assert extended.resolve(ColumnRef("v", "z")) == 4

    def test_can_resolve(self, binding):
        assert binding.can_resolve(ColumnRef("t", "a"))
        assert not binding.can_resolve(ColumnRef(None, "a"))


class TestConjuncts:
    def test_split_nested_ands(self):
        expr = parse_expression("a = 1 AND (b = 2 AND c = 3)")
        assert len(conjuncts_of(expr)) == 3

    def test_or_not_split(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert conjuncts_of(expr) == [expr]

    def test_none_yields_empty(self):
        assert conjuncts_of(None) == []

    def test_and_together_roundtrip(self):
        expr = parse_expression("a = 1 AND b = 2")
        parts = conjuncts_of(expr)
        assert conjuncts_of(and_together(parts)) == parts

    def test_and_together_singleton(self):
        single = parse_expression("a = 1")
        assert and_together([single]) is single
        assert and_together([]) is None


class TestCompilation:
    def run(self, text, binding, registry, row):
        return compile_row_expr(parse_expression(text), binding, registry)(row)

    def test_comparison(self, binding, registry):
        assert self.run("t.a < 5", binding, registry, (3, "x", 9, "y"))
        assert not self.run("t.a < 5", binding, registry, (7, "x", 9, "y"))

    def test_like(self, binding, registry):
        assert self.run("b LIKE 'rom%'", binding, registry, (1, "romeo", 2, ""))

    def test_not_like(self, binding, registry):
        assert self.run("b NOT LIKE 'x%'", binding, registry, (1, "romeo", 2, ""))
        assert not self.run("b NOT LIKE 'x%'", binding, registry, (1, None, 2, ""))

    def test_is_null(self, binding, registry):
        assert self.run("b IS NULL", binding, registry, (1, None, 2, ""))
        assert self.run("b IS NOT NULL", binding, registry, (1, "x", 2, ""))

    def test_arithmetic_null_propagates(self, binding, registry):
        assert self.run("t.a + 1", binding, registry, (None, "", 0, "")) is None

    def test_integer_division(self, binding, registry):
        assert self.run("t.a / 2", binding, registry, (7, "", 0, "")) == 3

    def test_division_by_zero_raises(self, binding, registry):
        with pytest.raises(ExecutionError):
            self.run("t.a / 0", binding, registry, (7, "", 0, ""))

    def test_negate(self, binding, registry):
        assert self.run("-t.a", binding, registry, (7, "", 0, "")) == -7
        assert self.run("-t.a", binding, registry, (None, "", 0, "")) is None

    def test_negate_text_raises(self, binding, registry):
        with pytest.raises(ExecutionError):
            compile_row_expr(
                Negate(ColumnRef("t", "b")), binding, registry
            )((1, "text", 2, ""))

    def test_function_call(self, binding, registry):
        assert self.run("length(b)", binding, registry, (1, "romeo", 2, "")) == 5

    def test_logical_short_circuit_shapes(self, binding, registry):
        assert self.run("t.a = 1 OR u.a = 2", binding, registry, (9, "", 2, ""))
        assert not self.run(
            "t.a = 1 AND u.a = 2", binding, registry, (9, "", 2, "")
        )

    def test_not(self, binding, registry):
        assert self.run("NOT t.a = 1", binding, registry, (9, "", 0, ""))

    def test_star_outside_count_rejected(self, binding, registry):
        from repro.engine.expr import Star

        with pytest.raises(PlanError):
            compile_row_expr(Star(), binding, registry)

    def test_bare_aggregate_rejected(self, binding, registry):
        with pytest.raises(PlanError):
            compile_row_expr(
                FuncCall("count", (ColumnRef("t", "a"),)), binding, registry
            )


class TestSqlRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "a = 1",
            "a <> 'x'",
            "a LIKE '%y%'",
            "a IS NOT NULL",
            "NOT (a = 1)",
            "(a = 1) AND (b = 2)",
            "(a = 1) OR (b = 2)",
            "f(a, 'lit', 3)",
        ],
    )
    def test_parse_render_parse_fixpoint(self, text):
        first = parse_expression(text)
        second = parse_expression(first.sql())
        assert first == second

    def test_string_escaping_in_render(self):
        expr = Comparison("=", ColumnRef(None, "a"), Literal("it's"))
        assert "''" in expr.sql()
        assert parse_expression(expr.sql()) == expr

    def test_null_literal_renders(self):
        assert Literal(None).sql() == "NULL"
