"""UDF registry: registration, invocation modes, accounting."""

import pytest

from repro.engine.database import Database
from repro.engine.types import INTEGER, XADT
from repro.engine.udf import FunctionKind, FunctionRegistry
from repro.errors import UdfError, XadtMethodError
from repro.obs.metrics import METRICS
from repro.xadt import XadtValue, register_xadt_functions


@pytest.fixture()
def registry():
    return FunctionRegistry()


class TestRegistration:
    def test_builtins_preinstalled(self, registry):
        for name in ("length", "substr", "upper", "lower", "concat"):
            assert registry.has_scalar(name)

    def test_lookup_case_insensitive(self, registry):
        registry.register_scalar("MyFn", lambda: 1, FunctionKind.BUILTIN)
        assert registry.has_scalar("myfn")
        assert registry.scalar("MYFN").name == "MyFn"

    def test_duplicate_scalar_rejected(self, registry):
        registry.register_scalar("f", lambda: 1)
        with pytest.raises(UdfError):
            registry.register_scalar("F", lambda: 2)

    def test_unknown_scalar_rejected(self, registry):
        with pytest.raises(UdfError):
            registry.scalar("ghost")

    def test_table_function_registration(self, registry):
        registry.register_table("gen", lambda n: [(i,) for i in range(n)],
                                [("i", INTEGER)])
        rows = list(registry.call_table("gen", [3]))
        assert rows == [(0,), (1,), (2,)]

    def test_unknown_table_function_rejected(self, registry):
        with pytest.raises(UdfError):
            registry.table_function("ghost")


class TestInvocation:
    def test_arity_enforced(self, registry):
        registry.register_scalar("two", lambda a, b: a + b,
                                 FunctionKind.BUILTIN, 2, 2)
        assert registry.call_scalar("two", [1, 2]) == 3
        with pytest.raises(UdfError):
            registry.call_scalar("two", [1])
        with pytest.raises(UdfError):
            registry.call_scalar("two", [1, 2, 3])

    def test_variadic_max(self, registry):
        registry.register_scalar("any", lambda *a: len(a),
                                 FunctionKind.BUILTIN, 1, None)
        assert registry.call_scalar("any", [1, 2, 3, 4]) == 4

    def test_not_fenced_marshals_strings(self, registry):
        seen = {}

        def capture(value):
            seen["value"] = value
            return value

        registry.register_scalar("cap", capture, FunctionKind.NOT_FENCED, 1, 1)
        original = "hello world"
        registry.call_scalar("cap", [original])
        assert seen["value"] == original
        assert seen["value"] is not original  # physically copied

    def test_not_fenced_marshals_xadt(self, registry):
        seen = {}

        def capture(value):
            seen["value"] = value
            return value

        registry.register_scalar("cap", capture, FunctionKind.NOT_FENCED, 1, 1)
        fragment = XadtValue.from_xml("<s>x</s>")
        registry.call_scalar("cap", [fragment])
        assert seen["value"] == fragment
        assert seen["value"] is not fragment

    def test_fenced_round_trips_result(self, registry):
        registry.register_scalar(
            "echo", lambda v: v, FunctionKind.FENCED, 1, 1
        )
        fragment = XadtValue.from_xml("<s>x</s>")
        result = registry.call_scalar("echo", [fragment])
        assert result == fragment
        assert result is not fragment

    def test_builtin_passes_by_reference(self, registry):
        seen = {}
        registry.register_scalar(
            "cap", lambda v: seen.setdefault("v", v), FunctionKind.BUILTIN, 1, 1
        )
        original = "zero copy"
        registry.call_scalar("cap", [original])
        assert seen["v"] is original


class TestAccounting:
    def test_scalar_calls_counted(self, registry):
        registry.register_scalar("f", lambda: 1, FunctionKind.NOT_FENCED, 0, 0)
        for _ in range(3):
            registry.call_scalar("f", [])
        assert registry.stats.scalar_calls["f"] == 3

    def test_table_calls_counted(self, registry):
        registry.register_table("g", lambda: [(1,)], [("x", INTEGER)])
        registry.call_table("g", [])
        assert registry.stats.table_calls["g"] == 1

    def test_reset(self, registry):
        registry.register_scalar("f", lambda: 1, FunctionKind.NOT_FENCED, 0, 0)
        registry.call_scalar("f", [])
        registry.stats.reset()
        assert registry.stats.total_udf_calls() == 0


class TestBuiltins:
    def test_length_null(self, registry):
        assert registry.call_scalar("length", [None]) is None

    def test_substr_one_based(self, registry):
        assert registry.call_scalar("substr", ["HAMLET", 5]) == "ET"
        assert registry.call_scalar("substr", ["HAMLET", 1, 3]) == "HAM"

    def test_concat_null_propagates(self, registry):
        assert registry.call_scalar("concat", ["a", None]) is None


class TestBinding:
    def test_bind_checks_arity_once_and_reuses_the_invoker(self, registry):
        registry.register_scalar("two", lambda a, b: a + b,
                                 FunctionKind.BUILTIN, 2, 2)
        function = registry.scalar("two")
        invoker = registry.bind(function, 2)
        assert registry.bind(function, 2) is invoker
        assert invoker(1, 2) == 3
        with pytest.raises(UdfError):
            registry.bind(function, 3)
        assert registry.stats.scalar_calls["two"] == 1

    def test_invoker_reads_fn_at_call_time(self, registry):
        registry.register_scalar("f", lambda: 1, FunctionKind.NOT_FENCED, 0, 0)
        function = registry.scalar("f")
        invoker = registry.bind(function, 0)
        function.fn = lambda: 2
        assert invoker() == 2

    def test_table_arity_checked_at_bind(self, registry):
        registry.register_table("g", lambda n: [(n,)], [("x", INTEGER)],
                                min_args=1, max_args=1)
        with pytest.raises(UdfError):
            registry.call_table("g", [])
        with pytest.raises(UdfError):
            registry.call_table("g", [1, 2])
        assert registry.stats.table_calls == {}

    def test_table_failure_mid_stream_is_typed(self, registry):
        def gen():
            yield (1,)
            raise ValueError("broken row source")

        registry.register_table("gen", gen, [("x", INTEGER)])
        with pytest.raises(UdfError, match="ValueError"):
            registry.call_table("gen", [])

    def test_table_failure_at_call_is_typed(self, registry):
        registry.register_table("g", lambda n: [(n,)], [("x", INTEGER)])
        with pytest.raises(UdfError, match="TypeError"):
            registry.call_table("g", [])

    def test_library_errors_pass_through_table_functions(self, registry):
        def gen():
            yield (1,)
            raise XadtMethodError("bad fragment")

        registry.register_table("gen", gen, [("x", INTEGER)])
        with pytest.raises(XadtMethodError):
            registry.call_table("gen", [])


@pytest.fixture()
def xdb():
    db = Database("udf")
    register_xadt_functions(db)
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x XADT)")
    for i in range(10):
        db.execute(
            "INSERT INTO t VALUES (?, xadt(?))", (i, f"<a><b>{i}</b></a>")
        )
    db.reset_function_stats()
    return db


class TestPlanTimeBinding:
    def test_unnest_with_too_many_arguments_is_a_udf_error(self, xdb):
        with pytest.raises(UdfError):
            xdb.execute(
                "SELECT u.out FROM t, TABLE(unnest(t.x, 'b', 'zzz')) u"
            )
        assert xdb.registry.stats.total_udf_calls() == 0

    def test_table_function_failing_mid_stream_is_a_udf_error(self, xdb):
        def flaky(fragment):
            yield (fragment,)
            raise ValueError("row source broke")

        xdb.registry.register_table("flaky", flaky, [("out", XADT)])
        with pytest.raises(UdfError, match="ValueError"):
            xdb.execute("SELECT f.out FROM t, TABLE(flaky(t.x)) f")

    def test_wrong_arity_get_elm_fails_at_prepare(self, xdb):
        with pytest.raises(UdfError):
            xdb.prepare("SELECT getElm(x) FROM t")
        assert xdb.registry.stats.total_udf_calls() == 0
        assert METRICS.counter("udf.calls.not_fenced").value == 0

    def test_and_short_circuits_udf_calls(self, xdb):
        calls = []

        def probe(value):
            calls.append(value)
            return 1

        xdb.registry.register_scalar("probe", probe, min_args=1, max_args=1)
        rows = xdb.execute(
            "SELECT id FROM t WHERE id > 6 AND probe(id) = 1"
        ).column("id")
        assert sorted(rows) == [7, 8, 9]
        assert sorted(calls) == [7, 8, 9]
        assert xdb.registry.stats.scalar_calls["probe"] == 3
