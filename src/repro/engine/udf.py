"""Scalar and table function registry, with UDF invocation overhead.

The paper's Section 4.4 (Figure 14) shows that an external UDF costs
roughly 40 % more than an equivalent built-in, and that the XADT methods
— which are UDFs — pay that price on every call.  We reproduce the
mechanism, not just the number:

* ``BUILTIN`` functions are invoked directly;
* ``NOT FENCED`` UDFs run in the engine's address space but still cross
  a call boundary: arguments and results are *marshalled* (string/bytes
  payloads are physically copied), as DB2 copies values into the UDF's
  argument buffers;
* ``FENCED`` UDFs run in a separate address space: arguments and results
  take a full serialization round trip (we use pickle), which is the
  "significant performance penalty" the paper cites for FENCED mode.

Functions are bound once per plan: :meth:`FunctionRegistry.bind`
resolves the function, checks its arity (raising :class:`UdfError`) and
returns its *invoker*, which compiled expressions and
``LateralFunctionScan`` call directly.  Per call the invoker does only
what must happen per call: count the call by name in
``registry.stats`` (tests and benchmarks assert how many UDF calls a
plan made — the paper attributes XORator's small-data-set slowdown to
"four to eight calls of UDFs" per query), tick the governor budget,
cross the boundary (:meth:`ScalarFunction.invoke` reads ``fn`` at call
time) and wrap failures in :class:`UdfError`.  Each call's kind and
time go, without a lock, to the running statement's
:class:`~repro.engine.snapshot.ExecContext`; :func:`settle` folds them
once per statement into the exact ``udf.calls.<kind>`` counters and the
statement's ``udf`` wait.  A call outside a session statement settles
alone.
"""

from __future__ import annotations

import enum
import pickle
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Sequence

from repro.engine.snapshot import (
    ExecContext,
    activate,
    current_context,
    deactivate,
)
from repro.engine.types import SqlType, is_xadt_value
from repro.errors import ReproError, UdfError
from repro.obs.metrics import METRICS
from repro.obs.trace import WAIT_SINK


class FunctionKind(enum.Enum):
    BUILTIN = "builtin"
    NOT_FENCED = "not fenced"
    FENCED = "fenced"


#: per-fencing-mode invocation counters (advanced once per statement)
_CALL_COUNTERS = {
    kind: METRICS.counter(f"udf.calls.{kind.value.replace(' ', '_')}")
    for kind in FunctionKind
}


def _marshal(value: object) -> object:
    """Copy a value across the UDF call boundary (NOT FENCED mode)."""
    if isinstance(value, str):
        return value.encode("utf-8").decode("utf-8")
    if isinstance(value, bytes):
        return bytes(bytearray(value))
    if is_xadt_value(value):
        return value.marshal_copy()  # type: ignore[attr-defined]
    return value


def _fence(value: object) -> object:
    """Serialize a value across an address-space boundary (FENCED mode)."""
    return pickle.loads(pickle.dumps(value))


def _failure(what: str, name: str, exc: Exception) -> UdfError:
    return UdfError(f"{what} {name!r} failed: {type(exc).__name__}: {exc}")


@dataclass
class ScalarFunction:
    """A registered scalar function."""

    name: str
    fn: Callable[..., object]
    kind: FunctionKind
    #: minimum/maximum accepted argument counts (None = unbounded max)
    min_args: int = 0
    max_args: int | None = None
    #: declared result type, when known (used for output schemas)
    result_type: SqlType | None = None
    #: the registry's invoker for this function (built on first bind)
    invoker: Callable[..., object] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def invoke(self, args: Sequence[object]) -> object:
        """One call across the boundary, failures wrapped in UdfError."""
        try:
            if self.kind is FunctionKind.BUILTIN:
                return self.fn(*args)
            if self.kind is FunctionKind.NOT_FENCED:
                return self.fn(*[_marshal(a) for a in args])
            # FENCED: round-trip arguments and the result
            result = self.fn(*[_fence(a) for a in args])
            return _fence(result)
        except ReproError:
            raise  # library errors carry their own context
        except Exception as exc:
            raise _failure("function", self.name, exc) from exc


@dataclass
class TableFunction:
    """A registered table function (invocable in FROM via TABLE(...))."""

    name: str
    fn: Callable[..., Iterable[tuple]]
    #: output column (name, type) pairs
    output_columns: list[tuple[str, SqlType]]
    kind: FunctionKind = FunctionKind.NOT_FENCED
    #: minimum/maximum accepted argument counts (None = unbounded max)
    min_args: int = 0
    max_args: int | None = None
    #: the registry's invoker for this function (built on first bind)
    invoker: Callable[..., list[tuple]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def invoke(self, args: Sequence[object]) -> list[tuple]:
        """One call across the boundary, its rows fully produced; failures
        of the call and of iterating its result are wrapped in UdfError."""
        try:
            if self.kind is FunctionKind.BUILTIN:
                return list(self.fn(*args))
            if self.kind is FunctionKind.NOT_FENCED:
                return list(self.fn(*[_marshal(a) for a in args]))
            return [
                tuple(_fence(v) for v in row)
                for row in self.fn(*[_fence(a) for a in args])
            ]
        except ReproError:
            raise
        except Exception as exc:
            raise _failure("table function", self.name, exc) from exc


@dataclass
class InvocationStats:
    """Counts of function invocations, keyed by function name."""

    scalar_calls: dict[str, int] = field(default_factory=dict)
    table_calls: dict[str, int] = field(default_factory=dict)

    def reset(self) -> None:
        self.scalar_calls.clear()
        self.table_calls.clear()

    def total_udf_calls(self) -> int:
        return sum(self.scalar_calls.values()) + sum(self.table_calls.values())


def settle(context: ExecContext) -> None:
    """Fold one statement's UDF tally into the ``udf.calls.<kind>``
    counters and, when a statement profiler is listening, its ``udf``
    wait."""
    for counter, calls in context.udf_calls.items():
        counter.inc(calls)
    if context.udf_seconds:
        sink = WAIT_SINK.get()
        if sink is not None:
            sink["udf"] = sink.get("udf", 0.0) + context.udf_seconds


def _settled_call(invoker: Callable[..., object], args: tuple) -> object:
    """Run one call outside a session statement as its own statement."""
    token = activate(None)
    try:
        return invoker(*args)
    finally:
        settle(deactivate(token))


def _invoker(
    function: ScalarFunction | TableFunction, counts: dict[str, int]
) -> Callable[..., object]:
    name = function.name
    counter = _CALL_COUNTERS[function.kind]

    def invoke(*args: object) -> object:
        context = current_context()
        if context is None:
            return _settled_call(invoke, args)
        counts[name] = counts.get(name, 0) + 1
        # UDFs dominate a governed statement's time between batch
        # boundaries (a sleeping or looping function body), so the
        # timeout is also checked per invocation
        budget = context.budget
        if budget is not None:
            budget.tick()
        started = perf_counter()
        try:
            return function.invoke(args)
        finally:
            context.udf_seconds += perf_counter() - started
            calls = context.udf_calls
            calls[counter] = calls.get(counter, 0) + 1

    return invoke


class FunctionRegistry:
    """Name -> function registry shared by one Database instance."""

    def __init__(self) -> None:
        self._scalars: dict[str, ScalarFunction] = {}
        self._tables: dict[str, TableFunction] = {}
        self.stats = InvocationStats()
        self._register_builtins()

    # -- registration --------------------------------------------------------

    def register_scalar(
        self,
        name: str,
        fn: Callable[..., object],
        kind: FunctionKind = FunctionKind.NOT_FENCED,
        min_args: int = 0,
        max_args: int | None = None,
        result_type: SqlType | None = None,
    ) -> None:
        key = name.lower()
        if key in self._scalars:
            raise UdfError(f"scalar function {name!r} already registered")
        self._scalars[key] = ScalarFunction(
            name, fn, kind, min_args, max_args, result_type
        )

    def register_table(
        self,
        name: str,
        fn: Callable[..., Iterable[tuple]],
        output_columns: list[tuple[str, SqlType]],
        kind: FunctionKind = FunctionKind.NOT_FENCED,
        min_args: int = 0,
        max_args: int | None = None,
    ) -> None:
        key = name.lower()
        if key in self._tables:
            raise UdfError(f"table function {name!r} already registered")
        self._tables[key] = TableFunction(
            name, fn, list(output_columns), kind, min_args, max_args
        )

    # -- lookup / binding ----------------------------------------------------

    def has_scalar(self, name: str) -> bool:
        return name.lower() in self._scalars

    def scalar(self, name: str) -> ScalarFunction:
        try:
            return self._scalars[name.lower()]
        except KeyError:
            raise UdfError(f"unknown scalar function {name!r}") from None

    def has_table_function(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_function(self, name: str) -> TableFunction:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UdfError(f"unknown table function {name!r}") from None

    def bind(
        self, function: ScalarFunction | TableFunction, arg_count: int
    ) -> Callable[..., object]:
        """Check ``arg_count`` against ``function``'s arity and return its
        invoker (one per function; plans call it once per row)."""
        if arg_count < function.min_args or (
            function.max_args is not None and arg_count > function.max_args
        ):
            raise UdfError(
                f"function {function.name!r} called with {arg_count} arguments"
            )
        if function.invoker is None:
            counts = (
                self.stats.scalar_calls
                if isinstance(function, ScalarFunction)
                else self.stats.table_calls
            )
            function.invoker = _invoker(function, counts)
        return function.invoker

    def call_scalar(self, name: str, args: Sequence[object]) -> object:
        """By-name call through the same invoker a plan binds."""
        return self.bind(self.scalar(name), len(args))(*args)

    def call_table(self, name: str, args: Sequence[object]) -> list[tuple]:
        """By-name table-function call through its bound invoker."""
        return self.bind(self.table_function(name), len(args))(*args)

    # -- built-ins ---------------------------------------------------------------

    def _register_builtins(self) -> None:
        from repro.engine.types import INTEGER, VARCHAR

        def _length(value: object) -> int | None:
            if value is None:
                return None
            if is_xadt_value(value):
                return value.byte_size()  # type: ignore[attr-defined]
            return len(str(value))

        def _substr(value: object, start: int, length: int | None = None) -> str | None:
            # SQL semantics: 1-based start; omitted length = to the end.
            if value is None:
                return None
            text = str(value)
            begin = max(int(start) - 1, 0)
            if length is None:
                return text[begin:]
            return text[begin:begin + int(length)]

        def _upper(value: object) -> str | None:
            return None if value is None else str(value).upper()

        def _lower(value: object) -> str | None:
            return None if value is None else str(value).lower()

        def _concat(*parts: object) -> str | None:
            if any(part is None for part in parts):
                return None
            return "".join(str(part) for part in parts)

        register = self.register_scalar
        register("length", _length, FunctionKind.BUILTIN, 1, 1, INTEGER)
        register("substr", _substr, FunctionKind.BUILTIN, 2, 3, VARCHAR)
        register("upper", _upper, FunctionKind.BUILTIN, 1, 1, VARCHAR)
        register("lower", _lower, FunctionKind.BUILTIN, 1, 1, VARCHAR)
        register("concat", _concat, FunctionKind.BUILTIN, 1, None, VARCHAR)


#: aggregate function names, recognized by the planner rather than the registry
AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}
