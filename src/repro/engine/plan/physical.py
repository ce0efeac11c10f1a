"""Physical operators (vectorized batch-at-a-time model).

Every operator exposes its output :class:`~repro.engine.expr.Binding`
(flat slot layout), a ``batches()`` iterator yielding **lists of row
tuples** (target :data:`~repro.engine.config.DEFAULT_BATCH_SIZE` rows,
configurable per plan via ``batch_size``), a row-flattening ``rows()``
convenience view, and an ``explain()`` listing.

``batches()`` is a template method over the subclass's ``_execute()``:
when EXPLAIN ANALYZE attaches per-operator runtime stats it wraps the
iterator with rows-out counting (rows *inside* batches, not batch
count) and monotonic timing, and otherwise it returns the raw iterator
(one branch of overhead per operator per execution).  Batching moves the
per-tuple interpreter tax (iterator resumption, instrumentation branch,
operator dispatch) to a per-batch cost: the inner loops below run over
plain local lists, mostly as list comprehensions.

Predicates and expressions arrive pre-compiled by
:mod:`repro.engine.expr_compile` (the one expression compiler), so
operators stay free of name-resolution concerns.  Each closure carries
``batch_filter`` / ``batch_eval`` companions which scans, Filter and
Project use to process a whole batch in one generated comprehension.
The optimizer is responsible for wiring compiled closures against the
correct child bindings, including
the scan-level projection pushdown (``SeqScan``/``IndexScan`` accept a
``projection`` column list and then bind only the surviving slots).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from repro.engine.config import DEFAULT_BATCH_SIZE, VECTORIZED
from repro.engine.expr import (
    Binding,
    ColumnRef,
    Compiled,
    Expr,
    FuncCall,
    Literal,
    ParamBox,
    Parameter,
    Slot,
    Star,
    and_together,
)
from repro.engine.expr_compile import compile_projection, compile_row_expr
from repro.engine.index import BTreeIndex, Index
from repro.engine.io import IoCounters, estimate_row_bytes, pages_of_bytes
from repro.engine.snapshot import (
    active_budget,
    current_context,
    read_bound,
    table_version,
)
from repro.engine.plan.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLateral,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    infer_type,
    output_name,
    rebuild_with_slots,
    xadt_access,
)
from repro.engine.storage import HeapTable, PartitionedHeapTable
from repro.engine.types import INTEGER, VARCHAR, SqlType
from repro.engine.udf import FunctionRegistry, TableFunction
from repro.engine.values import group_key
from repro.errors import ExecutionError, PlanError
from repro.obs.explain import OperatorStats
from repro.obs.trace import TRACER

#: a batch is a plain list of row tuples — cheap to slice, comprehend, extend
Batch = list


def _batched(rows: Iterable[tuple], size: int) -> Iterator[Batch]:
    """Re-chunk a row iterable into batches of at most ``size`` rows."""
    if isinstance(rows, list):
        for start in range(0, len(rows), size):
            yield rows[start : start + size]
        return
    batch: Batch = []
    for row in rows:
        batch.append(row)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _instrumented(impl: Iterator[Batch], stats: OperatorStats) -> Iterator[Batch]:
    """Wrap an operator's batch iterator with row counting and timing.

    ``stats.rows_out`` counts the rows *inside* each batch, so EXPLAIN
    ANALYZE actuals stay per-row under batching.  The time charged to
    ``stats.seconds`` is everything spent inside ``next()`` — this
    operator plus its children; EXPLAIN ANALYZE derives self time by
    subtracting the children's inclusive totals.
    """
    perf = time.perf_counter
    if stats.started_at is None:
        stats.started_at = perf()
    while True:
        begin = perf()
        try:
            batch = next(impl)
        except StopIteration:
            now = perf()
            stats.seconds += now - begin
            stats.finished_at = now
            return
        stats.seconds += perf() - begin
        stats.rows_out += len(batch)
        yield batch


def _governed(impl: Iterator[Batch], budget) -> Iterator[Batch]:
    """Check the statement deadline before producing each batch.

    Wrapped around every operator when the active
    :class:`~repro.engine.governor.StatementBudget` carries a timeout,
    so abort latency is bounded by the cost of one batch at the slowest
    operator (plus one UDF call; see :mod:`repro.engine.udf`).
    """
    for batch in impl:
        budget.tick()
        yield batch


class Operator:
    """Base class of physical operators.

    Subclasses implement :meth:`_execute` (yielding batches); the public
    :meth:`batches` is a template method that returns the raw iterator
    when no :class:`~repro.obs.explain.OperatorStats` is attached (the
    normal execution path — the only added cost is this one branch) and
    an instrumented wrapper when EXPLAIN ANALYZE or tracing attached
    one.  :meth:`rows` flattens batches for consumers that want a plain
    row stream (Limit's early-exit pull, result assembly, tests).
    """

    binding: Binding
    #: optimizer's cardinality estimate, for EXPLAIN output
    estimated_rows: float = 0.0
    #: runtime counters; attached by EXPLAIN ANALYZE, None otherwise
    stats: OperatorStats | None = None
    #: rows per emitted batch; the optimizer overrides this per plan
    batch_size: int = DEFAULT_BATCH_SIZE

    def batches(self) -> Iterator[Batch]:
        impl = self._execute()
        budget = active_budget()
        if budget is not None and budget.deadline is not None:
            impl = _governed(impl, budget)
        stats = self.stats
        if stats is None:
            return impl
        stats.loops += 1
        return _instrumented(impl, stats)

    def rows(self) -> Iterator[tuple]:
        for batch in self.batches():
            yield from batch

    def _execute(self) -> Iterator[Batch]:
        # compatibility shim: ad-hoc operators (tests, harnesses) may
        # override rows() instead of the batch protocol — chunk them
        if type(self).rows is not Operator.rows or "rows" in self.__dict__:
            yield from _batched(self.rows(), self.batch_size)
            return
        raise NotImplementedError

    def children(self) -> list["Operator"]:
        """Direct inputs in explain order (left before right)."""
        out: list["Operator"] = []
        for attribute in ("left", "right", "input"):
            child = getattr(self, attribute, None)
            if isinstance(child, Operator):
                out.append(child)
        return out

    def explain(self, depth: int = 0) -> list[str]:
        raise NotImplementedError

    def _line(self, depth: int, text: str) -> str:
        return "  " * depth + text + f"  [est {self.estimated_rows:.0f} rows]"


def _picker(projection: list[int] | None):
    """A row → pruned-tuple function for a pushed-down column list."""
    if projection is None:
        return None
    if not projection:
        return lambda row: ()
    if len(projection) == 1:
        index = projection[0]
        return lambda row: (row[index],)
    return itemgetter(*projection)


def _pruned_binding(table: HeapTable, alias: str, projection: list[int] | None) -> Binding:
    full = table_binding(table, alias)
    if projection is None:
        return full
    return Binding([full.slots[i] for i in projection])


class SeqScan(Operator):
    """Full scan of a heap table, with pushed-down filter and projection.

    The predicate runs against the *full* storage row; the projection
    then drops unused columns before the batch leaves the scan, so
    downstream operators never materialize dropped columns.
    """

    def __init__(
        self,
        table: HeapTable,
        alias: str,
        predicate: Compiled | None = None,
        predicate_sql: str = "",
        io: IoCounters | None = None,
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.io = io
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = _pruned_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        # resolve the snapshot horizon once per execution: the pinned
        # extent bounds both the rows yielded and the pages charged
        version = table_version(self.table)
        bound = None if version is None else version.row_count
        if self.io is not None:
            pages = (
                self.table.data_pages() if version is None else version.pages
            )
            self.io.charge_sequential(pages)
        batch_filter = (
            self.predicate.batch_filter if self.predicate is not None else None
        )
        pick = _picker(self.projection)
        for chunk in self.table.scan_batches(self.batch_size, limit=bound):
            if batch_filter is not None:
                chunk = batch_filter(chunk)
                if not chunk:
                    continue
            if pick is not None:
                chunk = [pick(row) for row in chunk]
            yield chunk

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" filter[{self.predicate_sql}]" if self.predicate else ""
        if self.projection is not None:
            names = ",".join(slot.name for slot in self.binding.slots)
            suffix += f" cols[{names}]"
        if self.xadt_access is not None:
            suffix += f" xadt[{self.xadt_access}]"
        return [
            self._line(
                depth, f"SeqScan {self.table.schema.name} as {self.alias}{suffix}"
            )
        ]


class IndexScan(Operator):
    """Equality or range probe of an index, with residual filter/projection."""

    def __init__(
        self,
        table: HeapTable,
        alias: str,
        index: Index,
        key: object = None,
        key_range: tuple[object, object] | None = None,
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
        key_fn: Compiled | None = None,
        projection: list[int] | None = None,
        xadt_access: str | None = None,
    ) -> None:
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.key = key
        #: lazy probe key (a closure over the empty row) — used when the
        #: key is a prepared-statement parameter resolved per execution
        self.key_fn = key_fn
        self.key_range = key_range
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.projection = projection
        self.xadt_access = xadt_access
        self.binding = _pruned_binding(table, alias, projection)

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        if self.io is not None:
            self.io.charge_random(1)  # leaf descent; interior pages cached
        if self.key_range is not None:
            if not isinstance(self.index, BTreeIndex):
                raise ExecutionError("range scans require a btree index")
            low, high = self.key_range
            row_ids: Iterator[int] = self.index.range(low, high, bound=bound)
        else:
            key = self.key_fn(()) if self.key_fn is not None else self.key
            row_ids = iter(self.index.lookup(key, bound=bound))
        fetch = self.table.fetch
        residual = self.residual
        pick = _picker(self.projection)
        io = self.io
        rows_per_page = _rows_per_page(self.table)
        touched: set[int] = set()
        size = self.batch_size
        batch: Batch = []
        for row_id in row_ids:
            if io is not None:
                page = row_id // rows_per_page
                if page not in touched:  # buffer pool caches within a query
                    touched.add(page)
                    io.charge_random(1)
            row = fetch(row_id)
            if residual is None or residual(row):
                batch.append(pick(row) if pick is not None else row)
                if len(batch) >= size:
                    yield batch
                    batch = []
        if batch:
            yield batch

    def explain(self, depth: int = 0) -> list[str]:
        if self.key_range is not None:
            probe = f"range {self.key_range!r}"
        elif self.key_fn is not None and self.key is None:
            probe = "key = ?"
        else:
            probe = f"key = {self.key!r}"
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        if self.projection is not None:
            names = ",".join(slot.name for slot in self.binding.slots)
            suffix += f" cols[{names}]"
        if self.xadt_access is not None:
            suffix += f" xadt[{self.xadt_access}]"
        return [
            self._line(
                depth,
                f"IndexScan {self.table.schema.name} as {self.alias} "
                f"using {self.index.definition.name} ({probe}){suffix}",
            )
        ]


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input, probe with the left."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: list[int],
        right_keys: list[int],
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
    ) -> None:
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("hash join requires matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.binding = left.binding.extend(right.binding)

    def _execute(self) -> Iterator[Batch]:
        table: dict[object, list[tuple]] = {}
        right_keys = self.right_keys
        single = len(right_keys) == 1
        build_bytes = 0
        budget = active_budget()
        setdefault = table.setdefault
        if single:
            right_key = right_keys[0]
            for batch in self.right.batches():
                before = build_bytes
                for row in batch:
                    build_bytes += estimate_row_bytes(row)
                    key = group_key(row[right_key])
                    if key is None:
                        continue  # NULL keys never join
                    setdefault(key, []).append(row)
                if budget is not None:
                    budget.charge_memory(build_bytes - before)
        else:
            for batch in self.right.batches():
                before = build_bytes
                for row in batch:
                    build_bytes += estimate_row_bytes(row)
                    key = tuple(group_key(row[i]) for i in right_keys)
                    if any(part is None for part in key):
                        continue  # NULL keys never join
                    setdefault(key, []).append(row)
                if budget is not None:
                    budget.charge_memory(build_bytes - before)
        spilled = (
            self.io is not None and build_bytes > self.io.work_mem_bytes
        )
        left_keys = self.left_keys
        left_key = left_keys[0] if single else -1
        residual = self.residual
        get = table.get
        probe_bytes = 0
        for left_batch in self.left.batches():
            out: Batch = []
            append = out.append
            for left_row in left_batch:
                if spilled:
                    probe_bytes += estimate_row_bytes(left_row)
                if single:
                    bucket = get(group_key(left_row[left_key]))
                else:
                    bucket = get(tuple(group_key(left_row[i]) for i in left_keys))
                if bucket is None:
                    continue
                if residual is None:
                    for right_row in bucket:
                        append(left_row + right_row)
                else:
                    for right_row in bucket:
                        combined = left_row + right_row
                        if residual(combined):
                            append(combined)
            if out:
                yield out
        if spilled:
            # GRACE partitioning: both inputs are written out sequentially
            # and read back during the merge phase, where partition files
            # interleave — the re-reads behave like random page I/O.
            pages = pages_of_bytes(build_bytes) + pages_of_bytes(probe_bytes)
            self.io.charge_spill(pages)
            self.io.charge_random(pages)
            self.io.notes.append(
                f"hash join spilled {pages} pages (build {build_bytes} B)"
            )

    def explain(self, depth: int = 0) -> list[str]:
        keys = ", ".join(
            f"{self.left.binding.slots[l].qualifier}.{self.left.binding.slots[l].name}"
            f" = {self.right.binding.slots[r].qualifier}.{self.right.binding.slots[r].name}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        lines = [self._line(depth, f"HashJoin on {keys}{suffix}")]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class NestedLoopJoin(Operator):
    """General join: the right input is materialized and rescanned per row."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Compiled | None = None,
        predicate_sql: str = "",
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.binding = left.binding.extend(right.binding)

    def _execute(self) -> Iterator[Batch]:
        budget = active_budget()
        if budget is None:
            right_rows = [
                row for batch in self.right.batches() for row in batch
            ]
        else:
            right_rows = []
            for batch in self.right.batches():
                right_rows.extend(batch)
                budget.charge_memory(
                    sum(estimate_row_bytes(row) for row in batch)
                )
        predicate = self.predicate
        for left_batch in self.left.batches():
            out: Batch = []
            if predicate is None:
                for left_row in left_batch:
                    out.extend(left_row + right_row for right_row in right_rows)
            else:
                for left_row in left_batch:
                    for right_row in right_rows:
                        combined = left_row + right_row
                        if predicate(combined):
                            out.append(combined)
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" on [{self.predicate_sql}]" if self.predicate else " (cross)"
        lines = [self._line(depth, f"NestedLoopJoin{suffix}")]
        lines.extend(self.left.explain(depth + 1))
        lines.extend(self.right.explain(depth + 1))
        return lines


class IndexNestedLoopJoin(Operator):
    """For each left row, probe an index on the inner table.

    This is the access path that lets the Hybrid schema exploit its
    parentID indexes: joins become O(n log n) instead of O(n^2).
    """

    def __init__(
        self,
        left: Operator,
        table: HeapTable,
        alias: str,
        index: Index,
        left_key_slot: int,
        residual: Compiled | None = None,
        residual_sql: str = "",
        io: IoCounters | None = None,
    ) -> None:
        self.left = left
        self.table = table
        self.alias = alias.lower()
        self.index = index
        self.left_key_slot = left_key_slot
        self.residual = residual
        self.residual_sql = residual_sql
        self.io = io
        self.binding = left.binding.extend(table_binding(table, alias))

    def _execute(self) -> Iterator[Batch]:
        bound = read_bound(self.table)  # snapshot horizon, once per run
        fetch = self.table.fetch
        lookup = self.index.lookup
        key_slot = self.left_key_slot
        residual = self.residual
        io = self.io
        rows_per_page = _rows_per_page(self.table)
        probed_keys: set[object] = set()
        touched_pages: set[int] = set()
        for left_batch in self.left.batches():
            out: Batch = []
            append = out.append
            for left_row in left_batch:
                key = left_row[key_slot]
                if key is None:
                    continue
                if io is not None and key not in probed_keys:
                    probed_keys.add(key)
                    io.charge_random(1)  # index leaf, cached per key
                for row_id in lookup(key, bound=bound):
                    if io is not None:
                        page = row_id // rows_per_page
                        if page not in touched_pages:
                            touched_pages.add(page)
                            io.charge_random(1)
                    combined = left_row + fetch(row_id)
                    if residual is None or residual(combined):
                        append(combined)
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        key_slot = self.left.binding.slots[self.left_key_slot]
        suffix = f" residual[{self.residual_sql}]" if self.residual else ""
        lines = [
            self._line(
                depth,
                f"IndexNLJoin {self.table.schema.name} as {self.alias} using "
                f"{self.index.definition.name} (outer key "
                f"{key_slot.qualifier}.{key_slot.name}){suffix}",
            )
        ]
        lines.extend(self.left.explain(depth + 1))
        return lines


class LateralFunctionScan(Operator):
    """DB2-style lateral table function: invoked once per input row.

    The paper's ``TABLE(unnest(speaker, 'speaker')) unnestedS`` runs this
    way — argument expressions may reference the columns of FROM items to
    the left.
    """

    def __init__(
        self,
        input_op: Operator,
        function: TableFunction,
        call: Callable[..., list[tuple]],
        args: list[Compiled],
        alias: str,
    ) -> None:
        self.input = input_op
        self.function_name = function.name
        self.call = call
        self.args = args
        self.alias = alias.lower()
        slots = [
            Slot(self.alias, name, sql_type)
            for name, sql_type in function.output_columns
        ]
        self.binding = input_op.binding.extend(Binding(slots))
        self._arity = len(function.output_columns)

    def _execute(self) -> Iterator[Batch]:
        call = self.call
        name = self.function_name
        args = self.args
        arity = self._arity
        for input_batch in self.input.batches():
            out: Batch = []
            append = out.append
            for input_row in input_batch:
                for produced in call(*[arg(input_row) for arg in args]):
                    if len(produced) != arity:
                        raise ExecutionError(
                            f"table function {name!r} produced "
                            f"{len(produced)} columns, declared {arity}"
                        )
                    append(input_row + tuple(produced))
            if out:
                yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [
            self._line(
                depth, f"LateralFunctionScan {self.function_name}(...) as {self.alias}"
            )
        ]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Filter(Operator):
    """Row filter for predicates that could not be pushed into scans/joins."""

    def __init__(
        self,
        input_op: Operator,
        predicate: Compiled,
        predicate_sql: str = "",
        xadt_access: str | None = None,
    ):
        self.input = input_op
        self.predicate = predicate
        self.predicate_sql = predicate_sql
        self.xadt_access = xadt_access
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        batch_filter = self.predicate.batch_filter
        for batch in self.input.batches():
            kept = batch_filter(batch)
            if kept:
                yield kept

    def explain(self, depth: int = 0) -> list[str]:
        suffix = f" xadt[{self.xadt_access}]" if self.xadt_access else ""
        lines = [self._line(depth, f"Filter [{self.predicate_sql}]{suffix}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Project(Operator):
    """Compute the SELECT list.

    Either ``identity`` passes batches through untouched (SELECT * over
    an aligned input), or ``tuple_fn`` — one
    :func:`~repro.engine.expr_compile.compile_projection` closure —
    evaluates the whole output tuple batch by batch.
    """

    def __init__(
        self,
        input_op: Operator,
        out_slots: list[Slot],
        tuple_fn: Compiled | None = None,
        identity: bool = False,
        xadt_access: str | None = None,
    ) -> None:
        self.input = input_op
        self.tuple_fn = tuple_fn
        self.identity = identity
        self.xadt_access = xadt_access
        self.binding = Binding(out_slots)

    def _execute(self) -> Iterator[Batch]:
        if self.identity:
            yield from self.input.batches()
            return
        batch_eval = self.tuple_fn.batch_eval
        for batch in self.input.batches():
            yield batch_eval(batch)

    def explain(self, depth: int = 0) -> list[str]:
        names = ", ".join(slot.name for slot in self.binding.slots)
        suffix = f" xadt[{self.xadt_access}]" if self.xadt_access else ""
        lines = [self._line(depth, f"Project [{names}]{suffix}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class HashDistinct(Operator):
    """Duplicate elimination over full rows (first occurrence wins)."""

    def __init__(self, input_op: Operator) -> None:
        self.input = input_op
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        seen: set[tuple] = set()
        seen_add = seen.add
        budget = active_budget()
        size = self.batch_size
        out: Batch = []
        for batch in self.input.batches():
            kept_bytes = 0
            for row in batch:
                key = tuple(group_key(value) for value in row)
                if key in seen:
                    continue
                seen_add(key)
                if budget is not None:
                    kept_bytes += estimate_row_bytes(row)
                out.append(row)
                if len(out) >= size:
                    yield out
                    out = []
            if budget is not None and kept_bytes:
                budget.charge_memory(kept_bytes)
        if out:
            yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, "HashDistinct")]
        lines.extend(self.input.explain(depth + 1))
        return lines


@dataclass
class AggSpec:
    """One aggregate of a GROUP BY (or a grand total)."""

    kind: str                 #: count | sum | avg | min | max
    arg: Compiled | None      #: None only for COUNT(*)
    distinct: bool = False


class _Accumulator:
    __slots__ = ("kind", "count", "total", "best", "distinct_seen")

    def __init__(self, kind: str, distinct: bool) -> None:
        self.kind = kind
        self.count = 0
        self.total: float | int = 0
        self.best: object = None
        self.distinct_seen: set[object] | None = set() if distinct else None

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct_seen is not None:
            key = group_key(value)
            if key in self.distinct_seen:
                return
            self.distinct_seen.add(key)
        self.count += 1
        kind = self.kind
        if kind in ("sum", "avg"):
            if not isinstance(value, (int, float)):
                raise ExecutionError(f"{kind.upper()} over non-numeric {value!r}")
            self.total += value
        elif kind == "min":
            if self.best is None or value < self.best:  # type: ignore[operator]
                self.best = value
        elif kind == "max":
            if self.best is None or value > self.best:  # type: ignore[operator]
                self.best = value

    def result(self) -> object:
        kind = self.kind
        if kind == "count":
            return self.count
        if kind == "sum":
            return self.total if self.count else None
        if kind == "avg":
            return (self.total / self.count) if self.count else None
        return self.best


class HashAggregate(Operator):
    """Hash aggregation; output = group keys then aggregate results."""

    def __init__(
        self,
        input_op: Operator,
        group_exprs: list[Compiled],
        group_slots: list[Slot],
        aggregates: list[AggSpec],
        agg_slots: list[Slot],
    ) -> None:
        self.input = input_op
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.binding = Binding(group_slots + agg_slots)
        self._grand_total = not group_exprs

    def _execute(self) -> Iterator[Batch]:
        groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
        group_exprs = self.group_exprs
        aggregates = self.aggregates
        budget = active_budget()
        #: modelled bytes per group entry: key tuple + accumulator slots
        group_overhead = 56 * max(len(aggregates), 1)
        groups_get = groups.get
        for batch in self.input.batches():
            new_bytes = 0
            for row in batch:
                raw_key = tuple(expr(row) for expr in group_exprs)
                key = tuple(group_key(value) for value in raw_key)
                entry = groups_get(key)
                if entry is None:
                    entry = (
                        raw_key,
                        [_Accumulator(a.kind, a.distinct) for a in aggregates],
                    )
                    groups[key] = entry
                    if budget is not None:
                        new_bytes += (
                            estimate_row_bytes(raw_key) + group_overhead
                        )
                accumulators = entry[1]
                for spec, accumulator in zip(aggregates, accumulators):
                    if spec.arg is None:  # COUNT(*)
                        accumulator.count += 1
                    else:
                        accumulator.add(spec.arg(row))
            if budget is not None and new_bytes:
                budget.charge_memory(new_bytes)
        if not groups and self._grand_total:
            empty = [_Accumulator(a.kind, a.distinct) for a in aggregates]
            yield [tuple(acc.result() for acc in empty)]
            return
        result_rows = [
            raw_key + tuple(acc.result() for acc in accumulators)
            for raw_key, accumulators in groups.values()
        ]
        yield from _batched(result_rows, self.batch_size)

    def explain(self, depth: int = 0) -> list[str]:
        described = ", ".join(
            ("count(*)" if a.arg is None else a.kind + "(...)")
            + (" distinct" if a.distinct else "")
            for a in self.aggregates
        )
        lines = [
            self._line(
                depth,
                f"HashAggregate groups={len(self.group_exprs)} aggs=[{described}]",
            )
        ]
        lines.extend(self.input.explain(depth + 1))
        return lines


class _SortKey:
    """Total-order wrapper tolerant of mixed types and NULLs (NULLs last)."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None:
            return False
        if b is None:
            return True
        try:
            return a < b  # type: ignore[operator]
        except TypeError:
            return str(a) < str(b)


class Sort(Operator):
    """Full materializing sort (stable, multi-key)."""

    def __init__(
        self,
        input_op: Operator,
        keys: list[Compiled],
        descending: list[bool],
    ) -> None:
        self.input = input_op
        self.keys = keys
        self.descending = descending
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        budget = active_budget()
        if budget is None:
            rows = [row for batch in self.input.batches() for row in batch]
        else:
            rows = []
            for batch in self.input.batches():
                rows.extend(batch)
                budget.charge_memory(
                    sum(estimate_row_bytes(row) for row in batch)
                )
        # stable multi-key sort: apply keys right-to-left
        for key, desc in reversed(list(zip(self.keys, self.descending))):
            rows.sort(key=lambda row: _SortKey(key(row)), reverse=desc)
        yield from _batched(rows, self.batch_size)

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, f"Sort keys={len(self.keys)}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Limit(Operator):
    def __init__(self, input_op: Operator, limit: int) -> None:
        self.input = input_op
        self.limit = limit
        self.binding = input_op.binding

    def _execute(self) -> Iterator[Batch]:
        remaining = self.limit
        if remaining <= 0:
            return
        size = self.batch_size
        out: Batch = []
        # pull row-at-a-time so the child stops producing at the cutoff
        for row in self.input.rows():
            out.append(row)
            remaining -= 1
            if remaining == 0:
                break
            if len(out) >= size:
                yield out
                out = []
        if out:
            yield out

    def explain(self, depth: int = 0) -> list[str]:
        lines = [self._line(depth, f"Limit {self.limit}")]
        lines.extend(self.input.explain(depth + 1))
        return lines


class Exchange(Operator):
    """Scatter-gather over the partitions of a partitioned heap scan.

    Wraps a template :class:`SeqScan` of a
    :class:`~repro.engine.storage.PartitionedHeapTable`: each live
    partition (after pruning) becomes one fragment task shipped to the
    worker pool (:mod:`repro.engine.parallel`), and the coordinator
    stitches the per-partition results back together.

    * **ordered** mode (the default) k-way merges the ``(row_id, row)``
      streams by row id.  Partition buckets are ascending row-id subsets
      of the heap, so the merged stream is byte-identical to the
      unpartitioned scan order — every downstream operator (joins,
      aggregation, DISTINCT) sees exactly the stream it would have seen
      without partitioning.
    * **unordered** mode concatenates streams in partition order without
      the merge heap (for consumers that re-order anyway).
    * **partial aggregation**: when the planner pushes a GROUP BY down
      (:meth:`attach_partial_agg`), workers pre-aggregate their
      partition and the coordinator merges the mergeable accumulator
      states, emitting groups ordered by their minimal first row id —
      the same first-seen order ``HashAggregate`` produces inline.

    Pruning is *bind-aware*: equality/range predicates on the partition
    column resolve literals at plan time and parameters at execution
    time, so a cached prepared plan prunes correctly for each binding.

    Modelled I/O charges the **maximum** per-partition page count (the
    partition streams are read concurrently, so the scan costs as much
    as its slowest fragment) plus one random page per fragment for
    dispatch.  The governor is charged for each shipped slice's bytes —
    the coordinator-side estimate of per-worker memory.

    Fragments that still fail after the pool's retry budget degrade to
    inline execution through the same fragment interpreter the workers
    run, so worker loss never changes results.
    """

    def __init__(
        self,
        template: SeqScan,
        pool_provider: Callable[[], object],
        registry: FunctionRegistry,
        workers: int,
        predicate_ast: Expr | None = None,
        params=None,
        prunes: list[tuple[str, tuple[str, object]]] | None = None,
        mode: str = "ordered",
    ) -> None:
        if not isinstance(template.table, PartitionedHeapTable):
            raise ExecutionError("Exchange requires a partitioned heap")
        if mode not in ("ordered", "unordered"):
            raise ExecutionError(f"unknown exchange mode {mode!r}")
        self.template = template
        self.input = template  # children() / batch-size propagation
        self.heap: PartitionedHeapTable = template.table
        self.alias = template.alias
        self.pool_provider = pool_provider
        self.registry = registry
        self.workers = workers
        self.predicate_ast = predicate_ast
        self.params = params
        self.prunes = list(prunes or ())
        self.mode = mode
        self.io = template.io
        self.binding = template.binding
        self.estimated_rows = template.estimated_rows
        self.agg: dict | None = None
        self.project: list[Expr] | None = None
        self._static_parts = self._static_prune()

    # -- planner hooks -----------------------------------------------------

    def attach_partial_agg(
        self,
        group_asts: list[Expr],
        agg_asts: list[tuple[str, Expr | None]],
        binding: Binding,
        estimated_rows: float,
    ) -> None:
        """Turn this exchange into a partial-aggregation exchange."""
        self.agg = {
            "group": group_asts,
            "aggs": agg_asts,
            "grand_total": not group_asts,
        }
        self.binding = binding
        self.estimated_rows = estimated_rows

    def attach_project(
        self, project_asts: list[Expr], binding: Binding
    ) -> None:
        """Push the SELECT list into the fragments.

        Workers evaluate the projection expressions (XADT method calls
        included — each worker carries the full UDF registry) per row,
        so the exchange emits final output tuples and the planner drops
        the coordinator-side ``Project``.  The heavy per-row compute
        then lands in the fragments, where the overlap credit models a
        multi-core pool running the lanes concurrently.
        """
        if self.agg is not None:
            raise ExecutionError(
                "cannot push a projection into a partial-agg exchange"
            )
        self.project = list(project_asts)
        self.binding = binding

    # -- pruning -----------------------------------------------------------

    def _resolve_source(self, source: tuple[str, object]) -> object:
        kind, payload = source
        if kind == "lit":
            return payload
        return self.params.values[payload]  # type: ignore[union-attr]

    def _apply_prunes(self, resolve) -> list[int]:
        spec = self.heap.spec
        parts = set(range(spec.partitions))
        for op, source in self.prunes:
            value = resolve(source)
            if value is None:
                # ``col <op> NULL`` matches no row under SQL semantics
                return []
            if op == "=":
                parts &= {spec.partition_for(value)}
            else:
                pruned = spec.prune_range(op, value)
                if pruned is not None:
                    parts &= set(pruned)
        return sorted(parts)

    def _static_prune(self) -> list[int] | None:
        """Partitions surviving literal-only pruning; None if bind-dependent."""
        if any(source[0] != "lit" for _, source in self.prunes):
            return None
        return self._apply_prunes(lambda source: source[1])

    def _live_partitions(self) -> list[int]:
        if self._static_parts is not None:
            return self._static_parts
        return self._apply_prunes(self._resolve_source)

    # -- execution ---------------------------------------------------------

    def _param_values(self) -> tuple:
        if self.params is None or not getattr(self.params, "count", 0):
            return ()
        return tuple(self.params.values)

    def _make_task(
        self, partition: int, horizon: int, catalog_token: int, values: tuple
    ) -> dict:
        key = self.heap.schema.key
        task = {
            "kind": "agg" if self.agg is not None else "scan",
            "table": key,
            "partition": partition,
            "slice_key": (key, partition, catalog_token, horizon),
            "schema": self.heap.schema,
            "alias": self.alias,
            "predicate": self.predicate_ast,
            "projection": self.template.projection,
            "params": values,
        }
        if self.agg is not None:
            task["group"] = self.agg["group"]
            task["aggs"] = self.agg["aggs"]
        if self.project is not None:
            task["project"] = self.project
        return task

    def _execute(self) -> Iterator[Batch]:
        from repro.engine import parallel

        wall_started = time.perf_counter()
        cpu_started = time.process_time()
        heap = self.heap
        version = table_version(heap)
        horizon = len(heap.rows) if version is None else version.row_count
        parts = self._live_partitions()
        if not parts:
            if self.agg is not None and self.agg["grand_total"]:
                yield [
                    tuple(
                        parallel.PartialAgg(kind).result()
                        for kind, _ in self.agg["aggs"]
                    )
                ]
            return
        if self.io is not None:
            # partitions live on separate spindles (shared-nothing layout,
            # DESIGN.md §12) and are read concurrently: charge the widest
            # fragment, not the sum, and one parallel dispatch seek
            self.io.charge_sequential(
                max(pages_of_bytes(heap.partition_bytes(p)) for p in parts)
            )
            self.io.charge_random(1)
        budget = active_budget()
        if budget is not None:
            for p in parts:
                budget.charge_memory(heap.partition_bytes(p))
        context = current_context()
        catalog_token = (
            context.snapshot.catalog.version
            if context is not None and context.snapshot is not None
            else -1
        )
        values = self._param_values()
        tasks = [
            self._make_task(p, horizon, catalog_token, values) for p in parts
        ]
        providers = [
            (lambda p=p: heap.partition_rows(p, limit=horizon)) for p in parts
        ]
        pool = self.pool_provider() if self.pool_provider is not None else None
        if pool is not None:
            with TRACER.span("exchange"):
                outcomes = pool.run_tasks(list(zip(tasks, providers)))
        else:
            outcomes = [("failed", "no worker pool", 0.0, 0)] * len(tasks)
        results = []
        lane_seconds: dict[int, float] = {}
        for task, provider, outcome in zip(tasks, providers, outcomes):
            if outcome[0] == "ok":
                results.append(outcome[1])
                lane_seconds[outcome[3]] = (
                    lane_seconds.get(outcome[3], 0.0) + outcome[2]
                )
            else:
                # degrade to inline execution of the same fragment; its
                # compute is genuine coordinator CPU, so it lands in the
                # process_time window and lengthens the critical path
                results.append(
                    parallel.execute_fragment(task, provider(), self.registry)
                )
        batches = list(self._stitch(results, parallel))
        if self.io is not None and lane_seconds:
            # The 1-CPU host serialized coordinator work and every worker
            # lane into our wall clock.  On the modeled pool (one core per
            # worker plus the coordinator, DESIGN.md §12) the scatter-
            # gather pipeline runs lanes and the coordinator's own
            # dispatch/collect/stitch concurrently, so its elapsed time is
            # the critical path: the busiest lane or the coordinator,
            # whichever is longer.  Credit back the rest.
            coordinator_cpu = time.process_time() - cpu_started
            wall = time.perf_counter() - wall_started
            critical = max(coordinator_cpu, max(lane_seconds.values()))
            self.io.charge_overlap(max(wall - critical, 0.0))
        yield from batches

    def _stitch(self, results, parallel) -> Iterator[Batch]:
        """Merge fragment results into output batches (coordinator side)."""
        if self.agg is not None:
            yield from self._merge_partial_agg(results, parallel)
            return
        size = self.batch_size
        if self.mode == "ordered":
            merged = heapq.merge(*results, key=itemgetter(0))
            batch: Batch = []
            for _, row in merged:
                batch.append(row)
                if len(batch) >= size:
                    yield batch
                    batch = []
            if batch:
                yield batch
        else:
            for pairs in results:
                for start in range(0, len(pairs), size):
                    yield [row for _, row in pairs[start : start + size]]

    def _merge_partial_agg(self, results, parallel) -> Iterator[Batch]:
        assert self.agg is not None
        kinds = [kind for kind, _ in self.agg["aggs"]]
        merged: dict[tuple, list] = {}
        for partial in results:
            for key, (raw_key, first_rid, states) in partial.items():
                entry = merged.get(key)
                if entry is None:
                    entry = [raw_key, first_rid, [
                        parallel.PartialAgg(kind) for kind in kinds
                    ]]
                    merged[key] = entry
                elif first_rid < entry[1]:
                    entry[1] = first_rid
                for accumulator, state in zip(entry[2], states):
                    accumulator.merge(state)
        if not merged:
            if self.agg["grand_total"]:
                yield [
                    tuple(parallel.PartialAgg(kind).result() for kind in kinds)
                ]
            return
        # ascending minimal row id == HashAggregate's first-seen order
        rows = [
            raw_key + tuple(acc.result() for acc in accumulators)
            for raw_key, _, accumulators in sorted(
                merged.values(), key=itemgetter(1)
            )
        ]
        yield from _batched(rows, self.batch_size)

    # -- explain -----------------------------------------------------------

    def explain(self, depth: int = 0) -> list[str]:
        total = self.heap.spec.partitions
        live = "?" if self._static_parts is None else len(self._static_parts)
        suffix = f" exchange[{live}/{total} parts] workers={self.workers}"
        if self.agg is not None:
            suffix += " partial-agg"
        if self.project is not None:
            names = ", ".join(slot.name for slot in self.binding.slots)
            suffix += f" project[{names}]"
        if self.mode != "ordered":
            suffix += f" {self.mode}"
        lines = [self._line(depth, f"Exchange{suffix}")]
        lines.extend(self.template.explain(depth + 1))
        return lines


def _rows_per_page(table: HeapTable) -> int:
    """Average rows per data page, for page-id derivation from row ids."""
    pages = max(table.data_pages(), 1)
    return max(table.row_count() // pages, 1)


def table_binding(table: HeapTable, alias: str) -> Binding:
    """The slot layout a table contributes under ``alias``."""
    qualifier = alias.lower()
    return Binding(
        [
            Slot(qualifier, column.name, column.sql_type)
            for column in table.schema.columns
        ]
    )


# ---------------------------------------------------------------------------
# lowering: logical IR -> native operator tree
# ---------------------------------------------------------------------------
#
# The optimizer (repro.engine.plan.optimizer.plan_logical) records every
# planning decision on the logical IR; this section mechanically builds
# the corresponding operators — compiling predicate/projection ASTs to
# closures against the exact bindings the pre-IR planner used.  The
# golden-EXPLAIN snapshot tests pin that the round trip is byte-for-byte
# plan-neutral.


def _exec_config_of(ctx):
    return getattr(ctx, "exec_config", None) or VECTORIZED


def lower_select(
    root: LogicalNode, ctx, params: ParamBox | None = None
) -> Operator:
    """Lower a decided logical plan to the native operator tree."""
    config = _exec_config_of(ctx)
    lowering = _SelectLowering(ctx, params)
    plan = lowering.lower(root)
    if config.batch_size != DEFAULT_BATCH_SIZE:
        pending = [plan]
        while pending:
            node = pending.pop()
            node.batch_size = config.batch_size
            pending.extend(node.children())
    return plan


class _SelectLowering:
    """One lowering pass: carries context and params."""

    def __init__(self, ctx, params: ParamBox | None):
        self.ctx = ctx
        self.registry: FunctionRegistry = ctx.registry
        self.params = params
        self.io = getattr(ctx, "io", None)

    def compile(self, expr: Expr, binding: Binding) -> Compiled:
        return compile_row_expr(expr, binding, self.registry, self.params)

    def lower(self, root: LogicalNode) -> Operator:
        # peel the output chain the optimizer stacked on top
        limit: int | None = None
        sort: LogicalSort | None = None
        distinct = False
        aggregate: LogicalAggregate | None = None
        node = root
        if isinstance(node, LogicalLimit):
            limit = node.limit
            node = node.input
        if isinstance(node, LogicalSort):
            sort = node
            node = node.input
        if isinstance(node, LogicalDistinct):
            distinct = True
            node = node.input
        if not isinstance(node, LogicalProject):
            raise PlanError("logical plan is missing its projection node")
        project = node
        node = node.input
        if isinstance(node, LogicalAggregate):
            aggregate = node
            node = node.input
        plan = self._lower_rel(node)
        return self._lower_output(plan, project, aggregate, distinct, sort, limit)

    # -- relational part (scans, joins, filters, laterals) -------------------

    def _lower_rel(self, node: LogicalNode) -> Operator:
        if isinstance(node, LogicalScan):
            return self._lower_scan(node)
        if isinstance(node, LogicalJoin):
            return self._lower_join(node)
        if isinstance(node, LogicalFilter):
            plan = self._lower_rel(node.input)
            filtered = Filter(
                plan,
                self.compile(node.predicate, plan.binding),
                node.predicate.sql(),
                xadt_access=xadt_access([node.predicate]),
            )
            filtered.estimated_rows = node.estimate
            return filtered
        if isinstance(node, LogicalLateral):
            return self._lower_lateral(node)
        raise PlanError(f"cannot lower logical node {type(node).__name__}")

    def _lower_scan(self, scan: LogicalScan) -> Operator:
        heap = scan.heap
        ref = scan.ref
        registry = self.registry
        # pushed predicates compile against the *full* table binding
        # (they run before the scan's projection drops columns)
        binding = table_binding(heap, ref.alias)
        if scan.access == "index":
            eq_conjunct, key_expr = scan.eq_conjunct, scan.key_expr
            rest = [c for c in scan.pushed if c is not eq_conjunct]
            residual = and_together(rest)
            # literal keys probe directly; parameter keys resolve per execution
            key_value = key_expr.value if isinstance(key_expr, Literal) else None
            key_fn = (
                self.compile(key_expr, Binding([]))
                if isinstance(key_expr, Parameter)
                else None
            )
            operator: Operator = IndexScan(
                heap,
                ref.alias,
                scan.index,
                key=key_value,
                key_fn=key_fn,
                residual=(
                    self.compile(residual, binding)
                    if residual
                    else None
                ),
                residual_sql=residual.sql() if residual else "",
                io=self.io,
                projection=scan.projection,
                xadt_access=xadt_access(rest),
            )
            operator.estimated_rows = scan.estimate
            return operator
        predicate = and_together(scan.pushed)
        operator = SeqScan(
            heap,
            ref.alias,
            predicate=(
                self.compile(predicate, binding)
                if predicate
                else None
            ),
            predicate_sql=predicate.sql() if predicate else "",
            io=self.io,
            projection=scan.projection,
            xadt_access=xadt_access(scan.pushed),
        )
        operator.estimated_rows = scan.estimate
        if scan.exchange:
            config = _exec_config_of(self.ctx)
            exchange = Exchange(
                operator,
                pool_provider=getattr(self.ctx, "worker_pool", None),
                registry=registry,
                workers=config.parallel_workers,
                predicate_ast=predicate,
                params=self.params,
                prunes=scan.prunes,
            )
            exchange.estimated_rows = scan.estimate
            return exchange
        return operator

    def _lower_join(self, join: LogicalJoin) -> Operator:
        plan = self._lower_rel(join.left)
        heap = join.heap
        ref = join.ref
        qualifier = ref.qualifier
        if join.strategy == "index_nl":
            main_edge = join.main_edge
            other_q, other_col = main_edge.other(qualifier)
            left_key_slot = plan.binding.resolve(ColumnRef(other_q, other_col))
            residual = and_together(join.residual_parts)
            operator: Operator = IndexNestedLoopJoin(
                plan,
                heap,
                ref.alias,
                join.index,
                left_key_slot,
                residual=(
                    self.compile(
                        residual,
                        plan.binding.extend(table_binding(heap, ref.alias)),
                    )
                    if residual
                    else None
                ),
                residual_sql=residual.sql() if residual else "",
                io=self.io,
            )
            operator.estimated_rows = join.estimate
            return operator
        right = self._lower_scan(join.right)
        if join.strategy == "cross":
            operator = NestedLoopJoin(plan, right)
            operator.estimated_rows = join.estimate
            return operator
        left_keys: list[int] = []
        right_keys: list[int] = []
        for edge in join.edges:
            own_column = edge.side(qualifier)
            other_q, other_col = edge.other(qualifier)
            left_keys.append(plan.binding.resolve(ColumnRef(other_q, other_col)))
            right_keys.append(
                right.binding.resolve(ColumnRef(qualifier, own_column))
            )
        operator = HashJoin(plan, right, left_keys, right_keys, io=self.io)
        operator.estimated_rows = join.estimate
        return operator

    def _lower_lateral(self, node: LogicalLateral) -> Operator:
        plan = self._lower_rel(node.input)
        function = self.registry.table_function(node.call.name)
        call = self.registry.bind(function, len(node.call.args))
        args = [
            self.compile(arg, plan.binding) for arg in node.call.args
        ]
        plan = LateralFunctionScan(plan, function, call, args, node.alias)
        plan.estimated_rows = plan.input.estimated_rows * 4  # fan-out guess
        predicate = and_together(node.filters)
        if predicate is not None:
            plan = Filter(
                plan,
                self.compile(predicate, plan.binding),
                predicate.sql(),
                xadt_access=xadt_access([predicate]),
            )
            plan.estimated_rows = plan.input.estimated_rows * 0.5
        return plan

    # -- aggregation / projection / ordering ---------------------------------

    def _lower_output(
        self,
        plan: Operator,
        project: LogicalProject,
        aggregate: LogicalAggregate | None,
        distinct: bool,
        sort: LogicalSort | None,
        limit: int | None,
    ) -> Operator:
        registry = self.registry
        substitutions: dict[Expr, int] = {}

        if aggregate is not None:
            aggregate_input = plan
            plan, substitutions = self._lower_aggregate(plan, aggregate)
            plan = _maybe_push_partial_agg(
                aggregate_input, plan, aggregate.group_by, aggregate.aggregates
            )
            if aggregate.having is not None:
                having = _substituted(aggregate.having, substitutions)
                plan = Filter(
                    plan,
                    self.compile(having, plan.binding),
                    aggregate.having.sql(),
                    xadt_access=xadt_access([aggregate.having]),
                )

        # SELECT list
        select_items = project.items
        identity = False
        tuple_fn: Compiled | None = None
        if project.star:
            projected_slots = [
                Slot("", slot.name, slot.sql_type) for slot in plan.binding.slots
            ]
            identity = True  # rows already have exactly this layout
        else:
            projected_slots = [
                Slot("", output_name(item.expr, item.alias, position),
                     infer_type(item.expr, plan.binding, registry))
                for position, item in enumerate(select_items)
            ]
            # whole SELECT list as one generated closure (batch-evaluated)
            tuple_fn = compile_projection(
                [_substituted(item.expr, substitutions) for item in select_items],
                plan.binding,
                registry,
                self.params,
            )

        # ORDER BY: try before projection (can see all columns + aggregates)
        pre_sort: Sort | None = None
        post_sort_keys: list[tuple[int, bool]] = []
        if sort is not None:
            try:
                keys = [
                    self.compile(
                        _substituted(order.expr, substitutions), plan.binding
                    )
                    for order in sort.order_by
                ]
                pre_sort = Sort(plan, keys, [o.descending for o in sort.order_by])
            except PlanError:
                # fall back to aliases of the projected output
                output_binding = Binding(projected_slots)
                for order in sort.order_by:
                    if not isinstance(order.expr, ColumnRef):
                        raise
                    post_sort_keys.append(
                        (output_binding.resolve(order.expr), order.descending)
                    )

        if pre_sort is not None:
            pre_sort.estimated_rows = plan.estimated_rows
            plan = pre_sort

        if (
            not identity
            and isinstance(plan, Exchange)
            and plan.agg is None
            and plan.project is None
        ):
            # push the SELECT list into the fragments: workers evaluate the
            # (already-validated) expressions per row, the exchange emits
            # final output tuples, and the coordinator-side Project is
            # dropped.  Per-row XADT decode then runs partition-parallel.
            plan.attach_project(
                [item.expr for item in select_items], Binding(projected_slots)
            )
        else:
            projected = Project(
                plan,
                projected_slots,
                tuple_fn=tuple_fn,
                identity=identity,
                xadt_access=(
                    None
                    if identity
                    else xadt_access([item.expr for item in select_items])
                ),
            )
            projected.estimated_rows = plan.estimated_rows
            plan = projected

        if distinct:
            distinct_input_rows = plan.estimated_rows
            plan = HashDistinct(plan)
            plan.estimated_rows = distinct_input_rows * 0.5

        if post_sort_keys:
            keys = [
                (lambda i: (lambda row: row[i]))(index)
                for index, _ in post_sort_keys
            ]
            plan = Sort(plan, keys, [desc for _, desc in post_sort_keys])

        if limit is not None:
            plan = Limit(plan, limit)
        return plan

    def _lower_aggregate(
        self, plan: Operator, aggregate: LogicalAggregate
    ) -> tuple[Operator, dict[Expr, int]]:
        registry = self.registry
        group_exprs_ast = list(aggregate.group_by)
        group_compiled = [
            self.compile(expr, plan.binding) for expr in group_exprs_ast
        ]
        group_slots = []
        for position, expr in enumerate(group_exprs_ast):
            if isinstance(expr, ColumnRef):
                slot = plan.binding.slot_of(expr)
                group_slots.append(Slot("", slot.name, slot.sql_type))
            else:
                group_slots.append(
                    Slot("", f"group_{position}",
                         infer_type(expr, plan.binding, registry))
                )

        agg_specs: list[AggSpec] = []
        agg_slots: list[Slot] = []
        for position, call in enumerate(aggregate.aggregates):
            kind = call.name.lower()
            if kind == "count" and (not call.args or isinstance(call.args[0], Star)):
                arg = None
            else:
                if len(call.args) != 1:
                    raise PlanError(f"{call.name}() takes exactly one argument")
                arg = self.compile(call.args[0], plan.binding)
            agg_specs.append(AggSpec(kind, arg, call.distinct))
            result_type: SqlType = INTEGER if kind in ("count", "sum") else VARCHAR
            if (
                kind in ("min", "max", "avg")
                and call.args
                and isinstance(call.args[0], ColumnRef)
            ):
                result_type = plan.binding.slot_of(call.args[0]).sql_type
            agg_slots.append(Slot("", f"agg_{position}", result_type))

        hash_aggregate = HashAggregate(
            plan, group_compiled, group_slots, agg_specs, agg_slots
        )
        hash_aggregate.estimated_rows = max(plan.estimated_rows * 0.1, 1.0)

        substitutions: dict[Expr, int] = {}
        for position, expr in enumerate(group_exprs_ast):
            substitutions[expr] = position
        for position, call in enumerate(aggregate.aggregates):
            substitutions[call] = len(group_exprs_ast) + position
        return hash_aggregate, substitutions


#: aggregate kinds with mergeable partial states (DESIGN.md §12)
_PARTIAL_AGG_KINDS = frozenset({"count", "sum", "avg", "min", "max"})


def _maybe_push_partial_agg(
    source: Operator,
    aggregate: Operator,
    group_by: list[Expr],
    aggregates: list[FuncCall],
) -> Operator:
    """Fold ``HashAggregate(Exchange)`` into a partial-agg exchange.

    Only when the aggregate sits *directly* on a scan-mode Exchange and
    every aggregate is non-DISTINCT with a mergeable partial state do
    workers pre-aggregate their partitions; the coordinator merges the
    states and reproduces HashAggregate's first-seen group order by
    minimal row id.  Anything else keeps the inline HashAggregate (the
    Exchange's ordered merge already feeds it the exact row stream).
    """
    if not isinstance(source, Exchange) or source.agg is not None:
        return aggregate
    if not isinstance(aggregate, HashAggregate) or aggregate.input is not source:
        return aggregate
    agg_asts: list[tuple[str, Expr | None]] = []
    for call in aggregates:
        kind = call.name.lower()
        if kind not in _PARTIAL_AGG_KINDS or call.distinct:
            return aggregate
        if kind == "count" and (not call.args or isinstance(call.args[0], Star)):
            agg_asts.append((kind, None))
        else:
            agg_asts.append((kind, call.args[0]))
    source.attach_partial_agg(
        list(group_by),
        agg_asts,
        aggregate.binding,
        aggregate.estimated_rows,
    )
    return source


def _substituted(expr: Expr, substitutions: dict[Expr, int]) -> Expr:
    """``expr`` over an aggregate's output: group keys and aggregates
    become :class:`SlotRef` placeholders; any other column is an error."""
    if not substitutions:
        return expr
    rebuilt = rebuild_with_slots(expr, substitutions)
    if rebuilt is None:
        raise PlanError(f"cannot plan expression {expr.sql()!r}")
    for ref in rebuilt.column_refs():
        raise PlanError(
            f"column {ref.sql()!r} must appear in GROUP BY or inside an aggregate"
        )
    return rebuilt


__all__ = [
    "AggSpec",
    "Batch",
    "Exchange",
    "Filter",
    "HashAggregate",
    "HashDistinct",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "LateralFunctionScan",
    "Limit",
    "NestedLoopJoin",
    "Operator",
    "Project",
    "SeqScan",
    "Sort",
    "lower_select",
    "table_binding",
]
