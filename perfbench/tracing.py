"""Spans recorded around the program's layer boundaries, from outside it.

Nothing in the program is edited: :func:`install_read_tracing` and
:func:`install_ingest_tracing` replace public functions and methods of
each layer with timing wrappers, in the process that runs them.

Two kinds of wrapper exist:

* a **span** (a request, a statement, a load) is kept as one record with
  its start, end, self time and request id;
* a **row** boundary (a UDF call, an XADT method body, a WAL append) runs
  thousands of times per statement, so it is folded into the nearest
  enclosing span as a count, a self time, a total time and an amount.

Self time is a boundary's duration minus the time of the boundaries
nested inside it, on the same thread.  Spans stay in memory until
:meth:`Recorder.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import collections
import json
import sys
import threading
from time import perf_counter

import layers


class Recorder:
    """In-memory span store with per-thread nesting stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: (name, start, end, self seconds, request id, {row: [n, self, total, amount]})
        self.spans: list[tuple] = []
        #: rows that ran outside any span (not reported)
        self.loose: dict[str, list] = {}
        #: request id -> decode time, on the event-loop thread
        self._decoded: dict[object, float] = {}
        #: (request id, decoded, encoded, encode seconds, response bytes)
        self.requests: list[tuple] = []
        self._admitted: collections.deque[float] = collections.deque()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ------------------------------------------------------------

    def span(self, fn, name, rid_of=None):
        """Wrap ``fn`` so each call is recorded as one span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            local = self._local
            outer_rid = getattr(local, "rid", None)
            if rid_of is not None:
                local.rid = rid_of(args)
            frame = [perf_counter(), 0.0, {}]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((
                    name, frame[0], end, duration - frame[1],
                    getattr(local, "rid", None), frame[2],
                ))
                local.rid = outer_rid

        return traced

    def row(self, fn, name, amount=None):
        """Wrap a per-row boundary; ``amount(args, result)`` adds a size."""

        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [perf_counter(), 0.0, None]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self._fold(stack, name, duration - frame[1], duration)
            if amount is not None:
                self._aggregate(stack)[name][3] += amount(args, result)
            return result

        return traced

    def row_generator(self, fn, name, amount=None):
        """A row boundary whose work happens while its generator is drained."""

        def drain(iterator):
            while True:
                stack = self._stack()
                frame = [perf_counter(), 0.0, None]
                stack.append(frame)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame[0]
                    self._fold(stack, name, duration - frame[1], duration, calls=0)
                yield item

        def traced(*args, **kwargs):
            stack = self._stack()
            self._fold(stack, name, 0.0, 0.0)
            if amount is not None:
                self._aggregate(stack)[name][3] += amount(args, None)
            return drain(fn(*args, **kwargs))

        return traced

    def _aggregate(self, stack) -> dict:
        for frame in reversed(stack):
            if frame[2] is not None:
                return frame[2]
        return self.loose

    def _fold(self, stack, name, self_s, total_s, calls=1) -> None:
        if stack:
            stack[-1][1] += total_s
        aggregate = self._aggregate(stack)
        entry = aggregate.get(name)
        if entry is None:
            entry = aggregate.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += calls
        entry[1] += self_s
        entry[2] += total_s

    # -- the server's request boundary ----------------------------------------

    def decoded(self, message: dict) -> None:
        if message.get("op") == "execute":
            self._decoded[message.get("id")] = perf_counter()

    def encoded(self, message: dict, seconds: float, size: int) -> None:
        started = self._decoded.pop(message.get("id"), None)
        if started is not None:
            self.requests.append(
                (message.get("id"), started, perf_counter(), seconds, size)
            )

    def admitted(self) -> None:
        self._admitted.append(perf_counter())

    def started(self) -> None:
        """The executor picked up the oldest admitted request."""
        try:
            admitted = self._admitted.popleft()
        except IndexError:
            return
        aggregate = self._aggregate(self._stack())
        entry = aggregate.setdefault("server.queue_wait", [0, 0.0, 0.0, 0])
        wait = perf_counter() - admitted
        entry[0] += 1
        entry[1] += wait
        entry[2] += wait

    # -- output --------------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "requests": self.requests, **extra}, f)


# -- installation -------------------------------------------------------------


def replace_function(original, wrapped) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    found = False
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
                found = True
    if not found:
        raise RuntimeError(f"no module binds {original!r}")


def _xadt_bytes(args, _result) -> int:
    value = args[0] if args else None
    return value.byte_size() if getattr(value, "__xadt__", False) else 0


def install_ingest_tracing(recorder: Recorder) -> None:
    """Wrap the load path: XML parse, shred, codec choice, XADT encode,
    heap insert, WAL, index advice, runstats and recovery."""
    import repro.engine.recovery as recovery
    import repro.engine.wal as wal
    import repro.shred.loader as loader
    import repro.xadt.storage as xadt_storage
    import repro.xmlkit.parser as xml_parser
    from repro.engine.database import Database

    rec = recorder
    replace_function(xml_parser.parse, rec.row(xml_parser.parse, "xml.parse"))
    loader.Shredder.shred = rec.row(
        loader.Shredder.shred, "shred.shred",
        amount=lambda _args, rows: sum(len(v) for v in rows.values()),
    )
    replace_function(
        loader.decide_codecs, rec.row(loader.decide_codecs, "xadt.codec_choice")
    )
    replace_function(xadt_storage.encode, rec.row(xadt_storage.encode, "xadt.encode"))
    Database.bulk_insert = rec.row(Database.bulk_insert, "storage.bulk_insert")
    Database.apply_index_advice = rec.row(Database.apply_index_advice, "index.advise")
    Database.runstats = rec.row(Database.runstats, "stats.runstats")
    log = wal.WriteAheadLog
    for method in ("log_bulk_insert", "_append", "begin", "end"):
        setattr(log, method, rec.row(getattr(log, method), "wal.log"))
    log.flush = rec.row(log.flush, "wal.write")
    wal._SYNC = rec.row(wal._SYNC, "wal.fsync")
    replace_function(
        recovery.recover_database, rec.span(recovery.recover_database, "recovery")
    )


def install_read_tracing(recorder: Recorder, db) -> None:
    """Wrap the request path: wire, admission, pool, statement, SQL, plan,
    UDF boundary and the XADT method bodies registered in ``db``."""
    import repro.engine.plan.optimizer as optimizer
    import repro.engine.sql.parser as sql_parser
    import repro.server.server as server
    from repro.engine.session import Session
    from repro.engine.udf import FunctionRegistry, ScalarFunction, TableFunction
    from repro.server.admission import AdmissionController
    from repro.server.pool import SessionPool

    rec = recorder
    decode, encode = server.decode_body, server.encode_frame

    def decode_body(body):
        message = decode(body)
        rec.decoded(message)
        return message

    def encode_frame(message):
        started = perf_counter()
        data = encode(message)
        rec.encoded(message, perf_counter() - started, len(data))
        return data

    server.decode_body, server.encode_frame = decode_body, encode_frame
    server.jsonable_rows = rec.row(server.jsonable_rows, "server.jsonable_rows")
    server.ReproServer._execute_request = rec.span(
        server.ReproServer._execute_request, "server.request",
        rid_of=lambda args: args[3].get("id"),
    )
    admit, started = AdmissionController.admit, AdmissionController.started

    def traced_admit(self):
        admit(self)
        rec.admitted()

    def traced_started(self):
        rec.started()
        started(self)

    AdmissionController.admit = traced_admit
    AdmissionController.started = traced_started
    SessionPool.acquire = rec.row(SessionPool.acquire, "server.pool_acquire")
    Session.execute = rec.span(Session.execute, "statement")
    replace_function(sql_parser.parse_sql, rec.row(sql_parser.parse_sql, "sql.parse"))
    optimizer.plan_logical = rec.row(optimizer.plan_logical, "plan.logical")
    optimizer.lower_select = rec.row(optimizer.lower_select, "plan.lower")
    FunctionRegistry.call_scalar = rec.row(FunctionRegistry.call_scalar, "udf.dispatch")
    FunctionRegistry.call_table = rec.row(FunctionRegistry.call_table, "udf.dispatch")
    ScalarFunction.invoke = rec.row(ScalarFunction.invoke, "udf.marshal")
    TableFunction.invoke = rec.row(TableFunction.invoke, "udf.marshal")
    for name in layers.XADT_METHODS:
        function = db.registry.scalar(name)
        function.fn = rec.row(function.fn, f"xadt.{name}", amount=_xadt_bytes)
    unnest = db.registry.table_function("unnest")
    unnest.fn = rec.row_generator(unnest.fn, "xadt.unnest", amount=_xadt_bytes)
