"""Per-layer metrics of a traced run, computed from the recorded spans.

Request-path figures are per request of the traced window (ms per
request, calls per request).  Load-path figures are those of the traced
server's own durable load of its mapping.  Exact counts (UDF calls, pages) and operator self times
come from a census: every mix query once, under EXPLAIN ANALYZE, on the
untraced server after its window.  ``io.modeled_disk_s`` is the 2002 disk
model; it is reported on its own and enters no measured metric.
"""

from __future__ import annotations

import statistics

OPERATORS = (
    "SeqScan", "IndexScan", "HashJoin", "IndexNestedLoopJoin", "NestedLoopJoin",
    "LateralFunctionScan", "Filter", "Project", "HashDistinct", "HashAggregate",
    "Sort",
)
QUERY_KEYS = tuple(f"QS{i}" for i in range(1, 7)) + tuple(f"QG{i}" for i in range(1, 7))
XADT_METHODS = ("getElm", "findKeyInElm", "getElmIndex", "elmText")
OVERHEAD_OF = ("qps", "latency_p50_ms", "server_cpu_ms_per_req", "ingest_mb_per_s")

#: every per-layer metric, with its unit, in report order
PER_LAYER: dict[str, str] = {
    "server.residence_ms": "ms",
    "server.wire_ms": "ms",
    "server.encode_ms": "ms",
    "server.response_bytes": "B",
    "server.queue_wait_ms": "ms",
    "server.pool_acquire_ms": "ms",
    "sql.parse_ms": "ms",
    "sql.parse_calls": "count",
    "plan_cache.hit_rate": "ratio",
    "plan.logical_ms": "ms",
    "plan.lower_ms": "ms",
    "exec.self_ms": "ms",
    **{f"op.{op}.self_ms": "ms" for op in OPERATORS},
    "udf.scalar_calls": "count",
    "udf.table_calls": "count",
    "udf.dispatch_ms": "ms",
    "udf.marshal_ms": "ms",
    **{f"xadt.method_ms.{m}": "ms" for m in XADT_METHODS},
    "xadt.unnest_ms": "ms",
    "xadt.fragment_bytes": "B",
    "xadt.decode_cache.hit_rate": "ratio",
    "xadt.decode_cache.bytes": "B",
    "io.pages_read": "count",
    "io.modeled_disk_s": "s",
    **{f"query.{key}.p50_ms": "ms" for key in QUERY_KEYS},
    "xml.parse_ms": "ms",
    "shred.shred_ms": "ms",
    "shred.rows": "count",
    "xadt.codec_choice_ms": "ms",
    "xadt.encode_ms": "ms",
    "storage.bulk_insert_ms": "ms",
    "index.advise_ms": "ms",
    "stats.runstats_ms": "ms",
    "ingest.load_s.xorator": "s",
    "ingest.load_s.hybrid": "s",
    "wal.log_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.fsyncs": "count",
    "wal.bytes_per_input_byte": "B/B",
    "storage.data_bytes.xorator": "B",
    "storage.data_bytes.hybrid": "B",
    "storage.index_bytes.xorator": "B",
    "storage.index_bytes.hybrid": "B",
    "recovery.replay_ms": "ms",
    "recovery.records": "count",
    "ingest_mb_per_s": "MB/s",
    "recover_s": "s",
    "ledger.request.unattributed_ms": "ms",
    "ledger.request.attributed_share": "ratio",
    "ledger.load.unattributed_ms": "ms",
    "ledger.load.attributed_share": "ratio",
    **{f"trace.overhead.{name}": unit for name, unit in (
        ("qps", "1/s"), ("latency_p50_ms", "ms"),
        ("server_cpu_ms_per_req", "ms"), ("ingest_mb_per_s", "MB/s"),
    )},
    "error_rate": "ratio",
}


def _fold(aggregates) -> dict[str, list]:
    """Sum [calls, self s, total s, amount] per row name."""
    out: dict[str, list] = {}
    for aggregate in aggregates:
        for name, (calls, self_s, total_s, amount) in aggregate.items():
            entry = out.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
            entry[3] += amount
    return out


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def request_layers(dump, latencies_by_id, counters, census) -> dict[str, float]:
    """Request-path metrics of a traced read window.

    ``latencies_by_id`` maps wire request id to client latency (s);
    ``counters`` are the untraced server's counters at mark and stop;
    ``census`` is that server's per-query census.
    """
    mark = dump["mark"]
    requests = [r for r in dump["requests"] if r[1] >= mark]
    spans = [
        s for s in dump["spans"]
        if s[1] >= mark and s[0] in ("server.request", "statement")
    ]
    n = len(requests)
    if n == 0:
        raise RuntimeError("the traced window recorded no requests")
    rows = _fold(s[5] for s in spans)

    def ms(*names: str) -> float:
        return sum(rows.get(name, (0, 0.0))[1] for name in names) / n * 1000.0

    residence = sum(r[2] - r[1] for r in requests) / n * 1000.0
    wire = [
        latencies_by_id[r[0]] * 1000.0 - (r[2] - r[1]) * 1000.0
        for r in requests if r[0] in latencies_by_id
    ]
    encode_frame = sum(r[3] for r in requests) / n * 1000.0
    exec_self = sum(s[3] for s in spans if s[0] == "statement") / n * 1000.0
    out = {
        "server.residence_ms": residence,
        "server.wire_ms": statistics.fmean(wire) if wire else 0.0,
        "server.encode_ms": ms("server.jsonable_rows") + encode_frame,
        "server.response_bytes": sum(r[4] for r in requests) / n,
        "server.queue_wait_ms": ms("server.queue_wait"),
        "server.pool_acquire_ms": ms("server.pool_acquire"),
        "sql.parse_ms": ms("sql.parse"),
        "sql.parse_calls": rows.get("sql.parse", (0,))[0] / n,
        "plan.logical_ms": ms("plan.logical"),
        "plan.lower_ms": ms("plan.lower"),
        "exec.self_ms": exec_self,
        "udf.dispatch_ms": ms("udf.dispatch"),
        "udf.marshal_ms": ms("udf.marshal"),
        "xadt.unnest_ms": ms("xadt.unnest"),
        "xadt.fragment_bytes": sum(
            entry[3] for name, entry in rows.items() if name.startswith("xadt.")
        ) / n,
    }
    for method in XADT_METHODS:
        out[f"xadt.method_ms.{method}"] = ms(f"xadt.{method}")
    attributed = (
        sum(entry[1] for entry in rows.values()) / n * 1000.0
        + exec_self + encode_frame
    )
    out["ledger.request.unattributed_ms"] = residence - attributed
    out["ledger.request.attributed_share"] = attributed / residence

    at_mark, at_stop = counters["at_mark"], counters["at_stop"]
    out["plan_cache.hit_rate"] = _ratio(
        at_stop["plan_hits"] - at_mark["plan_hits"],
        at_stop["plan_misses"] - at_mark["plan_misses"],
    )
    out["xadt.decode_cache.hit_rate"] = _ratio(
        at_stop["decode_hits"] - at_mark["decode_hits"],
        at_stop["decode_misses"] - at_mark["decode_misses"],
    )
    out["xadt.decode_cache.bytes"] = at_stop["decode_bytes"]

    queries = list(census.values())
    for op in OPERATORS:
        out[f"op.{op}.self_ms"] = statistics.fmean(
            q["op_self_ms"].get(op, 0.0) for q in queries
        )
    out["udf.scalar_calls"] = sum(q["scalar_calls"] for q in queries)
    out["udf.table_calls"] = sum(q["table_calls"] for q in queries)
    out["io.pages_read"] = sum(q["pages_read"] for q in queries)
    out["io.modeled_disk_s"] = sum(q["modeled_disk_s"] for q in queries)
    return out


def load_layers(dump, mapping: str, times: dict, input_bytes: int) -> dict[str, float]:
    """Load-path metrics of the traced server's own durable load of
    ``mapping``; ``times`` is that load's ``LoadTimes`` as a dict."""
    spans = [s for s in dump["spans"] if s[0] == "ingest.load"]
    recoveries = [s for s in dump["spans"] if s[0] == "recovery"]
    if len(spans) != 1 or not recoveries:
        raise RuntimeError(
            f"{len(spans)} traced loads and {len(recoveries)} recoveries; "
            f"expected one load"
        )
    rows = _fold([spans[0][5]])

    def ms(*names: str) -> float:
        return sum(rows.get(name, (0, 0.0))[1] for name in names) * 1000.0

    load_ms = times["load_s"] * 1000.0
    attributed = sum(entry[1] for entry in rows.values()) * 1000.0
    return {
        "xml.parse_ms": ms("xml.parse"),
        "shred.shred_ms": ms("shred.shred"),
        "shred.rows": rows.get("shred.shred", (0, 0, 0, 0))[3],
        "xadt.codec_choice_ms": ms("xadt.codec_choice"),
        "xadt.encode_ms": ms("xadt.encode"),
        "storage.bulk_insert_ms": ms("storage.bulk_insert"),
        "index.advise_ms": ms("index.advise"),
        "stats.runstats_ms": ms("stats.runstats"),
        "wal.log_ms": ms("wal.log", "wal.write"),
        "wal.fsync_ms": ms("wal.fsync"),
        "wal.fsyncs": rows.get("wal.fsync", (0,))[0],
        "recovery.replay_ms": statistics.fmean(s[2] - s[1] for s in recoveries) * 1000.0,
        f"ingest.load_s.{mapping}": times["load_s"],
        f"storage.data_bytes.{mapping}": times["data_bytes"],
        f"storage.index_bytes.{mapping}": times["index_bytes"],
        "wal.bytes_per_input_byte": times["wal_bytes"] / input_bytes,
        "recovery.records": times["records"],
        "ledger.load.unattributed_ms": load_ms - attributed,
        "ledger.load.attributed_share": attributed / load_ms,
    }
