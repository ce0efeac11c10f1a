"""The benchmark's server process: load durably, restart, serve over TCP.

Run by ``run.py``; speaks JSON lines on stdin/stdout:

* on start it generates the seeded corpus, loads it through the WAL,
  reopens the database from the WAL, starts ``ReproServer`` and prints
  ``{"ready": ...}`` with the load figures and the port;
* ``mark`` starts the measured window (counters are read, spans before
  it are ignored);
* ``stop`` (or ``census``) drains the server and prints ``{"stopped":
  ...}`` with the window's counters; ``census`` also runs EXPLAIN ANALYZE
  and exact per-query counts over the mix.  With ``--trace-out`` the
  spans are written to that file first.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

CENSUS_PASSES = 3


def census(db, queries) -> dict:
    """Per query: operator self ms (median of passes), UDF calls, pages."""
    out = {}
    for key, sql in queries:
        passes = []
        for _ in range(CENSUS_PASSES):
            db.registry.stats.reset()
            db.io.reset()
            report = db.explain_analyze(sql)
            ops: dict[str, float] = {}
            for op in report.operators:
                name = re.match(r"\s*([A-Za-z]+)", op.label).group(1)
                ops[name] = ops.get(name, 0.0) + op.self_seconds * 1000.0
            passes.append((
                ops,
                sum(db.registry.stats.scalar_calls.values()),
                sum(db.registry.stats.table_calls.values()),
                db.io.sequential_pages + db.io.random_pages,
                db.io.modeled_seconds(),
            ))
        names = {name for ops, *_ in passes for name in ops}
        out[key] = {
            "op_self_ms": {
                name: statistics.median(ops.get(name, 0.0) for ops, *_ in passes)
                for name in names
            },
            "scalar_calls": passes[0][1],
            "table_calls": passes[0][2],
            "pages_read": passes[0][3],
            "modeled_disk_s": passes[0][4],
        }
    return out


def counters(db) -> dict:
    from repro.xadt.decode_cache import DECODE_CACHE

    return {
        "plan_hits": db.plan_cache.stats.hits,
        "plan_misses": db.plan_cache.stats.misses,
        "decode_hits": DECODE_CACHE.stats.hits,
        "decode_misses": DECODE_CACHE.stats.misses,
        "decode_bytes": DECODE_CACHE.current_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mapping", choices=common.MAPPINGS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    common.require_program()

    from repro.server import start_server_thread

    recorder = None
    load = common.load_durable
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        tracing.install_ingest_tracing(recorder)
        load = recorder.span(load, "ingest.load")
    corpus = common.make_corpus(args.seed, common.READ_SCALE)
    db, times, before, _ = load(args.mapping, corpus, args.wal)
    if common.table_digests(db) != before:
        common.emit({"error": "recovered tables differ from the loaded ones"})
        return 1
    if recorder is not None:
        tracing.install_read_tracing(recorder, db)
    handle = start_server_thread(db)
    common.emit({
        "ready": True,
        "port": handle.port,
        "corpus_digest": corpus.digest(),
        "load": vars(times),
    })
    mark_time, at_mark = None, None
    for line in sys.stdin:
        command = line.strip()
        if command == "mark":
            mark_time, at_mark = time.perf_counter(), counters(db)
            common.emit({"marked": True})
        elif command in ("stop", "census"):
            handle.stop()
            at_stop = counters(db)
            if recorder is not None:
                recorder.dump(args.trace_out, {"mark": mark_time})
            reply = {"stopped": True, "at_mark": at_mark, "at_stop": at_stop}
            if command == "census":
                reply["census"] = census(db, common.mix_queries(args.mapping))
            db.close()
            common.emit(reply)
            return 0
    handle.stop()
    db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
