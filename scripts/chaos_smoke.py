"""CI chaos smoke: crash the engine at WAL sites, recover, check parity.

For each of three named fault sites (``wal.append``, ``heap.store_row``,
``index.publish``) this script

1. starts a WAL-backed database (``sync_mode="always"``) and bulk-loads
   a small Shakespeare XORator corpus with one marked transaction per
   document;
2. kills the engine mid-load with a seeded
   :class:`~repro.engine.faults.FaultPlan` crash (the in-memory state is
   abandoned, exactly like ``kill -9``);
3. recovers with ``Database.open(path, recover=True)``, resumes the
   interrupted load from the recovery markers, and
4. asserts the Figure 11 query results are identical to an
   uninterrupted reference load.

A fourth stage repeats the crash with every XADT column loaded under
the ``indexed`` codec, whose span directory travels inside each value:
the recovered values must carry it again and answer byte-identically to
the chooser-codec reference.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py

Exits nonzero (via assertion) on any parity mismatch.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.datagen.shakespeare import (  # noqa: E402
    ShakespeareConfig,
    generate_corpus,
)
from repro.dtd import samples  # noqa: E402
from repro.engine.database import Database  # noqa: E402
from repro.engine.faults import FAULTS, FaultPlan  # noqa: E402
from repro.errors import CrashPoint  # noqa: E402
from repro.mapping import map_xorator  # noqa: E402
from repro.mapping.base import ColumnKind  # noqa: E402
from repro.shred import decide_codecs, load_documents  # noqa: E402
from repro.workloads.shakespeare_queries import workload_sql  # noqa: E402
from repro.xadt import register_xadt_functions  # noqa: E402

#: (site, 1-based hit at which the process "dies") — hits are chosen to
#: land mid-load: after some documents committed, before the last one
CRASH_POINTS = [
    ("wal.append", 20),      # inside doc:0's bulk-insert records
    ("heap.store_row", 120),  # mid-batch of doc:1's rows
    ("index.publish", 9),     # doc:1's publish, after its commit fsync
]


def canonical(result):
    """Result rows with XADT cells rendered as text, for comparison."""
    return [
        tuple(
            cell.to_xml() if getattr(cell, "__xadt__", False) else cell
            for cell in row
        )
        for row in result.rows
    ]


def fingerprint(db, queries):
    return [canonical(db.execute(sql)) for sql in queries]


def main() -> None:
    documents = generate_corpus(ShakespeareConfig(plays=2))
    schema = map_xorator(samples.shakespeare_simplified())
    codecs = decide_codecs(schema, documents[:1])
    queries = workload_sql("xorator")

    reference = Database("reference")
    register_xadt_functions(reference)
    load_documents(reference, schema, documents, codecs)
    reference.runstats()
    expected = fingerprint(reference, queries)
    assert any(rows for rows in expected), "reference workload returned nothing"

    for site, hit in CRASH_POINTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "wal.jsonl")
            db = Database.open(path, sync_mode="always")
            register_xadt_functions(db)
            FAULTS.install(FaultPlan(seed=hit).crash_at(site, hit=hit))
            crashed = False
            try:
                load_documents(db, schema, documents, codecs)
            except CrashPoint:
                crashed = True
            finally:
                FAULTS.clear()
            assert crashed, f"{site}: the crash plan never fired (hit={hit})"
            db.wal.abandon()

            recovered = Database.open(path, recover=True)
            register_xadt_functions(recovered)
            report = recovered.recovery_report
            load_documents(
                recovered, schema, documents, codecs,
                resume_markers=report.markers,
            )
            recovered.runstats()
            actual = fingerprint(recovered, queries)
            assert actual == expected, f"{site}: query mismatch after recovery"
            recovered.close()
            print(
                f"ok {site:16} crash at hit {hit}: "
                f"{len(report.markers)} committed document txn(s), "
                f"{report.records_replayed} records replayed, "
                f"torn_tail={report.torn_tail}, Fig11 parity holds"
            )

    indexed_codec_stage(schema, documents, queries, expected)
    worker_crash_stage(schema, documents, codecs, queries, expected)
    server_stage(schema, documents, codecs, queries, expected)

    print(
        f"chaos smoke passed: {len(CRASH_POINTS) + 3} fault sites survived"
    )


def indexed_codec_stage(schema, documents, queries, expected) -> None:
    """Crash an ``indexed``-codec load, recover, check byte parity.

    The directory is part of the value, not a separate index: the WAL
    logs the payload and codec, recovery rebuilds the values, and each
    rebuilt value builds its directory again on first use.  After WAL
    recovery + resumed load the results must be **byte-identical** to
    the chooser-codec reference fingerprint.
    """
    codecs = {
        f"{table.name}.{column.name}": "indexed"
        for table in schema.tables
        for column in table.columns
        if column.kind is ColumnKind.XADT
    }
    site, hit = "heap.store_row", 40
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "wal.jsonl")
        db = Database.open(path, sync_mode="always")
        register_xadt_functions(db)
        FAULTS.install(FaultPlan(seed=hit).crash_at(site, hit=hit))
        crashed = False
        try:
            load_documents(db, schema, documents, codecs)
        except CrashPoint:
            crashed = True
        finally:
            FAULTS.clear()
        assert crashed, f"{site}: the crash plan never fired (hit={hit})"
        db.wal.abandon()

        recovered = Database.open(path, recover=True)
        register_xadt_functions(recovered)
        report = recovered.recovery_report
        load_documents(
            recovered, schema, documents, codecs,
            resume_markers=report.markers,
        )
        recovered.runstats()
        stored = [
            cell
            for row in recovered.heap("speech").scan()
            for cell in row
            if getattr(cell, "__xadt__", False)
        ]
        assert stored and all(cell.codec == "indexed" for cell in stored), (
            f"{site}: recovered XADT cells lost the indexed codec"
        )
        actual = fingerprint(recovered, queries)
        assert actual == expected, f"{site}: query mismatch after recovery"
        recovered.close()
        print(
            f"ok {'indexed codec':16} crash at {site} hit {hit}: "
            f"{len(report.markers)} committed document txn(s), "
            f"{report.records_replayed} records replayed, indexed results "
            f"byte-identical to the chooser-codec reference"
        )


def worker_crash_stage(schema, documents, codecs, queries, expected) -> None:
    """Kill exchange workers mid-sweep; results must never be wrong.

    Three escalating failures against a hash-partitioned, 2-worker
    database running the Fig11 sweep:

    1. an injected ``worker.crash`` fault at dispatch (the pool
       terminates the worker for real) — retried onto a respawned
       worker;
    2. ``kill -9`` of every live worker pid from outside — the next
       dispatch detects the dead pipes and respawns;
    3. a 100%-probability crash plan — retries exhausted, every fragment
       degrades to inline coordinator execution.

    After each, the sweep's results must be byte-identical to the
    serial reference fingerprint.
    """
    import dataclasses
    import os
    import signal as signals

    db = Database("worker-crash")
    register_xadt_functions(db)
    load_documents(db, schema, documents, codecs)
    db.runstats()
    for name in list(db.catalog.tables):
        if not name.startswith("sys_"):
            db.partition_table(
                name, db.catalog.table(name).columns[0].name, 4
            )
    db.set_exec_config(
        dataclasses.replace(db.exec_config, parallel_workers=2)
    )

    pool = db.worker_pool()  # spawn before arming so the fault hits dispatch
    FAULTS.install(FaultPlan(seed=7).raise_at("worker.crash", hit=1))
    try:
        actual = fingerprint(db, queries)
    finally:
        FAULTS.clear()
    assert actual == expected, "worker.crash: mismatch after injected crash"
    print("ok worker.crash     injected crash at dispatch: retried, parity holds")

    pids = pool.workers_alive()
    assert pids, "worker.crash: no live workers to kill"
    for pid in pids:
        os.kill(pid, signals.SIGKILL)
    actual = fingerprint(db, queries)
    assert actual == expected, "worker.crash: mismatch after SIGKILL"
    print(
        f"ok worker.crash     kill -9 of {len(pids)} worker(s): "
        "respawned, parity holds"
    )

    FAULTS.install(FaultPlan(seed=7).raise_at("worker.crash", probability=1.0))
    try:
        actual = fingerprint(db, queries)
    finally:
        FAULTS.clear()
    assert actual == expected, "worker.crash: mismatch after inline degrade"
    db.close()
    print(
        "ok worker.crash     100% crash plan: every fragment degraded "
        "inline, parity holds"
    )


def server_stage(schema, documents, codecs, queries, expected) -> None:
    """Fig11 parity over the wire while connections are chaos-dropped.

    The whole workload runs through the network front-end
    (DESIGN.md §14) under a fault plan that drops ``server.read`` and
    ``server.write`` mid-frame and redirects pool sweeps into killing
    in-use sessions (``server.session_evict``).  The retrying client
    must recover every query, the wire results must be byte-identical
    to the in-process reference fingerprint, and a graceful stop must
    leave zero pooled sessions and an empty connection registry.
    """
    from repro.server import ReproClient, RetryPolicy, start_server_thread
    from repro.server.registry import CONNECTIONS

    db = Database("served-chaos")
    register_xadt_functions(db)
    load_documents(db, schema, documents, codecs)
    db.runstats()
    handle = start_server_thread(db, sweep_interval=0.05)
    client = ReproClient(
        handle.host, handle.port,
        client_name="chaos", retry=RetryPolicy(attempts=8, seed=13),
    )
    client.connect()  # handshake before the chaos starts
    FAULTS.install(
        FaultPlan(seed=13)
        .raise_at("server.read", probability=0.15)
        .raise_at("server.write", probability=0.1)
        .raise_at("server.session_evict", probability=0.5)
    )
    try:
        # one frame per result: a fetch cursor dies with its dropped
        # connection, so paging would not survive this fault plan
        actual = [
            [tuple(row) for row in client.execute(sql, fetch_size=10**6).rows]
            for sql in queries
        ]
    finally:
        FAULTS.clear()
    recovered = client.reconnects + client.retries
    client.close()
    assert actual == expected, "server.*: wire results diverge from reference"
    handle.stop()
    assert len(CONNECTIONS) == 0, "server.*: connection registry leaked"
    assert all(s.name != "pool" for s in db.sessions()), (
        "server.*: pooled sessions leaked past drain"
    )
    db.close()
    print(
        f"ok server.*         read/write/evict chaos: recovered "
        f"{recovered} drop(s)/retries, wire results byte-identical, "
        f"drained leak-free"
    )


if __name__ == "__main__":
    main()
