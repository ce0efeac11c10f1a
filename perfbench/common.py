"""Inputs, oracles and process probes shared by the benchmark's processes.

Everything here is deterministic in the seed: the corpora (Shakespeare and
SIGMOD, generated then serialized to XML text), the query mix, and each
connection's request schedule.  The program under test only ever sees the
generated XML text and the SQL text of the mix.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: scale factor (the paper's DSx) of the served corpora
READ_SCALE = 4
MAPPINGS = ("xorator", "hybrid")
#: documents sampled per corpus when choosing XADT codecs (as the
#: program's own experiment harness does)
CODEC_SAMPLES = 4
#: one wire frame per answer: the largest result at DSx4 is ~8k rows
FETCH_SIZE = 1_000_000


def require_program() -> None:
    """Put the program's sources on ``sys.path`` or exit with code 2.

    The benchmark builds nothing; it runs the checkout's ``src`` tree.
    Without it (a directory holding only the benchmark) it must fail
    before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    # the measured processes iterate sets in the same order on every run
    env["PYTHONHASHSEED"] = "0"
    return env


# -- seeded inputs -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Corpus:
    """Both corpora of one seed and scale, as the XML text the program loads."""

    seed: int
    scale: int
    shakespeare: list[str]
    sigmod: list[str]

    @property
    def input_bytes(self) -> int:
        return sum(len(t.encode("utf-8")) for t in self.shakespeare + self.sigmod)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.shakespeare + ["\0"] + self.sigmod:
            h.update(text.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


def make_corpus(seed: int, scale: int) -> Corpus:
    """Generate and serialize both corpora; the seed sets both generators."""
    from repro.bench.harness import BASE_SHAKESPEARE, BASE_SIGMOD
    from repro.datagen.shakespeare import generate_corpus as shakespeare
    from repro.datagen.sigmod import generate_corpus as sigmod
    from repro.xmlkit import serialize

    plays = shakespeare(dataclasses.replace(BASE_SHAKESPEARE.scaled(scale), seed=seed))
    issues = sigmod(dataclasses.replace(BASE_SIGMOD.scaled(scale), seed=seed))
    return Corpus(
        seed, scale, [serialize(d) for d in plays], [serialize(d) for d in issues]
    )


def mix_queries(mapping: str) -> list[tuple[str, str]]:
    """The twelve (key, SQL) pairs of the mix: QS1-QS6 then QG1-QG6."""
    from repro.workloads.shakespeare_queries import SHAKESPEARE_QUERIES
    from repro.workloads.sigmod_queries import SIGMOD_QUERIES

    return [
        (q.key, " ".join(q.sql_for(mapping).split()))
        for q in SHAKESPEARE_QUERIES + SIGMOD_QUERIES
    ]


def schedule(seed: int, connection: int, length: int, keys: list[str]) -> list[str]:
    """A connection's request order: seeded random permutations of ``keys``
    back to back, so every query has the same share of any stretch of
    traffic and only the order depends on the seed."""
    rng = random.Random(f"perfbench:{seed}:{connection}")
    out: list[str] = []
    while len(out) < length:
        out.extend(rng.sample(keys, len(keys)))
    return out[:length]


def schedule_digest(seed: int, connections: int, length: int, keys: list[str]) -> str:
    h = hashlib.sha256()
    for c in range(connections):
        h.update(",".join(schedule(seed, c, length, keys)).encode())
        h.update(b";")
    return h.hexdigest()


# -- loading -----------------------------------------------------------------


@dataclasses.dataclass
class LoadTimes:
    """Wall seconds of one durable load and the restart that follows."""

    load_s: float = 0.0       #: load + index advice + runstats + close
    recover_s: float = 0.0    #: Database.open(recover=True)
    data_bytes: int = 0
    index_bytes: int = 0
    wal_bytes: int = 0
    records: int = 0


def load_durable(mapping, corpus, wal_path):
    """Load ``corpus`` into a fresh WAL-backed database, close it, reopen it.

    The path is the one a user takes to get a durable, query-ready
    database: ``Database.open`` with the default group-commit WAL,
    ``load_documents`` per corpus, index advice for the mix, runstats,
    ``close`` (the final fsync), then ``Database.open(recover=True)``.
    The digest pass between runstats and close lies outside the timed
    interval.  Returns the recovered database, the timings,
    the per-table (row count, digest) taken before close, and each
    document's latency in seconds (parse, shred, insert and commit, from
    the moment the loader takes the document until it asks for the next
    one).
    """
    from repro.dtd import samples
    from repro.engine.database import Database
    from repro.mapping import map_hybrid, map_xorator
    from repro.shred import decide_codecs, load_documents
    from repro.xadt import register_xadt_functions

    to_schema = map_xorator if mapping == "xorator" else map_hybrid
    times = LoadTimes()
    latencies: list[float] = []
    if os.path.exists(wal_path):
        os.remove(wal_path)
    started = time.perf_counter()
    db = Database.open(wal_path, name=mapping, sync_mode="group")
    register_xadt_functions(db)
    for dtd, docs in (
        (samples.shakespeare_simplified(), corpus.shakespeare),
        (samples.sigmod_simplified(), corpus.sigmod),
    ):
        schema = to_schema(dtd)
        codecs = (
            decide_codecs(schema, docs[:CODEC_SAMPLES]) if mapping == "xorator" else {}
        )
        load_documents(db, schema, _timed(docs, latencies), codecs)
    db.apply_index_advice([sql for _, sql in mix_queries(mapping)])
    db.runstats()
    loaded = time.perf_counter() - started
    times.data_bytes = db.data_size_bytes()
    times.index_bytes = db.index_size_bytes()
    before = table_digests(db)
    started = time.perf_counter()
    db.close()
    times.load_s = loaded + time.perf_counter() - started
    times.wal_bytes = os.path.getsize(wal_path)
    times.recover_s, db = _timed_reopen(mapping, wal_path)
    times.records = db.recovery_report.records_replayed
    register_xadt_functions(db)
    return db, times, before, latencies


def restart_seconds(mapping: str, wal_path: str, count: int) -> list[float]:
    """Wall seconds of ``count`` reopenings of a closed database's WAL."""
    out = []
    for _ in range(count):
        seconds, db = _timed_reopen(mapping, wal_path)
        out.append(seconds)
        db.close()
    return out


def _timed_reopen(mapping: str, wal_path: str):
    """Reopen ``wal_path`` with ``recover=True``; returns (wall seconds, db).

    The heap is collected first, as a freshly started process's would be,
    so the garbage of whatever ran before (a load, a closed database) is
    not collected at a random point inside the timed interval.  Collections
    the recovery's own allocations trigger still count.
    """
    from repro.engine.database import Database

    gc.collect()
    started = time.perf_counter()
    db = Database.open(wal_path, name=mapping, recover=True, sync_mode="group")
    return time.perf_counter() - started, db


def _timed(docs, latencies):
    """Yield ``docs``, appending how long the loader kept each one."""
    for text in docs:
        taken = time.perf_counter()
        yield text
        latencies.append(time.perf_counter() - taken)


def table_digests(db) -> dict[str, tuple[int, str]]:
    """Row count and a digest of the stored rows, per user table.

    XADT cells are digested as (codec, payload), i.e. as stored, so a
    recovered fragment must be byte-identical to the loaded one.
    """
    out = {}
    for name, heap in sorted(db.engine.heaps().items()):
        h = hashlib.sha256()
        count = 0
        for row in heap.scan():
            count += 1
            h.update(repr(tuple(
                (cell.codec, cell.payload) if getattr(cell, "__xadt__", False) else cell
                for cell in row
            )).encode("utf-8"))
        out[name] = (count, h.hexdigest())
    return out


# -- answer digests ----------------------------------------------------------


def rows_digest(columns, rows) -> str:
    """Digest of a result as it crosses the wire (JSON-safe ``rows``).

    The rows are sorted first, since a query without ORDER BY defines a
    multiset: any order the engine returns is a correct answer.
    """
    encoded = sorted(json.dumps(row, separators=(",", ":")) for row in rows)
    text = json.dumps(list(columns)) + "\n" + "\n".join(encoded)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def oracle_digests(db, queries) -> dict[str, tuple[str, int]]:
    """Per query key: (digest, row count) of ``Database.execute``, after
    the same JSON encoding the server applies."""
    from repro.server.protocol import jsonable_rows

    out = {}
    for key, sql in queries:
        result = db.execute(sql)
        rows = json.loads(json.dumps(jsonable_rows(result.rows)))
        out[key] = (rows_digest(result.columns, rows), len(rows))
    return out


# -- /proc probes ------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def emit(message: dict) -> None:
    """One JSON line on stdout: the child-to-parent control channel."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()
