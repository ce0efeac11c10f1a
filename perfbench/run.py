"""Wire-level benchmark of the XML-in-ORDBMS engine: reads over TCP of a
durably loaded database, with answers checked and an optional traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload xorator-read --seed 1 --seconds 10 --trace 0

Workloads:

* ``xorator-read`` / ``hybrid-read`` -- one database of that mapping holds
  the Shakespeare and SIGMOD corpora at DSx4.  A separate server process
  loads it through the WAL, restarts from the WAL and serves it with
  ``ReproServer``; this process drives it closed-loop over 2 ``ReproClient``
  connections with a seeded uniform mix of QS1-QS6 and QG1-QG6, and checks
  every answer against a digest of in-process ``Database.execute``.
  In a traced run, durable loads and reopenings of the WAL after the
  window give the per-layer ingest rate and recovery time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
untraced measurement, then measures again with spans recorded around every
layer boundary (see ``tracing.py``) and prints the per-layer metrics.  The
last line of stdout is one JSON object; the lines before it are a report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("xorator-read", "hybrid-read")
#: set-ups per run; setup_s is their median
SETUPS = 5
#: traced runs: durable loads of the served mapping made by this process
#: after the untraced window, each followed by reopenings of its WAL, for
#: the per-layer ingest_mb_per_s and recover_s
LATE_LOADS = 6
RESTARTS = 4
#: closed-loop connections of the read workloads
CONNECTIONS = 2
#: blocks of a measured window (throughput and CPU are block medians)
BLOCKS = 10
#: the tail percentile reported next to the median, and the latency
#: samples it needs: at least ten must lie beyond it
TAIL = 95
TAIL_SAMPLES = math.ceil(10 / (1 - TAIL / 100))
#: seconds a child may take to start, or to finish after its window
CHILD_TIMEOUT = 120.0
SCHEDULE_LENGTH = 20_000
MB = 1e6

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    f"latency_p{TAIL}_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
    "stored_bytes_per_input_byte.xorator": "B/B",
    "stored_bytes_per_input_byte.hybrid": "B/B",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- child processes ----------------------------------------------------------


class Child:
    """A benchmark child process speaking JSON lines on stdin/stdout."""

    def __init__(self, script: str, argv: list[str]) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name(script)), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(), cwd=str(common.ROOT),
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def expect(self, key: str, timeout: float = CHILD_TIMEOUT) -> dict:
        """The next message carrying ``key``."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                raise RuntimeError(f"{key!r} not received within {timeout:g} s") from None
            if line is None:
                raise RuntimeError(f"child exited ({self.proc.wait()}) before {key!r}")
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "error" in message:
                raise RuntimeError(f"child reported: {message['error']}")
            if key in message:
                return message

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self, timeout: float = 30.0) -> None:
        """End the process, killing it if it does not exit, and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=timeout)


class Children:
    """Every child started by this run, stopped and reaped on exit."""

    def __init__(self) -> None:
        self.all: list[Child] = []

    def start(self, script: str, argv: list[str]) -> Child:
        child = Child(script, argv)
        self.all.append(child)
        return child

    def close(self) -> None:
        for child in self.all:
            child.close()


# -- read workloads ------------------------------------------------------------


class Window:
    """One measured closed-loop window against one server.

    The window is cut into ``BLOCKS`` equal blocks; throughput and CPU per
    request are the medians over blocks, so a few seconds in which the
    host ran slow do not move them.
    """

    def __init__(self) -> None:
        #: (query key, request id, seconds, ok, completion time)
        self.records: list[tuple[str, int, float, bool, float]] = []
        self.started = 0.0
        self.block = 0.0
        #: server CPU seconds used in each block
        self.block_cpu: list[float] = []
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.errors: list[str] = []

    @property
    def ok(self) -> list[tuple]:
        return [r for r in self.records if r[3]]

    def latencies_ms(self) -> list[float]:
        return [r[2] * 1000.0 for r in self.ok]

    def metrics(self) -> dict[str, float]:
        latencies = self.latencies_ms()
        if not latencies:
            raise RuntimeError("no request completed correctly")
        if len(latencies) < TAIL_SAMPLES:
            # too few samples for the tail: the run is not correct
            self.errors.append(
                f"only {len(latencies)} latency samples; p{TAIL} needs {TAIL_SAMPLES}"
            )
        counts = [0] * len(self.block_cpu)
        for record in self.ok:
            index = int((record[4] - self.started) / self.block)
            if index < len(counts):
                counts[index] += 1
        return {
            "qps": statistics.median(c / self.block for c in counts),
            "latency_p50_ms": percentile(latencies, 50),
            f"latency_p{TAIL}_ms": percentile(latencies, TAIL),
            "server_cpu_ms_per_req": statistics.median(
                cpu * 1000.0 / c for cpu, c in zip(self.block_cpu, counts) if c
            ),
            "peak_rss_mb": self.peak_rss_mb,
        }


def answer_checker(expected):
    """``check(key, result) -> bool`` against the oracle's digests."""

    def check(key: str, result) -> bool:
        digest, count = expected[key]
        return (
            len(result.rows) == count
            and common.rows_digest(result.columns, result.rows) == digest
        )

    return check


def drive(server: Child, port: int, sql_of, schedules, check, seconds: float) -> Window:
    """Warm every query once, then run the closed loop for ``seconds``."""
    from repro.errors import ReproError
    from repro.server import ReproClient, RetryPolicy

    window = Window()
    with ReproClient("127.0.0.1", port, client_name="perfbench-warmup") as warm:
        for key, sql in sql_of.items():
            if not check(key, warm.execute(sql, fetch_size=common.FETCH_SIZE)):
                window.errors.append(f"warm-up answer of {key} is wrong")
    server.send("mark")
    server.expect("marked")
    lock = threading.Lock()

    def loop(connection: int, deadline: float) -> None:
        client = ReproClient(
            "127.0.0.1", port, client_name=f"perfbench-{connection}",
            retry=RetryPolicy(attempts=1), request_timeout=60.0,
        )
        records = []
        try:
            client.connect()
            # distinct request ids per connection, so server spans and
            # client latencies join on the id alone
            client._ids = (connection + 1) * 1_000_000_000
            for key in schedules[connection]:
                if time.perf_counter() >= deadline:
                    break
                started = time.perf_counter()
                try:
                    result = client.execute(
                        sql_of[key], fetch_size=common.FETCH_SIZE, retry=False
                    )
                    elapsed = time.perf_counter() - started
                    ok = check(key, result)
                    error = None if ok else f"{key}: wrong answer"
                except ReproError as exc:
                    elapsed = time.perf_counter() - started
                    ok, error = False, f"{key}: {type(exc).__name__}: {exc}"
                if error is not None:
                    with lock:
                        window.errors.append(error)
                records.append((key, client._ids, elapsed, ok, started + elapsed))
        finally:
            client.close()
            with lock:
                window.records.extend(records)

    window.block = seconds / BLOCKS
    cpu = [common.proc_cpu_seconds(server.pid)]
    window.started = started = time.perf_counter()
    threads = [
        threading.Thread(target=loop, args=(c, started + seconds))
        for c in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for index in range(1, BLOCKS + 1):
        time.sleep(max(started + index * window.block - time.perf_counter(), 0.0))
        cpu.append(common.proc_cpu_seconds(server.pid))
    for thread in threads:
        thread.join()
    window.seconds = time.perf_counter() - started
    window.block_cpu = [after - before for before, after in zip(cpu, cpu[1:])]
    window.peak_rss_mb = common.proc_peak_rss_mb(server.pid)
    return window


def start_server(children, mapping, seed, work: Path, trace_out=None):
    """Start a server and wait until it answers a ping; returns (child,
    ready message, setup seconds)."""
    from repro.server import ReproClient

    argv = ["--mapping", mapping, "--seed", str(seed),
            "--wal", str(work / f"serve-{mapping}.wal")]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    child = children.start("serve.py", argv)
    ready = child.expect("ready")
    with ReproClient("127.0.0.1", ready["port"], client_name="perfbench-ping") as ping:
        ping.ping()
    return child, ready, time.perf_counter() - child.started


def run_read(mapping: str, seed: int, seconds: float, trace: bool, work: Path, report):
    children = Children()
    try:
        return _run_read(children, mapping, seed, seconds, trace, work, report)
    finally:
        children.close()


def _run_read(children, mapping, seed, seconds, trace, work, report):
    queries = common.mix_queries(mapping)
    sql_of = dict(queries)
    keys = [key for key, _ in queries]
    schedules = [
        common.schedule(seed, c, SCHEDULE_LENGTH, keys) for c in range(CONNECTIONS)
    ]
    corpus = common.make_corpus(seed, common.READ_SCALE)
    report(f"corpus DSx{corpus.scale} seed={seed} digest={corpus.digest()[:16]} "
           f"input_bytes={corpus.input_bytes}")
    report("schedule digest=" + common.schedule_digest(
        seed, CONNECTIONS, SCHEDULE_LENGTH, keys)[:16])

    # the oracle: both mappings built in this process by the same path
    stored, expected, oracle_load = {}, None, None
    errors: list[str] = []
    for m in common.MAPPINGS:
        db, times, before, _ = common.load_durable(m, corpus, str(work / f"oracle-{m}.wal"))
        if common.table_digests(db) != before:
            errors.append(f"oracle {m}: recovered tables differ")
        stored[m] = (times.data_bytes + times.index_bytes) / corpus.input_bytes
        if m == mapping:
            expected = common.oracle_digests(db, queries)
            oracle_load = times
        db.close()
    check = answer_checker(expected)
    load_s, recover_s = [oracle_load.load_s], [oracle_load.recover_s]
    setups, servers = [], []
    for _ in range(SETUPS):
        if servers:
            servers[-1].send("stop")
            servers[-1].expect("stopped")
            servers[-1].close()
        child, ready, setup_s = start_server(children, mapping, seed, work)
        servers.append(child)
        setups.append(setup_s)
        load_s.append(ready["load"]["load_s"])
        recover_s.append(ready["load"]["recover_s"])
        if ready["corpus_digest"] != corpus.digest():
            errors.append("server corpus differs from the client's")
        if (ready["load"]["data_bytes"], ready["load"]["index_bytes"]) != (
            oracle_load.data_bytes, oracle_load.index_bytes
        ):
            errors.append("served database size differs from the oracle's")
    server = servers[-1]
    untraced = drive(server, ready["port"], sql_of, schedules, check, seconds)
    server.send("census" if trace else "stop")
    stopped = server.expect("stopped")
    server.close()

    metrics = {
        "setup_s": statistics.median(setups),
        **untraced.metrics(),
        **{f"stored_bytes_per_input_byte.{m}": stored[m] for m in common.MAPPINGS},
    }
    errors += untraced.errors
    attempted, failed = len(untraced.records), len(untraced.records) - len(untraced.ok)
    report(f"window {untraced.seconds:.2f} s, {attempted} requests, {failed} failed, "
           f"{len(untraced.ok)} latency samples (p{TAIL} needs {TAIL_SAMPLES})")
    if not trace:
        return metrics, attempted, failed, errors

    wal = str(work / "late.wal")
    for _ in range(LATE_LOADS):
        db, times, before, _ = common.load_durable(mapping, corpus, wal)
        if common.table_digests(db) != before:
            errors.append(f"{mapping}: recovered tables differ")
        db.close()
        load_s.append(times.load_s)
        recover_s.append(times.recover_s)
        recover_s.extend(common.restart_seconds(mapping, wal, RESTARTS))
    metrics["ingest_mb_per_s"] = corpus.input_bytes / MB / statistics.median(load_s)
    metrics["recover_s"] = statistics.median(recover_s)

    trace_file = work / "spans.json"
    child, ready, setup_s = start_server(children, mapping, seed, work, trace_out=trace_file)
    traced = drive(child, ready["port"], sql_of, schedules, check, seconds)
    child.send("stop")
    child.expect("stopped")
    child.close()
    with open(trace_file) as f:
        dump = json.load(f)
    per_layer = dict.fromkeys(layers.PER_LAYER, 0.0)
    latencies_by_id = {r[1]: r[2] for r in traced.records}
    per_layer.update(layers.request_layers(
        dump, latencies_by_id, stopped, stopped["census"]
    ))
    per_layer.update(layers.load_layers(dump, mapping, ready["load"], corpus.input_bytes))
    traced_metrics = {
        **traced.metrics(),
        "ingest_mb_per_s": corpus.input_bytes / MB / ready["load"]["load_s"],
    }
    errors += traced.errors
    by_key: dict[str, list[float]] = {}
    for key, _, elapsed, ok, _ in untraced.records:
        if ok:
            by_key.setdefault(key, []).append(elapsed * 1000.0)
    for key, values in by_key.items():
        per_layer[f"query.{key}.p50_ms"] = statistics.median(values)
    for name in layers.OVERHEAD_OF:
        per_layer[f"trace.overhead.{name}"] = traced_metrics[name] - metrics[name]
    per_layer["ingest_mb_per_s"] = metrics["ingest_mb_per_s"]
    per_layer["recover_s"] = metrics["recover_s"]
    per_layer["error_rate"] = failed / attempted
    report(f"traced window {traced.seconds:.2f} s, {len(traced.records)} requests")
    return per_layer, attempted, failed, errors


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_program()
    # a terminated run still stops and reaps its children (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    def report(line: str) -> None:
        print(f"# {line}", flush=True)

    work = common.ROOT / "perfbench" / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        report(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
               f"trace={args.trace}")
        metrics, attempted, failed, errors = run_read(
            args.workload.split("-")[0], args.seed, args.seconds,
            bool(args.trace), work, report,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    units = layers.PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    for error in errors[:20]:
        report(f"ERROR {error}")
    for name, unit in units.items():
        report(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
