"""Vectorized-execution speedup: batch operators vs row-at-a-time.

The acceptance gate for the batch execution layer: the same Figure 11
queries, prepared once and executed warm against two databases loaded
from the same corpus —

* *vectorized*: the shipped default (:data:`~repro.engine.config.VECTORIZED`)
  — 1024-row batches;
* *row-at-a-time*: ``ExecutionConfig(batch_size=1)`` — one row per
  batch, the classic Volcano regime.

Both sides run the same plans, the same generated expression closures
and the same scan-level predicate and projection pushdown, so the
measured difference is batching alone.

The asserted figure is the median per-query speedup over the
scan/filter-heavy subset of the workload (the queries whose cost is
dominated by scan + predicate + projection work, where batching can
help; QS6's cost is XADT string scanning and QE1/QE2 are tiny
point-ish queries, so they are reported but not gated).  The gate is
**>= 2x**.

Both sides are warmed before timing so the process-wide XADT decode
cache (shared between the two databases) favors neither side.

``REPRO_VEC_QUICK=1`` drops the round count for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import print_report

from repro.bench.harness import build_pair
from repro.engine.config import ExecutionConfig
from repro.workloads import SHAKESPEARE_QUERIES

import pytest

#: required median speedup over the gated query subset
SPEEDUP_GATE = 2.0

#: the scan/filter-heavy Figure 11 queries the gate is computed over
GATED_KEYS = ("QS1", "QS2", "QS3", "QS4", "QS5")

QUICK = os.environ.get("REPRO_VEC_QUICK", "") not in ("", "0")
ROUNDS = 3 if QUICK else 9
#: executions per timing round (amortizes perf_counter granularity)
EXECUTIONS = 1 if QUICK else 3


@pytest.fixture(scope="module")
def engine_pairs():
    """(vectorized, row-at-a-time) Shakespeare pairs over one corpus."""
    vectorized = build_pair("shakespeare", 1)
    row_mode = build_pair(
        "shakespeare", 1, exec_config=ExecutionConfig(batch_size=1)
    )
    return vectorized, row_mode


def _median_seconds(prepared, rounds: int, executions: int) -> float:
    """Median over ``rounds`` of the mean warm execution time."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(executions):
            prepared.execute()
        times.append((time.perf_counter() - started) / executions)
    return statistics.median(times)


def test_vectorized_speedup_gate(engine_pairs, benchmark):
    vectorized, row_mode = engine_pairs
    algorithm = "hybrid"

    rows_by_key: dict[str, tuple[float, float, int, int]] = {}
    for query in SHAKESPEARE_QUERIES:
        vec_prepared = query.prepare_for(vectorized.side(algorithm).db, algorithm)
        row_prepared = query.prepare_for(row_mode.side(algorithm).db, algorithm)
        # warm both sides first: plan caches fill and the *shared*
        # XADT decode cache reaches steady state before any timing
        vec_rows = len(vec_prepared.execute())
        row_rows = len(row_prepared.execute())
        assert vec_rows == row_rows, (
            f"{query.key}: vectorized returned {vec_rows} rows, "
            f"row-at-a-time returned {row_rows}"
        )
        vec_time = _median_seconds(vec_prepared, ROUNDS, EXECUTIONS)
        row_time = _median_seconds(row_prepared, ROUNDS, EXECUTIONS)
        rows_by_key[query.key] = (vec_time, row_time, vec_rows, row_rows)

    lines = [
        f"{'query':8}{'row-mode':>12}{'vectorized':>12}{'speedup':>9}{'gated':>7}"
    ]
    gated_speedups = []
    for key, (vec_time, row_time, vec_rows, _) in rows_by_key.items():
        speedup = row_time / vec_time if vec_time else float("inf")
        gated = key in GATED_KEYS
        if gated:
            gated_speedups.append(speedup)
        lines.append(
            f"{key:8}{row_time * 1000:>10.3f}ms{vec_time * 1000:>10.3f}ms"
            f"{speedup:>8.2f}x{'  yes' if gated else '   no':>7}"
        )
    median_speedup = statistics.median(gated_speedups)
    lines.append(
        f"median speedup over {', '.join(GATED_KEYS)}: "
        f"{median_speedup:.2f}x (gate: >= {SPEEDUP_GATE:.1f}x; "
        f"median of {ROUNDS} rounds x {EXECUTIONS} executions"
        f"{', quick mode' if QUICK else ''})"
    )
    print_report(
        "Vectorized batch execution vs row-at-a-time "
        "(Figure 11 Hybrid queries, warm prepared path)",
        "\n".join(lines),
    )
    assert median_speedup >= SPEEDUP_GATE, (
        f"median vectorized speedup {median_speedup:.2f}x over "
        f"{GATED_KEYS} is below the {SPEEDUP_GATE:.1f}x gate"
    )

    # the timed payload: the shipped vectorized warm path end to end
    db = vectorized.side(algorithm).db
    statements = [q.prepare_for(db, algorithm) for q in SHAKESPEARE_QUERIES]
    benchmark(lambda: [stmt.execute() for stmt in statements])


def test_modes_agree_on_full_workload(engine_pairs):
    """Both engines return identical result sets on every Fig11 query."""
    vectorized, row_mode = engine_pairs
    from repro.engine.values import render

    for algorithm in ("hybrid", "xorator"):
        for query in SHAKESPEARE_QUERIES:
            sql = query.sql_for(algorithm)
            vec = vectorized.side(algorithm).db.execute(sql)
            row = row_mode.side(algorithm).db.execute(sql)
            canon = lambda rows: sorted(
                tuple(render(v) for v in r) for r in rows
            )
            assert canon(vec) == canon(row), (
                f"{query.key}/{algorithm}: vectorized and row-at-a-time "
                "result sets differ"
            )
