"""Exact UDF call counts on the plan-bound call path.

Scalar functions are bound to their invokers at plan time; these tests
pin that every XORator Fig11/Fig13 query makes the same per-function
calls whatever the batch size, and that the ``udf.calls.*`` counters
(settled once per statement) advance by exactly the calls counted.
"""

import pytest

from repro.bench.harness import BASE_SHAKESPEARE, BASE_SIGMOD, build_database
from repro.datagen.shakespeare import generate_corpus as generate_shakespeare
from repro.datagen.sigmod import generate_corpus as generate_sigmod
from repro.dtd import samples
from repro.engine.config import ExecutionConfig
from repro.mapping import map_xorator
from repro.obs.metrics import METRICS
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES
from repro.workloads import shakespeare_queries, sigmod_queries

BATCH_SIZES = (1, 7, 1024)


@pytest.fixture(scope="module")
def xorator_dbs():
    shakespeare = build_database(
        "xorator",
        map_xorator(samples.shakespeare_simplified()),
        generate_shakespeare(BASE_SHAKESPEARE),
        shakespeare_queries.workload_sql("xorator"),
        sample_for_codecs=4,
    )
    sigmod = build_database(
        "xorator",
        map_xorator(samples.sigmod_simplified()),
        generate_sigmod(BASE_SIGMOD),
        sigmod_queries.workload_sql("xorator"),
        sample_for_codecs=4,
    )
    return [
        (shakespeare.db, query) for query in SHAKESPEARE_QUERIES
    ] + [(sigmod.db, query) for query in SIGMOD_QUERIES]


def _udf_counter_total() -> int:
    return sum(
        value
        for name, value in METRICS.snapshot()["counters"].items()
        if name.startswith("udf.calls.")
    )


def _counted_run(db, sql):
    db.registry.stats.reset()
    before = _udf_counter_total()
    rows = db.execute(sql).rows
    calls = dict(db.registry.stats.scalar_calls)
    calls.update(db.registry.stats.table_calls)
    return calls, _udf_counter_total() - before, len(rows)


def test_call_counts_do_not_depend_on_batch_size(xorator_dbs):
    assert METRICS.enabled
    saw_calls = False
    for db, query in xorator_dbs:
        original = db.exec_config
        per_batch = []
        try:
            for batch_size in BATCH_SIZES:
                db.set_exec_config(ExecutionConfig(batch_size=batch_size))
                calls, counter_delta, rows = _counted_run(db, query.xorator_sql)
                assert counter_delta == sum(calls.values()), (
                    query.key, batch_size
                )
                per_batch.append((calls, rows))
        finally:
            db.set_exec_config(original)
        assert all(entry == per_batch[0] for entry in per_batch), query.key
        saw_calls = saw_calls or bool(per_batch[0][0])
    assert saw_calls
