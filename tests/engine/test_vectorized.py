"""Vectorized execution: batch shapes, pushdown, config, and parity.

The batch layer must be invisible except in speed: result sets match
one-row batches (``batch_size=1``) on the full paper workloads, EXPLAIN
ANALYZE still reports *row* counts, and flipping :class:`ExecutionConfig`
invalidates cached plans (which bake in batch sizes).
"""

import pytest

from repro.engine import Database
from repro.engine.config import DEFAULT_BATCH_SIZE, VECTORIZED, ExecutionConfig
from repro.engine.values import render
from repro.workloads import SHAKESPEARE_QUERIES, SIGMOD_QUERIES

#: the row-at-a-time baseline: one row per batch, same compiler and plan
ONE_ROW_BATCHES = ExecutionConfig(batch_size=1)


@pytest.fixture()
def db():
    database = Database("vectorized")
    database.execute(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, "
        "name VARCHAR, pad VARCHAR)"
    )
    for i in range(3000):
        database.insert("items", (i, i % 10, f"item{i % 40}", "x" * 20))
    database.runstats()
    return database


def _plan_of(db, sql):
    statement = db.prepare(sql)
    entry = db._select_entry(statement._key, statement._statement)
    entry.params.bind(())
    return entry.plan


class TestBatchShapes:
    def test_batches_respect_configured_size(self, db):
        db.set_exec_config(ExecutionConfig(batch_size=7))
        plan = _plan_of(db, "SELECT id FROM items")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 3000
        assert all(size <= 7 for size in sizes)
        assert max(sizes) == 7  # an unfiltered scan must fill its batches

    def test_filtered_scan_emits_only_survivors(self, db):
        # the scan filters each storage chunk in place, so output batches
        # may be smaller than batch_size but never empty
        db.set_exec_config(ExecutionConfig(batch_size=7))
        plan = _plan_of(db, "SELECT id FROM items WHERE grp = 3")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 300
        assert all(0 < size <= 7 for size in sizes)

    def test_default_batch_size_bounds_scan_output(self, db):
        plan = _plan_of(db, "SELECT id FROM items")
        sizes = [len(batch) for batch in plan.batches()]
        assert sum(sizes) == 3000
        assert all(size <= DEFAULT_BATCH_SIZE for size in sizes)

    def test_rows_flattens_batches(self, db):
        plan = _plan_of(db, "SELECT id FROM items WHERE id < 5")
        assert sorted(plan.rows()) == [(0,), (1,), (2,), (3,), (4,)]


class TestProjectionPushdown:
    def test_seq_scan_prunes_unneeded_columns(self, db):
        text = db.explain("SELECT id FROM items WHERE grp = 3")
        assert "cols[" in text
        assert "pad" not in text.split("cols[", 1)[1].split("]", 1)[0]

    def test_select_star_keeps_all_columns(self, db):
        text = db.explain("SELECT * FROM items")
        assert "cols[" not in text

    def test_pruned_scan_returns_same_rows(self, db):
        sql = "SELECT name FROM items WHERE grp = 3 AND id < 100"
        vectorized = db.execute(sql)
        db.set_exec_config(ONE_ROW_BATCHES)
        try:
            baseline = db.execute(sql)
        finally:
            db.set_exec_config(VECTORIZED)
        assert sorted(vectorized) == sorted(baseline)


class TestConfigEpoch:
    def test_set_exec_config_invalidates_cached_plans(self, db):
        sql = "SELECT id FROM items WHERE grp = 3"
        db.execute(sql)
        db.execute(sql)
        hits_before = db.plan_cache.stats.hits
        assert hits_before >= 1
        db.set_exec_config(ONE_ROW_BATCHES)
        try:
            db.execute(sql)
        finally:
            db.set_exec_config(VECTORIZED)
        assert db.plan_cache.stats.invalidations >= 1
        assert db.plan_cache.stats.hits == hits_before

    def test_exec_config_constructor_argument(self):
        database = Database("cfg", exec_config=ONE_ROW_BATCHES)
        assert database.exec_config.as_dict() == {
            "batch_size": 1,
            "parallel_workers": 0,
        }


class TestExplainAnalyzeRowActuals:
    def test_actuals_count_rows_not_batches(self, db):
        # small batches make the distinction unmissable: 300 rows in
        # 7-row batches is 43 batch pulls but must report 300 rows
        db.set_exec_config(ExecutionConfig(batch_size=7))
        sql = "SELECT id FROM items WHERE grp = 3"
        report = db.explain_analyze(sql)
        assert report.root.actual_rows == 300
        scan = report.operators[-1]
        assert scan.actual_rows == 300

    def test_miss_flag_uses_row_counts(self, db):
        # grp has 10 distinct values; a fresh-stats equality estimate is
        # ~300 rows, so a correct per-row actual must NOT flag, while a
        # per-batch actual (~1 batch of 1024) would look like a >10x miss
        report = db.explain_analyze("SELECT id FROM items WHERE grp = 3")
        scan = report.operators[-1]
        assert scan.actual_rows == 300
        assert not scan.flagged


def _canonical(rows):
    return sorted(tuple(render(value) for value in row) for row in rows)


def _assert_modes_agree(loaded, sql, key):
    db = loaded.db
    vectorized = db.execute(sql)
    db.set_exec_config(ONE_ROW_BATCHES)
    try:
        baseline = db.execute(sql)
    finally:
        db.set_exec_config(VECTORIZED)
    assert _canonical(vectorized) == _canonical(baseline), (
        f"{key}: default and one-row batches return different result sets"
    )


class TestWorkloadParity:
    """Default batches match one-row batches on every Figure 11 and
    Figure 13 query, both schemas."""

    @pytest.mark.parametrize("query", SHAKESPEARE_QUERIES,
                             ids=lambda q: q.key)
    def test_fig11_agreement(self, shakespeare_pair, query):
        hybrid, xorator = shakespeare_pair
        _assert_modes_agree(hybrid, query.hybrid_sql, f"{query.key}/hybrid")
        _assert_modes_agree(xorator, query.xorator_sql, f"{query.key}/xorator")

    @pytest.mark.parametrize("query", SIGMOD_QUERIES, ids=lambda q: q.key)
    def test_fig13_agreement(self, sigmod_pair, query):
        hybrid, xorator = sigmod_pair
        _assert_modes_agree(hybrid, query.hybrid_sql, f"{query.key}/hybrid")
        _assert_modes_agree(xorator, query.xorator_sql, f"{query.key}/xorator")
