"""DDL/DML statements and the Result type."""

import pytest

from repro.engine import Database, Result
from repro.errors import CatalogError, ExecutionError


@pytest.fixture()
def db():
    return Database("ddl")


class TestCreateTable:
    def test_create_and_describe(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(10), c XADT)")
        schema = db.catalog.table("t")
        assert schema.column_names() == ["a", "b", "c"]
        assert schema.primary_key.name == "a"

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE T (a INTEGER)")

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("DROP TABLE t")
        assert not db.catalog.has_table("t")

    def test_drop_removes_indexes(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE INDEX i ON t(a)")
        db.execute("DROP TABLE t")
        assert db.catalog.index_names() == []


class TestCreateIndex:
    def test_create_index_kinds(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute("CREATE INDEX ia ON t(a) USING hash")
        db.execute("CREATE INDEX ib ON t(b)")  # btree default
        assert db.live_index("t", "a")[0].kind == "hash"
        assert db.live_index("t", "b")[0].kind == "btree"

    def test_index_on_unknown_column_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i ON t(ghost)")

    def test_duplicate_index_name_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        db.execute("CREATE INDEX i ON t(a)")
        with pytest.raises(CatalogError):
            db.execute("CREATE INDEX i ON t(b)")


class TestInsertStatement:
    def test_insert_values(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.scalar() == 2
        assert len(db.execute("SELECT * FROM t")) == 2

    def test_insert_with_column_list(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        db.execute("INSERT INTO t (b) VALUES ('only-b')")
        assert db.execute("SELECT a, b FROM t").rows == [(None, "only-b")]

    def test_insert_arity_mismatch_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t (a) VALUES (1, 2)")

    def test_insert_null_literal(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (NULL)")
        assert db.execute("SELECT a FROM t").scalar() is None

    def test_insert_mixes_literals_parameters_and_expressions(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR, c INTEGER)")
        db.execute(
            "INSERT INTO t (c, a, b) VALUES (2 * 3, 1, ?), (-4, ?, 'y'), "
            "(7 / 2, length('abc'), 'z')",
            ("x", 2),
        )
        assert db.execute("SELECT a, b, c FROM t").rows == [
            (1, "x", 6), (2, "y", -4), (3, "z", 3),
        ]

    def test_insert_expression_error_inserts_nothing(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1), (1 / 0)")
        assert db.row_count("t") == 0


class TestResult:
    def test_scalar_requires_1x1(self):
        with pytest.raises(ExecutionError):
            Result(["a", "b"], [(1, 2)]).scalar()
        with pytest.raises(ExecutionError):
            Result(["a"], []).scalar()

    def test_column_access_case_insensitive(self):
        result = Result(["SPEAKER"], [("A",), ("B",)])
        assert result.column("speaker") == ["A", "B"]

    def test_unknown_column_rejected(self):
        with pytest.raises(ExecutionError):
            Result(["a"], []).column("b")

    def test_first_empty(self):
        assert Result(["a"], []).first() is None

    def test_to_table_matches_db2_style(self):
        rendered = Result(["SPEAKER"], [("s1",), ("s2",)]).to_table()
        assert rendered.startswith("SPEAKER\n-")
        assert rendered.endswith("2 record(s) selected.")

    def test_to_table_truncates(self):
        result = Result(["x"], [(i,) for i in range(100)])
        rendered = result.to_table(max_rows=5)
        assert "(95 more)" in rendered

    def test_iteration(self):
        result = Result(["a"], [(1,), (2,)])
        assert list(result) == [(1,), (2,)]
        assert len(result) == 2
