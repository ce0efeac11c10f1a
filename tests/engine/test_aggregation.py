"""Aggregation: GROUP BY, HAVING, COUNT/SUM/AVG/MIN/MAX, DISTINCT aggs."""

import pytest

from repro.difftest.runner import canonical_rows
from repro.engine import Database
from repro.errors import ExecutionError, PlanError


@pytest.fixture()
def db():
    database = Database("agg")
    database.execute(
        "CREATE TABLE papers (pID INTEGER PRIMARY KEY, author VARCHAR, "
        "section INTEGER, pages INTEGER)"
    )
    rows = [
        (1, "Codd", 1, 10),
        (2, "Codd", 1, 12),
        (3, "Codd", 2, 8),
        (4, "Gray", 1, 20),
        (5, "Gray", 3, 6),
        (6, "Bird", 2, None),
    ]
    database.bulk_insert("papers", rows)
    database.runstats()
    return database


class TestGrandTotals:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM papers").scalar() == 6

    def test_count_column_skips_nulls(self, db):
        assert db.execute("SELECT COUNT(pages) FROM papers").scalar() == 5

    def test_sum(self, db):
        assert db.execute("SELECT SUM(pages) FROM papers").scalar() == 56

    def test_avg(self, db):
        assert db.execute("SELECT AVG(pages) FROM papers").scalar() == 56 / 5

    def test_min_max(self, db):
        result = db.execute("SELECT MIN(pages), MAX(pages) FROM papers")
        assert result.rows[0] == (6, 20)

    def test_count_distinct(self, db):
        assert (
            db.execute("SELECT COUNT(DISTINCT author) FROM papers").scalar() == 3
        )

    def test_empty_input_count_is_zero(self, db):
        result = db.execute("SELECT COUNT(*) FROM papers WHERE pID > 100")
        assert result.scalar() == 0

    def test_empty_input_sum_is_null(self, db):
        result = db.execute("SELECT SUM(pages) FROM papers WHERE pID > 100")
        assert result.scalar() is None


class TestGroupBy:
    def test_group_counts(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) AS n FROM papers GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 3, "Gray": 2, "Bird": 1}

    def test_group_by_with_filter(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) FROM papers WHERE section = 1 GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 2, "Gray": 1}

    def test_count_distinct_per_group(self, db):
        result = db.execute(
            "SELECT author, COUNT(DISTINCT section) FROM papers GROUP BY author"
        )
        assert dict(result.rows) == {"Codd": 2, "Gray": 2, "Bird": 1}

    def test_group_by_expression(self, db):
        result = db.execute(
            "SELECT length(author), COUNT(*) FROM papers GROUP BY length(author)"
        )
        assert dict(result.rows) == {4: 6}

    def test_having(self, db):
        result = db.execute(
            "SELECT author FROM papers GROUP BY author HAVING COUNT(*) >= 2"
        )
        assert sorted(result.column("author")) == ["Codd", "Gray"]

    def test_order_by_aggregate(self, db):
        result = db.execute(
            "SELECT author, COUNT(*) AS n FROM papers GROUP BY author "
            "ORDER BY n DESC, author"
        )
        assert result.column("author") == ["Codd", "Gray", "Bird"]

    def test_aggregate_of_expression(self, db):
        result = db.execute("SELECT SUM(pages + 1) FROM papers")
        assert result.scalar() == 56 + 5  # five non-null pages

    def test_expression_over_aggregate(self, db):
        result = db.execute("SELECT COUNT(*) + 1 FROM papers")
        assert result.scalar() == 7

    def test_group_key_is_null_groups_together(self, db):
        db.insert("papers", (7, None, 9, 1))
        db.insert("papers", (8, None, 9, 2))
        result = db.execute(
            "SELECT author, COUNT(*) FROM papers GROUP BY author"
        )
        assert dict(result.rows)[None] == 2


class TestPostAggregateExpressions:
    """Expressions over aggregates (SELECT list and HAVING) evaluate with
    the same NULL, floor-division and typed-error rules as any other
    expression."""

    @pytest.mark.parametrize(
        "sql, expected",
        [
            (
                "SELECT author, COUNT(*) / 2 FROM papers GROUP BY author",
                [("Bird", 0), ("Codd", 1), ("Gray", 1)],
            ),
            (
                "SELECT author FROM papers GROUP BY author "
                "HAVING COUNT(*) / 2 = 1",
                [("Codd",), ("Gray",)],
            ),
            ("SELECT COUNT(*) / 4 FROM papers", [(1,)]),
        ],
    )
    def test_division_of_aggregate_floors(self, db, sql, expected):
        # sqlite truncates instead of flooring, so '/' has no mirror
        rows = db.execute(sql).rows
        assert sorted(rows) == expected
        assert all(type(row[-1]) is type(expected[0][-1]) for row in rows)

    @pytest.mark.parametrize(
        "sql, expected",
        [
            (
                "SELECT author, -COUNT(*) FROM papers GROUP BY author",
                [("Bird", -1), ("Codd", -3), ("Gray", -2)],
            ),
            (
                "SELECT author FROM papers GROUP BY author "
                "HAVING -COUNT(*) < -1",
                [("Codd",), ("Gray",)],
            ),
            (
                "SELECT author FROM papers GROUP BY author "
                "HAVING MAX(pages) IS NULL",
                [("Bird",)],
            ),
            (
                "SELECT author, MAX(pages) IS NOT NULL FROM papers "
                "GROUP BY author HAVING MAX(pages) IS NOT NULL",
                [("Codd", True), ("Gray", True)],
            ),
            (
                "SELECT author, MAX(pages) + 1, SUM(pages) * 2 - 1 "
                "FROM papers GROUP BY author",
                [("Bird", None, None), ("Codd", 13, 59), ("Gray", 21, 51)],
            ),
        ],
    )
    def test_matches_sqlite(self, db, sql, expected):
        native = db.execute(sql).rows
        assert sorted(native, key=repr) == sorted(expected, key=repr)
        assert canonical_rows(native) == canonical_rows(
            db.execute(sql, backend="sqlite").rows
        )

    def test_arithmetic_on_text_aggregate_is_typed_error(self, db):
        with pytest.raises(ExecutionError, match="arithmetic failed"):
            db.execute("SELECT section, MAX(author) + 1 FROM papers GROUP BY section")


class TestAggregateErrors:
    def test_bare_column_outside_group_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT author, COUNT(*) FROM papers")

    def test_having_without_group_or_aggregate_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT pID FROM papers HAVING pID > 1")

    def test_sum_of_text_rejected(self, db):
        with pytest.raises(Exception):
            db.execute("SELECT SUM(author) FROM papers")

    def test_star_outside_count_rejected(self, db):
        with pytest.raises(PlanError):
            db.execute("SELECT SUM(*) FROM papers")
