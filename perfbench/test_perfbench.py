"""Tests of the benchmark itself: seeded inputs, digests, spans, contract.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

common.require_program()

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_byte_identical_corpus():
    first, again = common.make_corpus(3, 1), common.make_corpus(3, 1)
    assert first.shakespeare == again.shakespeare
    assert first.sigmod == again.sigmod
    assert first.digest() == again.digest()
    assert common.make_corpus(4, 1).digest() != first.digest()


def test_same_seed_gives_the_same_request_schedule():
    keys = [key for key, _ in common.mix_queries("xorator")]
    assert len(keys) == 12
    one = common.schedule(9, 0, 600, keys)
    assert one == common.schedule(9, 0, 600, keys)
    assert one != common.schedule(9, 1, 600, keys)
    assert one != common.schedule(10, 0, 600, keys)
    for start in range(0, 600, 12):
        assert sorted(one[start:start + 12]) == sorted(keys)
    assert common.schedule_digest(9, 2, 600, keys) == common.schedule_digest(9, 2, 600, keys)


def test_mix_is_the_paper_queries_in_both_mappings():
    xorator, hybrid = common.mix_queries("xorator"), common.mix_queries("hybrid")
    assert [k for k, _ in xorator] == [k for k, _ in hybrid] == list(layers.QUERY_KEYS)
    assert all("getElm" not in sql and "unnest" not in sql for _, sql in hybrid)


def test_digest_ignores_row_order_only():
    rows = [[1, "a"], [2, "<b>x</b>"]]
    swapped = list(reversed(rows))
    assert common.rows_digest(["c", "d"], rows) == common.rows_digest(["c", "d"], swapped)
    assert common.rows_digest(["c", "d"], rows) != common.rows_digest(["c", "d"], [[1, "a"]])
    assert common.rows_digest(["c", "d"], rows) != common.rows_digest(["c", "e"], rows)


def test_oracle_checker_accepts_reordered_rows_and_rejects_wrong_ones():
    from repro.server import ClientResult

    columns, rows = ["v"], [["x"], ["y"]]
    check = run.answer_checker({"Q": (common.rows_digest(columns, rows), 2)})
    assert check("Q", ClientResult(columns, rows))
    assert check("Q", ClientResult(columns, [["y"], ["x"]]))
    assert not check("Q", ClientResult(columns, [["y"], ["y"]]))
    assert not check("Q", ClientResult(columns, [["x"]]))


def test_durable_load_recovers_identical_tables(tmp_path):
    corpus = common.make_corpus(5, 1)
    db, times, before, latencies = common.load_durable(
        "xorator", corpus, str(tmp_path / "x.wal")
    )
    try:
        assert common.table_digests(db) == before
        assert len(latencies) == len(corpus.shakespeare) + len(corpus.sigmod)
        assert times.load_s > 0 and times.recover_s > 0 and times.records > 0
        assert times.data_bytes == db.data_size_bytes()
    finally:
        db.close()


def test_span_self_time_excludes_nested_boundaries():
    recorder = tracing.Recorder()

    def leaf():
        time.sleep(0.02)
        return 3

    def rows():
        yield from (1, 2)

    row = recorder.row(leaf, "leaf", amount=lambda _args, result: result)
    gen = recorder.row_generator(rows, "gen")

    def body():
        time.sleep(0.02)
        return row() + row() + sum(gen())

    recorder.span(body, "outer", rid_of=lambda _args: 7)()
    (name, start, end, self_s, rid, folded), = recorder.spans
    assert (name, rid) == ("outer", 7)
    calls, leaf_self, leaf_total, amount = folded["leaf"]
    assert (calls, amount) == (2, 6)
    assert leaf_self == leaf_total >= 0.04
    assert folded["gen"][0] == 1
    assert 0.02 <= self_s < (end - start) - leaf_total + 1e-9


def test_percentile_and_tail_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50.5
    assert run.percentile([4.0], 95) == 4.0
    assert (run.TAIL, run.TAIL_SAMPLES) == (95, 200)


def test_benchmark_json_matches_the_metrics_printed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert BENCHMARK["paths"] == ["perfbench"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        common.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
