"""QS6 order access: the ``indexed`` codec vs the plain tag scan.

Figure 11's one inversion is QS6 — ``getElmIndex`` over XORator's
``speech_line`` fragments loses to Hybrid because every call re-scans
the fragment text for the Nth ``<LINE>`` sibling.  The ``indexed``
codec's span directory (:mod:`repro.xadt.metadata`, the paper's §5
"metadata associated with each XADT attribute") carries per-parent
ordinal arrays and NUL-joined token blobs inside each value, so ordinal
and keyword access stop paying the O(fragment-bytes) walk.

This is the acceptance gate for that directory: the **median
per-access-kind speedup** of ``fragment.recode("indexed")`` over
``fragment.recode("plain")`` must be **>= 10x** at the largest Figure 11
scale (DSx8).  The gated access kinds are the two QS6-style method
shapes:

* *ordinal* — ``getElmIndex(speech_line, '', 'LINE', 2, 2)`` (QS6's
  projection, verbatim);
* *keyword* — ``findKeyInElm(speech_line, 'LINE', 'love')`` (the §3.4.2
  keyword probe over the same fragments).

``getElm`` with a keyword is reported but not gated: its cost is the
matched-subtree slice assembly, which the directory prunes but cannot
skip.

The corpus is the DSx8 Shakespeare corpus with ``lines_per_speech=14``:
the stock generator miniaturizes speeches to 4 lines to keep the tier-1
suite fast, while the play prologues the paper's corpus stores are
14-line sonnets.  The override restores paper-realistic fragment sizes
(~800 bytes); the access-path comparison below is otherwise the stock
harness.

Also asserted here:

* **parity** — both codecs return byte-identical results for every
  fragment and access kind;
* **default mode preserves the paper shape** — with the chooser's plain
  codec, QS6 stays XORator's weakest structural-query ratio, so Figure
  11's published shape is untouched unless a column is loaded
  ``indexed``;
* **engine parity** — the QS6 SQL returns the same rows from a
  plain-codec and an ``indexed``-codec XORator database.

``REPRO_QS6_QUICK=1`` drops to DSx1 and 3 rounds for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import replace

from conftest import print_report

from repro.bench.harness import BASE_SHAKESPEARE, build_database, cold_query
from repro.datagen.shakespeare import generate_corpus
from repro.dtd import samples
from repro.engine.database import Database
from repro.mapping import map_xorator
from repro.mapping.base import ColumnKind
from repro.shred import load_documents
from repro.workloads import SHAKESPEARE_QUERIES, shakespeare_queries
from repro.xadt import methods, register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE

import pytest

#: required median speedup over the gated access kinds
SPEEDUP_GATE = 10.0

QUICK = os.environ.get("REPRO_QS6_QUICK", "") not in ("", "0")
#: the largest Figure 11 scale (DSx8); quick mode smokes at DSx1
SCALE = 1 if QUICK else 8
ROUNDS = 3 if QUICK else 9

QS6 = next(q for q in SHAKESPEARE_QUERIES if q.key == "QS6")

#: (name, gated, callable) — the measured access kinds
ACCESS_KINDS = (
    ("ordinal", True, lambda f: methods.get_elm_index(f, "", "LINE", 2, 2)),
    ("keyword", True, lambda f: methods.find_key_in_elm(f, "LINE", "love")),
    ("getelm", False, lambda f: methods.get_elm(f, "", "LINE", "love")),
)


@pytest.fixture(scope="module")
def qs6_corpus():
    """The DSx8 corpus with paper-sized prologue speeches."""
    config = replace(BASE_SHAKESPEARE.scaled(SCALE), lines_per_speech=14)
    return generate_corpus(config)


@pytest.fixture(scope="module")
def qs6_db(qs6_corpus):
    """A chooser-coded XORator database and its prologue fragments.

    Yields ``(db, plain, indexed)``: the same prologue ``speech_line``
    fragments recoded to the two codecs, directories built once.
    """
    loaded = build_database(
        "xorator",
        map_xorator(samples.shakespeare_simplified()),
        qs6_corpus,
        shakespeare_queries.workload_sql("xorator"),
        sample_for_codecs=4,
    )
    db = loaded.db
    rows = db.execute(
        "SELECT speech_line FROM speech "
        "WHERE speech_parentCODE = 'PROLOGUE'"
    ).rows
    assert rows, "corpus produced no prologue speeches"
    plain = [row[0].recode("plain") for row in rows]
    indexed = [row[0].recode("indexed") for row in rows]
    for fragment in indexed:
        fragment.directory()  # built once per value, as at load time
    yield db, plain, indexed


def _median_pass_seconds(fn, fragments) -> float:
    """Median per-fragment seconds of a full pass."""
    times = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for fragment in fragments:
            fn(fragment)
        times.append(time.perf_counter() - started)
    return statistics.median(times) / len(fragments)


def test_qs6_order_access_gate(qs6_db, benchmark):
    _, plain, indexed = qs6_db

    # parity first: both codecs agree on every fragment and access kind
    for name, _, fn in ACCESS_KINDS:
        for scan_fragment, indexed_fragment in zip(plain, indexed):
            assert fn(indexed_fragment) == fn(scan_fragment), name

    # the decode cache memoizes plain-codec findKeyInElm verdicts; timing
    # with it on would measure the cache, not the access path
    DECODE_CACHE.enabled = False
    try:
        measured = []
        for name, gated, fn in ACCESS_KINDS:
            scan_s = _median_pass_seconds(fn, plain)
            index_s = _median_pass_seconds(fn, indexed)
            measured.append((name, gated, scan_s, index_s))
    finally:
        DECODE_CACHE.enabled = True
        DECODE_CACHE.clear()

    lines = [
        f"{'access':10}{'plain/call':>12}{'indexed/call':>14}"
        f"{'speedup':>9}{'gated':>7}"
    ]
    gated_speedups = []
    for name, gated, scan_s, index_s in measured:
        speedup = scan_s / index_s if index_s else float("inf")
        if gated:
            gated_speedups.append(speedup)
        lines.append(
            f"{name:10}{scan_s * 1e6:>10.2f}us{index_s * 1e6:>12.2f}us"
            f"{speedup:>8.1f}x{'  yes' if gated else '   no':>7}"
        )
    median_speedup = statistics.median(gated_speedups)
    lines.append(
        f"median gated speedup: {median_speedup:.1f}x (gate: >= "
        f"{SPEEDUP_GATE:.0f}x; DSx{SCALE}, {len(plain)} prologue "
        f"fragments, median of {ROUNDS} rounds"
        f"{', quick mode' if QUICK else ''})"
    )
    print_report(
        "QS6 order access — indexed codec vs plain tag scan "
        "(XORator speech_line, paper-sized prologues)",
        "\n".join(lines),
    )
    assert median_speedup >= SPEEDUP_GATE, (
        f"median indexed speedup {median_speedup:.1f}x is below the "
        f"{SPEEDUP_GATE:.0f}x gate"
    )

    # the timed payload: the indexed ordinal pass (QS6's projection)
    ordinal = ACCESS_KINDS[0][2]

    def indexed_pass():
        for fragment in indexed:
            ordinal(fragment)

    benchmark(indexed_pass)


def test_indexed_database_matches_plain(qs6_db, qs6_corpus):
    """QS6 returns the same rows whichever codec the columns use."""
    db, _, _ = qs6_db
    schema = map_xorator(samples.shakespeare_simplified())
    indexed_db = Database("xorator-indexed")
    register_xadt_functions(indexed_db)
    load_documents(
        indexed_db,
        schema,
        qs6_corpus,
        {
            f"{table.name}.{column.name}": "indexed"
            for table in schema.tables
            for column in table.columns
            if column.kind is ColumnKind.XADT
        },
    )
    indexed_db.apply_index_advice(shakespeare_queries.workload_sql("xorator"))
    indexed_db.runstats()
    sql = QS6.sql_for("xorator")
    assert "xadt[scan]" in indexed_db.explain(sql)
    canon = lambda rows: sorted(tuple(str(v) for v in row) for row in rows)
    assert canon(indexed_db.execute(sql).rows) == canon(db.execute(sql).rows)


def test_default_mode_preserves_fig11_shape(shakespeare_pair_x1):
    """Chooser codecs: QS6 stays XORator's weakest structural-query ratio.

    The paired databases are built with the chooser's codecs (plain or
    dict, never ``indexed``).  This repro does not reproduce the paper's
    literal QS6 inversion (a scale artifact — see EXPERIMENTS.md); its
    recorded Figure 11 shape is that QS6 is XORator's *weakest* win of
    the structural queries.  This run shows that shape is intact unless
    a column is loaded ``indexed`` — the scan path stays the default.
    """
    pair = shakespeare_pair_x1
    ratios = {}
    for query in SHAKESPEARE_QUERIES:
        if query.key == "QS4":  # its own recorded deviation
            continue
        xorator = cold_query(
            pair.side("xorator").db, query.sql_for("xorator")
        ).modeled_seconds
        hybrid = cold_query(
            pair.side("hybrid").db, query.sql_for("hybrid")
        ).modeled_seconds
        ratios[query.key] = hybrid / xorator
    others = {key: r for key, r in ratios.items() if key != "QS6"}
    print_report(
        "QS6 default (chooser-codec) mode — Figure 11 relative shape intact",
        "hybrid/xorator cold ratios: "
        + "  ".join(f"{k} {r:.2f}" for k, r in ratios.items())
        + f"\nQS6 {ratios['QS6']:.2f} vs min(others) "
        f"{min(others.values()):.2f} (recorded shape: QS6 weakest)",
    )
    assert ratios["QS6"] < min(others.values()), (
        f"QS6 ratio {ratios['QS6']:.2f} is no longer XORator's weakest "
        "structural-query win — the chooser-codec default changed the "
        "recorded Figure 11 shape"
    )
