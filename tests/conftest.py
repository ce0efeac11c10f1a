"""Shared fixtures: small corpora and loaded database pairs.

Expensive artifacts (generated corpora, loaded databases) are session
scoped; tests must not mutate them.  Tests that need a writable database
build their own.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_database
from repro.datagen.plays import PlaysConfig, generate_corpus as generate_plays
from repro.datagen.shakespeare import (
    ShakespeareConfig,
    generate_corpus as generate_shakespeare,
)
from repro.datagen.sigmod import SigmodConfig, generate_corpus as generate_sigmod
from repro.dtd import samples
from repro.engine.database import Database
from repro.mapping import map_hybrid, map_xorator
from repro.shred import decide_codecs
from repro.workloads.shakespeare_queries import PLAYS_QUERIES
from repro.workloads.shakespeare_queries import workload_sql as qs_workload_sql
from repro.workloads.sigmod_queries import workload_sql as qg_workload_sql
from repro.xadt import register_xadt_functions
from repro.xadt.decode_cache import DECODE_CACHE


@pytest.fixture(autouse=True)
def _empty_decode_cache():
    """Start every test with an empty process-wide decode cache.

    The cache is keyed on payload content, so a database built by an
    earlier test from the same seeded corpus would otherwise hand its
    decoded fragments and memoized verdicts to a later test's "cold"
    runs, making timings depend on test order.
    """
    DECODE_CACHE.clear()


@pytest.fixture(scope="session")
def shakespeare_docs():
    return generate_shakespeare(ShakespeareConfig(plays=3))


@pytest.fixture(scope="session")
def sigmod_docs():
    return generate_sigmod(SigmodConfig(documents=8))


@pytest.fixture(scope="session")
def plays_docs():
    return generate_plays(PlaysConfig(plays=3))


@pytest.fixture(scope="session")
def shakespeare_simplified():
    return samples.shakespeare_simplified()


@pytest.fixture(scope="session")
def sigmod_simplified():
    return samples.sigmod_simplified()


@pytest.fixture(scope="session")
def plays_simplified():
    return samples.plays_simplified()


@pytest.fixture(scope="session")
def shakespeare_pair(shakespeare_docs, shakespeare_simplified):
    """(hybrid, xorator) LoadedDatabase pair over the Shakespeare corpus."""
    hybrid = build_database(
        "hybrid", map_hybrid(shakespeare_simplified), shakespeare_docs,
        qs_workload_sql("hybrid"),
    )
    xorator = build_database(
        "xorator", map_xorator(shakespeare_simplified), shakespeare_docs,
        qs_workload_sql("xorator"), sample_for_codecs=2,
    )
    return hybrid, xorator


@pytest.fixture(scope="session")
def sigmod_pair(sigmod_docs, sigmod_simplified):
    hybrid = build_database(
        "hybrid", map_hybrid(sigmod_simplified), sigmod_docs,
        qg_workload_sql("hybrid"),
    )
    xorator = build_database(
        "xorator", map_xorator(sigmod_simplified), sigmod_docs,
        qg_workload_sql("xorator"), sample_for_codecs=2,
    )
    return hybrid, xorator


@pytest.fixture(scope="session")
def plays_pair(plays_docs, plays_simplified):
    hybrid_sql = [q.hybrid_sql for q in PLAYS_QUERIES]
    xorator_sql = [q.xorator_sql for q in PLAYS_QUERIES]
    hybrid = build_database(
        "hybrid", map_hybrid(plays_simplified), plays_docs, hybrid_sql
    )
    xorator = build_database(
        "xorator", map_xorator(plays_simplified), plays_docs, xorator_sql,
        sample_for_codecs=2,
    )
    return hybrid, xorator


@pytest.fixture()
def empty_db():
    """A fresh database with the XADT functions registered."""
    db = Database("test")
    register_xadt_functions(db)
    return db
