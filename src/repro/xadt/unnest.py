"""The unnest table UDF (paper §3.5, Figure 9).

``TABLE(unnest(attr, 'tag')) alias`` turns an XADT attribute into a
table with a single ``out`` column: one row per (non-nested) element in
the fragment whose tag is ``tag``.  With an empty tag, the fragment's
top-level elements are produced.

The matching is descendant-aware: ``unnest(pp_slist, 'sListTuple')``
finds the ``sListTuple`` elements *inside* the stored ``sList`` element,
which is how the paper's SIGMOD queries iterate the single-table
XORator database.
"""

from __future__ import annotations

from typing import Iterator

from repro.xadt import fastscan
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.methods import scan_text
from repro.xadt.storage import INDEXED


def unnest(fragment: object, tag: str = "") -> Iterator[tuple[XadtValue]]:
    """Yield one single-column row per matching element."""
    value = coerce_fragment(fragment)
    if value.codec == INDEXED:
        pieces = value.directory().unnest(tag)
    else:
        pieces = fastscan.unnest_plain(scan_text(value), tag)
    for piece in pieces:
        yield (XadtValue.wrap_plain(piece),)


def unnest_values(fragment: object, tag: str = "") -> list[XadtValue]:
    """Convenience list form of :func:`unnest` (tests and examples)."""
    return [row[0] for row in unnest(fragment, tag)]
