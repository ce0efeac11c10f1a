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
from repro.xadt.methods import _iter_subtrees
from repro.xadt.storage import INDEXED, PLAIN, events_to_text


def unnest(fragment: object, tag: str = "") -> Iterator[tuple[XadtValue]]:
    """Yield one single-column row per matching element."""
    value = coerce_fragment(fragment)
    if value.codec == INDEXED:
        for piece in value.directory().unnest(tag):
            yield (XadtValue(piece),)
        return
    if value.codec == PLAIN:
        for piece in fastscan.unnest_plain(value.payload, tag):
            yield (XadtValue(piece),)
        return
    top_level_only = not tag
    for subtree in _iter_subtrees(value.events(), tag, top_level_only=top_level_only):
        yield (XadtValue(events_to_text(subtree)),)


def unnest_values(fragment: object, tag: str = "") -> list[XadtValue]:
    """Convenience list form of :func:`unnest` (tests and examples)."""
    return [row[0] for row in unnest(fragment, tag)]
