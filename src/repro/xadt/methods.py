"""The XADT methods (paper §3.4.2): getElm, findKeyInElm, getElmIndex.

None of them builds a DOM.  Over the ``plain`` and ``dict`` codecs they
scan the fragment, mirroring the paper's C-string implementation whose
cost is proportional to the amount of fragment data scanned (that scan
cost is what makes QS6 slower under XORator, §4.3); the ``indexed``
codec's directory is the paper's §5 remedy.

Semantics follow the paper's definitions:

* ``get_elm(x, rootElm, searchElm, searchKey, level)`` returns every
  (non-nested) ``rootElm`` element that has a ``searchElm`` element
  within ``level`` levels (``level < 0`` means unlimited; the root
  itself is level 0, so ``rootElm == searchElm`` matches the root, which
  query QE1 relies on) whose text content contains ``searchKey``.
  Empty-string arguments relax the respective constraint exactly as the
  paper specifies.
* ``find_key_in_elm(x, searchElm, searchKey)`` returns 1 as soon as a
  match is found, else 0; both arguments empty is an error.
* ``get_elm_index(x, parentElm, childElm, startPos, endPos)`` returns the
  ``childElm`` children of each ``parentElm`` element whose sibling
  position *among same-tag siblings* lies in [startPos, endPos]
  (1-based).  An empty ``parentElm`` treats the fragment's top-level
  elements as the sibling list.  Sibling order is counted per tag so the
  semantics agree with the Hybrid schema's ``childOrder`` field (see
  ``repro.shred.loader``).

``elm_text`` is a convenience addition ("more specialized methods can be
implemented", §3.4.2) returning the concatenated character content; the
SIGMOD workload uses it to group unnested fragments by their text.

Each method has two implementations: ``indexed`` values answer from
the span directory they carry (:class:`repro.xadt.metadata.SpanDirectory`,
the paper's §5 metadata), and ``plain`` and ``dict`` values run the
C-speed tag scan (:mod:`repro.xadt.fastscan`) over their text — a dict
payload's text is decoded once and memoized
(:func:`repro.xadt.storage.dict_payload_text`), as are directories
(``XadtValue.directory()``; see :mod:`repro.xadt.decode_cache`).
"""

from __future__ import annotations

from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.decode_cache import memoize_predicate
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.storage import DICT, INDEXED, dict_payload_text


def scan_text(value: XadtValue) -> str:
    """The tagged text the tag scan runs over: the payload itself, or a
    dict payload's decoded text (the ``xadt.decode`` fault site)."""
    if value.codec == DICT:
        return dict_payload_text(value.payload)  # type: ignore[arg-type]
    return value.payload  # type: ignore[return-value]


def get_elm(
    fragment: object,
    root_elm: str,
    search_elm: str = "",
    search_key: str = "",
    level: int = -1,
) -> XadtValue:
    """Return all matching ``root_elm`` elements as a new fragment."""
    value = coerce_fragment(fragment)
    if value.codec == INDEXED:
        return XadtValue.wrap_plain(
            value.directory().get_elm(root_elm, search_elm, search_key, level)
        )
    return XadtValue.wrap_plain(
        fastscan.get_elm_plain(
            scan_text(value), root_elm, search_elm, search_key, level
        )
    )


def find_key_in_elm(fragment: object, search_elm: str, search_key: str) -> int:
    """1 if any ``search_elm`` element's content contains ``search_key``.

    The ``indexed`` codec answers from its directory's token blobs (one
    substring probe for word keys).  The scanning codecs memoize their
    verdicts in the process-wide decode cache, keyed on payload identity
    plus the search terms.
    """
    if not search_elm and not search_key:
        raise XadtMethodError(
            "findKeyInElm: searchElm and searchKey cannot both be empty"
        )
    value = coerce_fragment(fragment)
    if value.codec == INDEXED:
        return value.directory().find_key(search_elm, search_key)
    return memoize_predicate(
        "findkey",
        value.payload,
        (search_elm, search_key),
        lambda: fastscan.find_key_in_elm_plain(
            scan_text(value), search_elm, search_key
        ),
    )


def get_elm_index(
    fragment: object,
    parent_elm: str,
    child_elm: str,
    start_pos: int,
    end_pos: int,
) -> XadtValue:
    """Positional child access (paper QE2 / QS6 / QG6)."""
    if not child_elm:
        raise XadtMethodError("getElmIndex: childElm cannot be an empty string")
    value = coerce_fragment(fragment)
    start_pos = int(start_pos)
    end_pos = int(end_pos)
    if value.codec == INDEXED:
        return XadtValue.wrap_plain(
            value.directory().get_elm_index(
                parent_elm, child_elm, start_pos, end_pos
            )
        )
    return XadtValue.wrap_plain(
        fastscan.get_elm_index_plain(
            scan_text(value), parent_elm, child_elm, start_pos, end_pos
        )
    )


def elm_equals(fragment: object, search_elm: str, value: str) -> int:
    """1 if any outermost ``search_elm`` element's text content equals
    ``value``.

    The exact-match companion of :func:`find_key_in_elm` (a "more
    specialized method" in the sense of §3.4.2); the path-query compiler
    uses it for ``=`` predicates so Hybrid and XORator translations agree
    on equality semantics.
    """
    if not search_elm:
        raise XadtMethodError("elmEquals: searchElm cannot be empty")
    value_of = coerce_fragment(fragment)
    if value_of.codec == INDEXED:
        return value_of.directory().elm_equals(search_elm, value)
    text = scan_text(value_of)
    for span in fastscan.find_spans(text, search_elm):
        if fastscan.text_of(span.content(text)) == value:
            return 1
    return 0


def elm_text(fragment: object) -> str:
    """Concatenated character content of the fragment."""
    return fastscan.text_of(scan_text(coerce_fragment(fragment)))
