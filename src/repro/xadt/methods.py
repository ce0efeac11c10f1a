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

Each method has exactly one implementation per codec: ``plain`` values
run the C-speed tag scan (:mod:`repro.xadt.fastscan`), ``indexed``
values answer from the span directory they carry
(:class:`repro.xadt.metadata.SpanDirectory`, the paper's §5 metadata),
and ``dict`` values walk their event stream.  Decoding cost is amortized
underneath: ``XadtValue.events()`` replays memoized event lists for dict
payloads and ``XadtValue.directory()`` reuses memoized directories (see
:mod:`repro.xadt.decode_cache`).
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XadtMethodError
from repro.xadt import fastscan
from repro.xadt.decode_cache import memoize_predicate
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.storage import INDEXED, PLAIN, Event, events_to_text


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
    if value.codec == PLAIN:
        return XadtValue.wrap_plain(
            fastscan.get_elm_plain(
                value.payload, root_elm, search_elm, search_key, level
            )
        )
    matched: list[str] = []
    for subtree in _iter_subtrees(value.events(), root_elm):
        if _subtree_matches(subtree, search_elm, search_key, level):
            matched.append(events_to_text(subtree))
    return XadtValue("".join(matched))


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
    if value.codec == PLAIN:
        return memoize_predicate(
            "findkey-plain",
            value.payload,
            (search_elm, search_key),
            lambda: fastscan.find_key_in_elm_plain(
                value.payload, search_elm, search_key
            ),
        )
    return memoize_predicate(
        "findkey-dict",
        value.payload,
        (search_elm, search_key),
        lambda: _find_key_in_events(value, search_elm, search_key),
    )


def _find_key_in_events(value: XadtValue, search_elm: str, search_key: str) -> int:
    """Event-stream findKeyInElm for dict-codec payloads."""
    if not search_elm:
        # any element content: the fragment's whole character stream
        accumulated: list[str] = []
        for event in value.events():
            if event[0] == "text":
                accumulated.append(event[1])
                if search_key in "".join(accumulated[-2:]):
                    return 1
        return 1 if search_key in "".join(accumulated) else 0
    collectors: list[list[str]] = []
    depth_of: list[int] = []
    depth = 0
    for event in value.events():
        kind = event[0]
        if kind == "open":
            if event[1] == search_elm:
                if not search_key:
                    return 1
                collectors.append([])
                depth_of.append(depth)
            depth += 1
        elif kind == "close":
            depth -= 1
            if depth_of and depth_of[-1] == depth:
                text = "".join(collectors.pop())
                depth_of.pop()
                if search_key in text:
                    return 1
        else:  # text
            if collectors:
                data = event[1]
                for collector in collectors:
                    collector.append(data)
                if search_key in "".join(collectors[-1]):
                    return 1
    return 0


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
    if value.codec == PLAIN:
        return XadtValue.wrap_plain(
            fastscan.get_elm_index_plain(
                value.payload, parent_elm, child_elm, start_pos, end_pos
            )
        )
    matched: list[str] = []
    if not parent_elm:
        position = 0
        for subtree in _iter_subtrees(value.events(), child_elm, top_level_only=True):
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(events_to_text(subtree))
        return XadtValue("".join(matched))

    for parent in _iter_subtrees(value.events(), parent_elm):
        position = 0
        for child in _iter_child_subtrees(parent, child_elm):
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(events_to_text(child))
    return XadtValue("".join(matched))


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
    if value_of.codec == PLAIN:
        for span in fastscan.find_spans(value_of.payload, search_elm):
            if fastscan.text_of(span.content(value_of.payload)) == value:
                return 1
        return 0
    for subtree in _iter_subtrees(value_of.events(), search_elm):
        text = "".join(event[1] for event in subtree if event[0] == "text")
        if text == value:
            return 1
    return 0


def elm_text(fragment: object) -> str:
    """Concatenated character content of the fragment."""
    value = coerce_fragment(fragment)
    if value.codec in (PLAIN, INDEXED):
        return fastscan.text_of(value.payload)
    return value.text()


# ---------------------------------------------------------------------------
# stream helpers
# ---------------------------------------------------------------------------


def _iter_subtrees(
    events: Iterator[Event],
    tag: str,
    top_level_only: bool = False,
) -> Iterator[list[Event]]:
    """Non-nested subtrees whose root tag is ``tag`` ('' = top level).

    A matched subtree's inner occurrences of the same tag are not yielded
    separately (they are part of the outer match).
    """
    capture: list[Event] | None = None
    capture_depth = 0
    depth = 0
    for event in events:
        kind = event[0]
        if capture is not None:
            capture.append(event)
            if kind == "open":
                capture_depth += 1
            elif kind == "close":
                capture_depth -= 1
                if capture_depth == 0:
                    yield capture
                    capture = None
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
            continue
        if kind == "open":
            matches = (event[1] == tag) if tag else (depth == 0)
            if top_level_only and depth != 0:
                matches = False
            if matches:
                capture = [event]
                capture_depth = 1
            depth += 1
        elif kind == "close":
            depth -= 1


def _iter_child_subtrees(subtree: list[Event], tag: str) -> Iterator[list[Event]]:
    """Direct children of the subtree's root that have ``tag``."""
    # subtree[0] is the root's open event; children sit at depth 1
    depth = 0
    capture: list[Event] | None = None
    capture_depth = 0
    for event in subtree:
        kind = event[0]
        if capture is not None:
            capture.append(event)
            if kind == "open":
                capture_depth += 1
            elif kind == "close":
                capture_depth -= 1
                if capture_depth == 0:
                    yield capture
                    capture = None
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
            continue
        if kind == "open":
            if depth == 1 and event[1] == tag:
                capture = [event]
                capture_depth = 1
            depth += 1
        elif kind == "close":
            depth -= 1


def _subtree_matches(
    subtree: list[Event], search_elm: str, search_key: str, level: int
) -> bool:
    """Does the captured subtree satisfy the getElm condition?"""
    if not search_elm and not search_key:
        return True
    if not search_elm:
        text = "".join(event[1] for event in subtree if event[0] == "text")
        return search_key in text
    # find search_elm occurrences (root itself is level 0)
    collectors: list[list[str]] = []
    collector_depths: list[int] = []
    satisfied = False
    depth = -1  # the root's open event brings us to level 0
    for event in subtree:
        kind = event[0]
        if kind == "open":
            depth += 1
            if event[1] == search_elm and (level < 0 or depth <= level):
                if not search_key:
                    return True
                collectors.append([])
                collector_depths.append(depth)
        elif kind == "close":
            if collector_depths and collector_depths[-1] == depth:
                text = "".join(collectors.pop())
                collector_depths.pop()
                if search_key in text:
                    satisfied = True
            depth -= 1
        else:
            if collectors:
                for collector in collectors:
                    collector.append(event[1])
        if satisfied:
            return True
    return satisfied
