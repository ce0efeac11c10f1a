"""C-speed span scanning over plain-codec fragment text.

The paper implemented the XADT methods "using the C string functions"
over the VARCHAR payload; the Python-faithful equivalent is
``str.find``-based scanning, which runs in C and keeps the method cost
proportional to the fragment bytes scanned — the property the §4.3/§4.4
analysis depends on.  :mod:`repro.xadt.methods` dispatches here for
plain payloads and for the compressed codec's decoded (memoized) text,
and to :class:`repro.xadt.metadata.SpanDirectory` for the ``indexed``
codec.

Assumption (guaranteed by the XADT encoders and serializer, and by
``XadtValue.from_xml``'s validation): fragment text is well-formed and
``<``/``>`` appear escaped inside character data and attribute values,
so every raw ``<`` in the payload starts markup.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import XadtMethodError
from repro.xmlkit.chars import unescape

_TAG_RE = re.compile(r"<[^>]*>")
_OPEN_BOUNDARY = (">", " ", "\t", "\n", "\r", "/")


def text_of(fragment_text: str) -> str:
    """Concatenated character content of ``fragment_text`` (tags stripped)."""
    stripped = _TAG_RE.sub("", fragment_text)
    if "&" in stripped:
        return unescape(stripped)
    return stripped


class Span:
    """One element occurrence inside a payload string."""

    __slots__ = ("start", "content_start", "content_end", "end")

    def __init__(
        self, start: int, content_start: int, content_end: int, end: int
    ) -> None:
        self.start = start                  #: offset of '<'
        self.content_start = content_start  #: offset just past the open tag's '>'
        self.content_end = content_end      #: offset of the matching '</'
        self.end = end                      #: offset just past the closing '>'

    def slice(self, payload: str) -> str:
        return payload[self.start:self.end]

    def content(self, payload: str) -> str:
        return payload[self.content_start:self.content_end]


def find_spans(payload: str, tag: str, start: int = 0, end: int | None = None) -> Iterator[Span]:
    """Outermost (non-nested) occurrences of ``tag`` in payload[start:end]."""
    if not tag:
        raise XadtMethodError("find_spans requires a tag name")
    limit = len(payload) if end is None else end
    open_pat = "<" + tag
    open_len = len(open_pat)
    find = payload.find
    pos = start
    while pos < limit:
        i = find(open_pat, pos, limit)
        if i == -1:
            return
        boundary = payload[i + open_len] if i + open_len < limit else ""
        if boundary not in _OPEN_BOUNDARY:
            pos = i + 1  # a longer tag name sharing the prefix
            continue
        span = _match_span(payload, tag, i, limit)
        yield span
        pos = span.end


def top_level_spans(payload: str, start: int = 0, end: int | None = None) -> Iterator[tuple[str, Span]]:
    """(tag, span) for each top-level element of payload[start:end]."""
    limit = len(payload) if end is None else end
    pos = start
    find = payload.find
    while pos < limit:
        lt = find("<", pos, limit)
        if lt == -1:
            return
        name_end = lt + 1
        while name_end < limit and payload[name_end] not in _OPEN_BOUNDARY:
            name_end += 1
        tag = payload[lt + 1:name_end]
        if not tag:
            raise XadtMethodError(f"malformed fragment near offset {lt}")
        span = _match_span(payload, tag, lt, limit)
        yield tag, span
        pos = span.end


def _match_span(payload: str, tag: str, open_at: int, limit: int) -> Span:
    """Resolve the span of the element whose open tag starts at ``open_at``."""
    find = payload.find
    gt = find(">", open_at, limit)
    if gt == -1:
        raise XadtMethodError(f"unterminated tag <{tag} at offset {open_at}")
    if payload[gt - 1] == "/":  # self-closing
        return Span(open_at, gt + 1, gt + 1, gt + 1)

    open_pat = "<" + tag
    close_pat = "</" + tag + ">"
    open_len = len(open_pat)
    close_len = len(close_pat)
    content_start = gt + 1
    depth = 1
    scan = content_start
    while True:
        close_at = find(close_pat, scan, limit)
        if close_at == -1:
            raise XadtMethodError(f"missing </{tag}> for tag at offset {open_at}")
        inner_open = find(open_pat, scan, close_at)
        advanced = False
        while inner_open != -1:
            boundary = (
                payload[inner_open + open_len]
                if inner_open + open_len < limit
                else ""
            )
            if boundary in _OPEN_BOUNDARY:
                inner_gt = find(">", inner_open, limit)
                if inner_gt == -1:
                    raise XadtMethodError(
                        f"unterminated nested <{tag} at offset {inner_open}"
                    )
                if payload[inner_gt - 1] != "/":
                    depth += 1
                scan = inner_gt + 1
                advanced = True
                break
            inner_open = find(open_pat, inner_open + 1, close_at)
        if advanced:
            continue
        depth -= 1
        scan = close_at + close_len
        if depth == 0:
            return Span(open_at, content_start, close_at, close_at + close_len)


# ---------------------------------------------------------------------------
# method fast paths (plain codec)
# ---------------------------------------------------------------------------


def get_elm_plain(
    payload: str, root_elm: str, search_elm: str, search_key: str, level: int = -1
) -> str:
    """getElm over plain text (``level < 0``: unlimited depth)."""
    matched: list[str] = []
    if root_elm:
        candidates: Iterator[Span] = find_spans(payload, root_elm)
    else:
        candidates = (span for _, span in top_level_spans(payload))
    for span in candidates:
        piece = span.slice(payload)
        if _piece_matches(piece, search_elm, search_key, level):
            matched.append(piece)
    return "".join(matched)


def _piece_matches(
    piece: str, search_elm: str, search_key: str, level: int
) -> bool:
    if not search_elm and not search_key:
        return True
    if not search_elm:
        return search_key in text_of(piece)
    # both span walks also match the piece's own root when the tags
    # coincide (descendant-or-self semantics: QE1's rootElm == searchElm)
    spans = (
        find_spans(piece, search_elm)
        if level < 0
        else _spans_within_level(piece, search_elm, level)
    )
    for span in spans:
        if not search_key:
            return True
        if search_key in text_of(span.content(piece)):
            return True
    return False


def _spans_within_level(payload: str, tag: str, level: int) -> Iterator[Span]:
    """Shallowest ``tag`` occurrences at most ``level`` levels below the
    top level (level 0); a deeper same-tag occurrence's text is part of
    its ancestor's, so it can never match where the ancestor did not."""
    frontier = [(0, len(payload))]
    for _ in range(level + 1):
        deeper = []
        for start, end in frontier:
            for name, span in top_level_spans(payload, start, end):
                if name == tag:
                    yield span
                elif span.content_end > span.content_start:
                    deeper.append((span.content_start, span.content_end))
        frontier = deeper


def find_key_in_elm_plain(payload: str, search_elm: str, search_key: str) -> int:
    if not search_elm:
        return 1 if search_key in text_of(payload) else 0
    for span in find_spans(payload, search_elm):
        if not search_key:
            return 1
        if search_key in text_of(span.content(payload)):
            return 1
    return 0


def get_elm_index_plain(
    payload: str, parent_elm: str, child_elm: str, start_pos: int, end_pos: int
) -> str:
    matched: list[str] = []
    if not parent_elm:
        position = 0
        for tag, span in top_level_spans(payload):
            if tag != child_elm:
                continue
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(span.slice(payload))
        return "".join(matched)
    for parent in find_spans(payload, parent_elm):
        position = 0
        for tag, child in top_level_spans(
            payload, parent.content_start, parent.content_end
        ):
            if tag != child_elm:
                continue
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(child.slice(payload))
    return "".join(matched)


def unnest_plain(payload: str, tag: str) -> Iterator[str]:
    if tag:
        for span in find_spans(payload, tag):
            yield span.slice(payload)
    else:
        for _, span in top_level_spans(payload):
            yield span.slice(payload)
