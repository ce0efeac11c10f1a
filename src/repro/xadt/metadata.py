"""XADT element metadata (the paper's §4.4/§5 future-work proposal).

    "Perhaps, if we have the metadata associated with each XADT attribute
    to help us quickly access the starting position of each element
    stored inside the XADT data, the performance may be improved."

This module implements that proposal.  A :class:`SpanDirectory` is the
structural index of one fragment, carried by the value itself: the
``indexed`` codec stores the plain text together with its directory and
pays for it in the storage accounting (:meth:`SpanDirectory.byte_size`,
charged by ``XadtValue.byte_size``).  The directory holds

* **span entries** — for every element occurrence, its tag, the four
  offsets of its span, its parent entry and depth;
* **outermost occurrences** — per tag, the occurrences with no same-tag
  ancestor (the candidate sets of ``getElm``, ``unnest`` and
  ``elmEquals``), recorded during the build instead of walking parents
  at query time;
* **per-parent ordinal arrays** — ``parent entry -> child tag ->``
  document-ordered child ids, so ``getElmIndex`` resolves a
  ``startPos..endPos`` range by slicing an array instead of walking
  sibling spans;
* **token blobs** — every maximal word token of each element's character
  content, joined on NUL per tag (and once for the whole fragment).  A
  word key is ``\\w+`` so a match can never span the separator: word-key
  ``findKeyInElm`` is one C-speed ``key in blob`` test.  Non-word keys
  (whitespace/punctuation) fall back to a scan of just the outermost
  matching spans;
* **token -> entry map** — which entries' content holds each token, so a
  word-key ``getElm`` tests candidates without stripping their text.

The directory is built once per value (``XadtValue.directory()``, which
is memoized process-wide by payload), so it survives recovery, the
FENCED pickle and the wire with the value: there is no separate index
lifecycle.  Every method answer is byte-identical to the tag scan
(:mod:`repro.xadt.fastscan`) the plain and dict codecs run; the
randomized parity suite in ``tests/xadt/test_metadata.py`` enforces it.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass

from repro.xadt import fastscan

_WORD_RE = re.compile(r"\w+")

#: modelled bytes per directory entry (4 offsets + parent ref + tag code)
ENTRY_BYTES = 18
#: modelled bytes of directory header (tag dictionary, counts)
HEADER_BYTES = 16
#: modelled bytes per posting (one 32-bit entry id)
POSTING_BYTES = 4
#: modelled per-key overhead of a map entry
KEY_OVERHEAD = 8


@dataclass(frozen=True)
class SpanEntry:
    """One element occurrence inside a fragment."""

    tag: str
    start: int          #: offset of '<'
    content_start: int  #: offset just past the opening tag's '>'
    content_end: int    #: offset of the matching '</' (== start for empty)
    end: int            #: offset just past the closing '>'
    parent: int         #: index of the parent entry, -1 for top level
    depth: int          #: 0 for top-level elements

    def slice(self, payload: str) -> str:
        return payload[self.start:self.end]

    def content(self, payload: str) -> str:
        return payload[self.content_start:self.content_end]


class SpanDirectory:
    """The structural index of one fragment's tagged text."""

    __slots__ = (
        "text",
        "entries",
        "_by_tag",
        "_outermost",
        "_top",
        "_children",
        "_tag_blob",
        "_doc_blob",
        "_token_starts",
        "_byte_size",
    )

    def __init__(
        self, text: str, entries: list[SpanEntry], outermost: dict[str, list[int]]
    ) -> None:
        self.text = text
        self.entries = entries
        self._outermost = outermost
        by_tag: dict[str, list[int]] = {}
        children: dict[int, dict[str, list[int]]] = {}
        for index, entry in enumerate(entries):
            by_tag.setdefault(entry.tag, []).append(index)
            children.setdefault(entry.parent, {}).setdefault(
                entry.tag, []
            ).append(index)
        self._by_tag = by_tag
        self._children = children
        self._top = [i for i, entry in enumerate(entries) if entry.parent == -1]
        # maximal word runs of each element's concatenated character
        # content (the same concatenation fastscan.text_of sees, so tokens
        # never split at nested tags); entries are named by start offset
        tag_tokens: dict[str, set[str]] = {}
        token_starts: dict[str, list[int]] = {}
        for entry in entries:
            if entry.content_end <= entry.content_start:
                continue
            tokens = set(_WORD_RE.findall(fastscan.text_of(entry.content(text))))
            tag_tokens.setdefault(entry.tag, set()).update(tokens)
            for token in tokens:
                token_starts.setdefault(token, []).append(entry.start)
        self._tag_blob = {
            tag: "\x00".join(tokens) for tag, tokens in tag_tokens.items()
        }
        self._token_starts = token_starts
        # whole-fragment tokens: top-level text and word runs that
        # straddle element boundaries once tags are stripped
        self._doc_blob = "\x00".join(
            set(_WORD_RE.findall(fastscan.text_of(text)))
        )
        self._byte_size = self._model_bytes()

    @classmethod
    def build(cls, payload: str) -> "SpanDirectory":
        """Scan ``payload`` once and record every element span."""
        entries: list[SpanEntry] = []
        outermost: dict[str, list[int]] = {}
        cls._collect(payload, 0, len(payload), -1, 0, set(), entries, outermost)
        return cls(payload, entries, outermost)

    @classmethod
    def _collect(
        cls,
        payload: str,
        start: int,
        end: int,
        parent: int,
        depth: int,
        open_tags: set[str],
        entries: list[SpanEntry],
        outermost: dict[str, list[int]],
    ) -> None:
        for tag, span in fastscan.top_level_spans(payload, start, end):
            index = len(entries)
            entries.append(
                SpanEntry(
                    tag, span.start, span.content_start,
                    span.content_end, span.end, parent, depth,
                )
            )
            nested = tag in open_tags
            if not nested:
                outermost.setdefault(tag, []).append(index)
            if span.content_end > span.content_start:
                if not nested:
                    open_tags.add(tag)
                cls._collect(
                    payload, span.content_start, span.content_end,
                    index, depth + 1, open_tags, entries, outermost,
                )
                if not nested:
                    open_tags.discard(tag)

    # -- layout ------------------------------------------------------------

    def _model_bytes(self) -> int:
        """Modelled storage cost of everything the directory holds."""
        if not self.entries:
            return 0
        cost = HEADER_BYTES + ENTRY_BYTES * len(self.entries)
        for tag, ids in self._outermost.items():
            cost += len(tag.encode("utf-8")) + KEY_OVERHEAD
            cost += POSTING_BYTES * len(ids)
        for by_child in self._children.values():
            for ids in by_child.values():
                cost += KEY_OVERHEAD + POSTING_BYTES * len(ids)
        for token, starts in self._token_starts.items():
            cost += len(token.encode("utf-8")) + KEY_OVERHEAD
            cost += POSTING_BYTES * len(starts)
        cost += len(self._doc_blob.encode("utf-8"))
        cost += sum(len(b.encode("utf-8")) for b in self._tag_blob.values())
        return cost

    def byte_size(self) -> int:
        """Modelled storage cost of the directory (0 when empty)."""
        return self._byte_size

    def __len__(self) -> int:
        return len(self.entries)

    # -- structure ---------------------------------------------------------

    def spans_of(self, tag: str) -> list[SpanEntry]:
        """All occurrences of ``tag``, in document order."""
        return [self.entries[i] for i in self._by_tag.get(tag, ())]

    def outermost_of(self, tag: str) -> list[SpanEntry]:
        """Non-nested occurrences of ``tag`` (no same-tag ancestor)."""
        return [self.entries[i] for i in self._outermost.get(tag, ())]

    def top_level(self) -> list[SpanEntry]:
        return [self.entries[i] for i in self._top]

    def descendants_within(
        self, ancestor: SpanEntry, tag: str, level: int = -1
    ) -> list[SpanEntry]:
        """Occurrences of ``tag`` inside ``ancestor`` (including itself),
        at most ``level`` levels below it (``level < 0``: unlimited)."""
        entries = self.entries
        ids = self._by_tag.get(tag, ())
        # spans nest, so the contained occurrences are exactly those whose
        # start falls inside the ancestor's span: one contiguous id range
        start_of = lambda i: entries[i].start  # noqa: E731
        lo = bisect_left(ids, ancestor.start, key=start_of)
        hi = bisect_left(ids, ancestor.end, lo, key=start_of)
        inside = [entries[i] for i in ids[lo:hi]]
        if level < 0:
            return inside
        limit = ancestor.depth + level
        return [entry for entry in inside if entry.depth <= limit]

    def _content_text(self, entry: SpanEntry) -> str:
        return fastscan.text_of(entry.content(self.text))

    # -- the XADT methods ----------------------------------------------------

    def get_elm(
        self, root_elm: str, search_elm: str, search_key: str, level: int = -1
    ) -> str:
        """``getElm``: the matching outermost ``root_elm`` slices."""
        candidates = self.outermost_of(root_elm) if root_elm else self.top_level()
        # a word key resolves through the token map: only entries whose
        # content holds a token containing the key can satisfy the test
        key_starts: set[int] | None = None
        if candidates and search_key and _WORD_RE.fullmatch(search_key):
            key_starts = set()
            for token, starts in self._token_starts.items():
                if search_key in token:
                    key_starts.update(starts)
        text = self.text
        return "".join(
            candidate.slice(text)
            for candidate in candidates
            if self._matches(candidate, search_elm, search_key, level, key_starts)
        )

    def _matches(
        self,
        candidate: SpanEntry,
        search_elm: str,
        search_key: str,
        level: int,
        key_starts: set[int] | None,
    ) -> bool:
        if not search_key:
            return not search_elm or bool(
                self.descendants_within(candidate, search_elm, level)
            )
        if not search_elm:
            targets = [candidate]
        else:
            # descendant-or-self: the candidate itself counts when the
            # tags coincide (QE1's rootElm == searchElm case)
            targets = self.descendants_within(candidate, search_elm, level)
        for entry in targets:
            if key_starts is not None:
                if entry.start in key_starts:
                    return True
            elif search_key in self._content_text(entry):
                return True
        return False

    def find_key(self, search_elm: str, search_key: str) -> int:
        """``findKeyInElm`` (same 0/1 contract)."""
        word = bool(search_key) and _WORD_RE.fullmatch(search_key) is not None
        if not search_elm:
            if word:
                return 1 if search_key in self._doc_blob else 0
            return 1 if search_key in fastscan.text_of(self.text) else 0
        if search_elm not in self._by_tag:
            return 0
        if not search_key:
            return 1
        if word:
            return 1 if search_key in self._tag_blob.get(search_elm, "") else 0
        for entry in self.outermost_of(search_elm):
            if search_key in self._content_text(entry):
                return 1
        return 0

    def get_elm_index(
        self, parent_elm: str, child_elm: str, start_pos: int, end_pos: int
    ) -> str:
        """``getElmIndex``: one array slice per parent."""
        lo = max(start_pos - 1, 0)
        hi = max(end_pos, 0)
        if hi <= lo:
            return ""
        text = self.text
        entries = self.entries
        children = self._children
        if not parent_elm:
            parents: list[int] = [-1]
        else:
            parents = self._outermost.get(parent_elm, [])
        matched: list[str] = []
        for parent in parents:
            by_child = children.get(parent)
            if by_child is None:
                continue
            for i in by_child.get(child_elm, ())[lo:hi]:
                matched.append(entries[i].slice(text))
        return "".join(matched)

    def unnest(self, tag: str) -> list[str]:
        """Slices of the outermost ``tag`` elements ('' = top level)."""
        spans = self.outermost_of(tag) if tag else self.top_level()
        return [entry.slice(self.text) for entry in spans]

    def elm_equals(self, search_elm: str, value: str) -> int:
        """1 if an outermost ``search_elm``'s text content equals ``value``."""
        for entry in self.outermost_of(search_elm):
            if self._content_text(entry) == value:
                return 1
        return 0
