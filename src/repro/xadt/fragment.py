"""The XADT value type.

An :class:`XadtValue` is an immutable XML fragment — zero or more sibling
elements — stored under one of the codecs of :mod:`repro.xadt.storage`.
It is the value that XADT columns hold, that the XADT methods take and
return, and that ``unnest`` emits.  The engine recognizes it
structurally via the ``__xadt__`` marker (see :mod:`repro.engine.types`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import XadtCodecError
from repro.xadt import storage
from repro.xadt.storage import DICT, INDEXED, PLAIN
from repro.xmlkit.dom import Comment, Element, ProcessingInstruction, Text
from repro.xmlkit.parser import parse_fragment
from repro.xmlkit.serializer import serialize


class XadtValue:
    """An immutable XML fragment with an explicit storage codec."""

    __slots__ = ("codec", "payload", "_size", "_xml", "_directory")
    __xadt__ = True

    def __init__(self, payload: str | bytes, codec: str = PLAIN) -> None:
        if codec not in storage.CODECS:
            raise XadtCodecError(f"unknown codec {codec!r}")
        if codec in (PLAIN, INDEXED) and not isinstance(payload, str):
            raise XadtCodecError(f"{codec} payloads must be str")
        if codec == DICT and not isinstance(payload, bytes):
            raise XadtCodecError("dict payloads must be bytes")
        _fill(self, payload, codec, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("XadtValue is immutable")

    def __reduce__(self):
        # immutability breaks pickle's default protocol; rebuild from the
        # constructor (FENCED UDF mode round-trips values through pickle)
        return (XadtValue, (self.payload, self.codec))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_xml(
        cls, xml_text: str, codec: str = PLAIN, validate: bool = True
    ) -> "XadtValue":
        """Build a fragment from XML text.

        Plain payloads are validated by parsing (the fast scanner relies
        on well-formed, properly escaped text); internal callers that
        construct payloads from the serializer pass ``validate=False``.
        Dict payloads are validated by the encoder itself.
        """
        if validate and codec == PLAIN and xml_text:
            parse_fragment(xml_text, keep_whitespace=True)
        return cls(storage.encode(xml_text, codec), codec)

    @classmethod
    def wrap_plain(cls, xml_text: str) -> "XadtValue":
        """A plain-codec value over already well-formed text.

        Skips the constructor's codec/type checks; only for callers that
        hold text sliced out of an existing validated fragment (e.g. the
        XADT methods' results).
        """
        value = object.__new__(cls)
        _fill(value, xml_text, PLAIN, None)
        return value

    @classmethod
    def from_elements(
        cls, elements: Iterable[Element], codec: str = PLAIN
    ) -> "XadtValue":
        """Build a fragment from DOM elements (compact serialization)."""
        xml_text = "".join(serialize(element) for element in elements)
        return cls(storage.encode(xml_text, codec), codec)

    @classmethod
    def empty(cls, codec: str = PLAIN) -> "XadtValue":
        return cls.from_xml("", codec)

    # -- access ------------------------------------------------------------------

    def events(self) -> Iterator[storage.Event]:
        """The fragment's event stream (codec-transparent)."""
        return storage.payload_events(self.payload, self.codec)

    def to_xml(self) -> str:
        """The fragment as XML text."""
        cached = self._xml
        if cached is None:  # dict payload
            cached = storage.dict_payload_text(self.payload)  # type: ignore[arg-type]
            object.__setattr__(self, "_xml", cached)
        return cached

    def to_elements(self) -> list[Element]:
        """Parse the fragment into DOM elements."""
        return parse_fragment(self.to_xml(), keep_whitespace=True)

    def text(self) -> str:
        """Concatenated character content (document order)."""
        return "".join(
            event[1] for event in self.events() if event[0] == "text"
        )

    def byte_size(self) -> int:
        """Stored size in bytes (drives the page accounting).

        The indexed codec pays for its span directory — the storage cost
        of the paper's §5 metadata proposal is charged honestly.
        """
        size = self._size
        if size is None:
            size = storage.payload_size(self.payload, self.codec)
            if self.codec == INDEXED:
                size += self.directory().byte_size()
            object.__setattr__(self, "_size", size)
        return size

    def directory(self):
        """The structural span directory (indexed codec; see
        :mod:`repro.xadt.metadata`).

        Built once per payload, not per instance: directories are
        memoized process-wide (:mod:`repro.xadt.decode_cache`) keyed on
        the payload text, so values reconstructed from the same payload
        — e.g. across the FENCED UDF pickle boundary — skip the rebuild.
        """
        cached = self._directory
        if cached is None:
            from repro.xadt.decode_cache import DECODE_CACHE
            from repro.xadt.metadata import SpanDirectory

            key = ("span-directory", self.payload)
            cached = DECODE_CACHE.get(key)
            if cached is None:
                cached = SpanDirectory.build(self.to_xml())
                DECODE_CACHE.put(key, cached, cached.byte_size())
            object.__setattr__(self, "_directory", cached)
        return cached

    def is_empty(self) -> bool:
        return self.byte_size() == 0 or next(iter(self.events()), None) is None

    def recode(self, codec: str) -> "XadtValue":
        """The same fragment under another codec."""
        if codec == self.codec:
            return self
        return XadtValue.from_xml(self.to_xml(), codec, validate=False)

    def marshal_copy(self) -> "XadtValue":
        """A value over a physically copied payload (the NOT FENCED UDF
        boundary uses this; the payload already passed the codec checks,
        so the copy skips them).

        The span directory is *stored metadata* (§5): it crosses the UDF
        boundary with the value instead of being rebuilt per call.
        """
        payload = self.payload
        if isinstance(payload, str):
            copied: str | bytes = payload.encode("utf-8").decode("utf-8")
        else:
            copied = bytes(bytearray(payload))
        copy = object.__new__(XadtValue)
        _fill(copy, copied, self.codec, self._directory)
        return copy

    # -- value semantics ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XadtValue):
            return NotImplemented
        return self.to_xml() == other.to_xml()

    def __hash__(self) -> int:
        return hash(self.to_xml())

    def __repr__(self) -> str:
        preview = self.to_xml()
        if len(preview) > 48:
            preview = preview[:45] + "..."
        return f"XadtValue({self.codec}, {preview!r})"


def _fill(
    value: XadtValue, payload: str | bytes, codec: str, directory: object
) -> None:
    set_slot = object.__setattr__
    set_slot(value, "codec", codec)
    set_slot(value, "payload", payload)
    set_slot(value, "_size", None)
    set_slot(value, "_xml", payload if isinstance(payload, str) else None)
    set_slot(value, "_directory", directory)


def coerce_fragment(value: object) -> XadtValue:
    """Accept an XadtValue, fragment text, DOM element(s), or None."""
    if value is None:
        return XadtValue.empty()
    if isinstance(value, XadtValue):
        return value
    if isinstance(value, str):
        return XadtValue.from_xml(value)
    if isinstance(value, Element):
        return XadtValue.from_elements([value])
    if isinstance(value, (list, tuple)) and all(
        isinstance(item, Element) for item in value
    ):
        return XadtValue.from_elements(list(value))
    if isinstance(value, (Text, Comment, ProcessingInstruction)):
        raise XadtCodecError("XADT fragments contain elements, not bare nodes")
    raise XadtCodecError(f"cannot coerce {type(value).__name__} to an XADT fragment")
