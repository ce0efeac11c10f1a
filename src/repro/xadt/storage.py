"""The XADT storage codecs (paper §3.4.1).

* ``plain`` — the fragment is stored as its tagged XML text (the paper's
  "naive" VARCHAR representation);
* ``dict`` — the XMill-inspired compressed representation from
  :mod:`repro.xadt.compress`;
* ``indexed`` — plain text plus a span directory (see
  :mod:`repro.xadt.metadata`).

The XADT methods scan tagged text: a dict payload is decompressed to its
text once and the text is memoized in the decode cache
(:func:`dict_payload_text`), so plain and dict values share one scan
path.  The event-stream view (:func:`payload_events`) tokenizes that
text, for the SQLite backend's shredder and the difftest generator.

Graceful degradation (DESIGN.md §9): every dict decode passes the
``xadt.decode`` fault-injection site.  When injected (or real) transient
decode faults exceed a threshold, the module flips into *degraded mode*:
the fault site is bypassed and decodes are served through the trusted
decompressor until :func:`reset_degradation` clears the state.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

from repro.engine.faults import FAULTS
from repro.errors import TransientError, XadtCodecError
from repro.obs.metrics import METRICS
from repro.xadt import compress
from repro.xadt.decode_cache import DECODE_CACHE
from repro.xmlkit.chars import escape_attribute, escape_text
from repro.xmlkit.tokens import EndTag, StartTag, TextEvent, Tokenizer

Event = compress.Event

PLAIN = "plain"
DICT = "dict"
#: plain text plus a per-fragment element-span directory (paper §4.4/§5's
#: "metadata associated with each XADT attribute"; see repro.xadt.metadata)
INDEXED = "indexed"
CODECS = (PLAIN, DICT, INDEXED)


def text_to_events(xml_text: str) -> Iterator[Event]:
    """Tokenize fragment text into the shared event vocabulary.

    Comments and processing instructions are dropped: XADT payloads are
    produced by the shredder from element content and the paper's methods
    are defined over elements and text only.
    """
    for token in Tokenizer(xml_text).tokens():
        if isinstance(token, StartTag):
            yield ("open", token.name, token.attributes)
            if token.self_closing:
                yield ("close", token.name)
        elif isinstance(token, EndTag):
            yield ("close", token.name)
        elif isinstance(token, TextEvent):
            if token.data:
                yield ("text", token.data)
        # comments / PIs / doctype: dropped


def events_to_text(events: Iterable[Event]) -> str:
    """Serialize an event stream back to fragment text.

    Empty elements render self-closed (``<a/>``), matching the compact
    serializer, so the two codecs produce byte-identical text.
    """
    parts: list[str] = []
    pending_open: str | None = None  # tag awaiting '>' or '/>'
    for event in events:
        kind = event[0]
        if kind == "open":
            if pending_open is not None:
                parts.append(">")
            _, tag, attrs = event
            parts.append(f"<{tag}")
            for name, value in (attrs or {}).items():
                parts.append(f' {name}="{escape_attribute(value)}"')
            pending_open = tag
        elif kind == "close":
            if pending_open == event[1]:
                parts.append("/>")
                pending_open = None
            else:
                if pending_open is not None:
                    parts.append(">")
                    pending_open = None
                parts.append(f"</{event[1]}>")
        elif kind == "text":
            if pending_open is not None:
                parts.append(">")
                pending_open = None
            parts.append(escape_text(event[1]))
        else:
            raise XadtCodecError(f"unknown event kind {kind!r}")
    if pending_open is not None:
        parts.append(">")
    return "".join(parts)


def encode(xml_text: str, codec: str) -> str | bytes:
    """Encode fragment text into a codec payload."""
    if codec in (PLAIN, INDEXED):
        # the indexed codec's directory is derived (and cached) from the
        # text by XadtValue; the payload itself stays plain
        return xml_text
    if codec == DICT:
        return compress.encode_events(text_to_events(xml_text))
    raise XadtCodecError(f"unknown codec {codec!r}")


def payload_events(payload: str | bytes, codec: str) -> Iterator[Event]:
    """The event stream of a stored payload (tokenized fragment text)."""
    if codec in (PLAIN, INDEXED):
        if not isinstance(payload, str):
            raise XadtCodecError("plain payloads are text")
        return text_to_events(payload)
    if codec == DICT:
        if not isinstance(payload, bytes):
            raise XadtCodecError("dict payloads are bytes")
        return dict_payload_events(payload)
    raise XadtCodecError(f"unknown codec {codec!r}")


_DECODE_FAULTS = METRICS.counter("xadt.decode_faults")
_DECODE_FALLBACKS = METRICS.counter("xadt.decode_fallbacks")


class DecodeDegradation:
    """Fault counter that flips dict decode into degraded mode.

    ``record_fault()`` is called when a dict decode raises a
    :class:`~repro.errors.TransientError`; once ``threshold`` faults
    accumulate, ``active`` turns on and every subsequent dict decode
    skips the fault site — the trusted slow path keeps working while
    the compressed fast path is considered broken.
    """

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = threshold
        self.active = False
        self.faults = 0
        self._lock = threading.Lock()

    def record_fault(self) -> bool:
        """Count one decode fault; returns True once degraded."""
        _DECODE_FAULTS.inc()
        with self._lock:
            self.faults += 1
            if not self.active and self.faults >= self.threshold:
                self.active = True
        return self.active

    def reset(self, threshold: int | None = None) -> None:
        with self._lock:
            self.active = False
            self.faults = 0
            if threshold is not None:
                self.threshold = threshold

    def report(self) -> dict[str, object]:
        return {
            "active": self.active,
            "faults": self.faults,
            "threshold": self.threshold,
        }


#: process-wide degradation state for the dict codec
DEGRADATION = DecodeDegradation()


def reset_degradation(threshold: int | None = None) -> None:
    """Clear degraded mode (tests; or after the fault source is fixed)."""
    DEGRADATION.reset(threshold)


def dict_payload_text(payload: bytes) -> str:
    """The tagged text of a dict payload, memoized by payload bytes.

    This is the ``xadt.decode`` fault site and the degradation switch:
    transient decode faults are counted, and past the threshold decodes
    bypass the site (modelling how an engine falls back from a corrupt
    compressed page to a trusted decoder).  With the decode cache off,
    the payload is decompressed on every call.
    """
    if DEGRADATION.active:
        _DECODE_FALLBACKS.inc()
    else:
        try:
            if FAULTS.active:
                FAULTS.fire("xadt.decode")
        except TransientError:
            if not DEGRADATION.record_fault():
                raise
            _DECODE_FALLBACKS.inc()
    key = ("dict-text", payload)
    text = DECODE_CACHE.get(key)
    if text is None:
        text = events_to_text(compress.decode_events(payload))
        DECODE_CACHE.put(key, text, 64 + 2 * len(text))
    return text  # type: ignore[return-value]


def dict_payload_events(payload: bytes) -> Iterator[Event]:
    """The event stream of a dict payload, tokenized from its text."""
    return text_to_events(dict_payload_text(payload))


def payload_size(payload: str | bytes, codec: str) -> int:
    """Stored size in bytes (the indexed codec's directory is added by
    XadtValue.byte_size, which owns the directory)."""
    if codec in (PLAIN, INDEXED):
        return len(payload.encode("utf-8"))  # type: ignore[union-attr]
    return len(payload)  # type: ignore[arg-type]
