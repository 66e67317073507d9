"""Canonical, deterministic hashing of RDL state.

Comparing replica states across replays (and across processes) needs a
digest of a subject's ``canonical_state()`` that is

* **canonical** — two structurally equal states hash identically regardless
  of dict insertion order, set iteration order, or object identity;
* **deterministic** — stable across processes (no ``id()``, no ``hash()``
  randomisation), so digests taken in worker processes agree with the
  serial engine's;
* **total** — every value a subject's ``canonical_state()`` can return is
  hashable, including plain objects (CRDT structures, Lamport clocks),
  which are canonicalised through ``__dict__``/``__slots__``.

The construction is a hash DAG: containers hash over their children's
digests (dicts sorted by canonical key, sets sorted by canonical item), so
an order-independent digest falls out without materialising a normal form
of the whole state.
"""

from __future__ import annotations

import hashlib
from typing import Any, List

from repro.fastcopy import slot_names

__all__ = ["canonical_repr", "state_digest", "combine_digests"]

#: Digest length in hex chars — 64 bits, plenty for state keys while
#: keeping Datalog facts and journal lines readable.
DIGEST_LEN = 16


def canonical_repr(value: Any) -> str:
    """A deterministic, order-independent textual form of ``value``."""
    parts: List[str] = []
    _write(value, parts, set())
    return "".join(parts)


def _write(value: Any, parts: List[str], stack: set) -> None:
    if value is None or value is True or value is False:
        parts.append(repr(value))
        return
    kind = type(value)
    if kind is int:
        parts.append(repr(value))
        return
    if kind is float:
        # repr() round-trips floats exactly; NaN canonicalises to "nan".
        parts.append(repr(value))
        return
    if kind is str:
        parts.append(repr(value))
        return
    if kind is bytes:
        parts.append(repr(value))
        return
    oid = id(value)
    if oid in stack:
        # A cycle cannot be hashed structurally; mark the back-edge.  The
        # marker is positional (depth of the cycle is encoded by where it
        # appears), which is deterministic even though ``id`` is not part
        # of the output.
        parts.append("<cycle>")
        return
    stack.add(oid)
    try:
        if isinstance(value, dict):
            items = [
                (canonical_repr(key), key, val) for key, val in value.items()
            ]
            items.sort(key=lambda item: item[0])
            parts.append("{")
            for key_repr, _key, val in items:
                parts.append(key_repr)
                parts.append(":")
                _write(val, parts, stack)
                parts.append(",")
            parts.append("}")
            return
        if isinstance(value, (set, frozenset)):
            members = sorted(canonical_repr(item) for item in value)
            parts.append("{|")
            for member in members:
                parts.append(member)
                parts.append(",")
            parts.append("|}")
            return
        if isinstance(value, (list, tuple)):
            parts.append("[")
            for item in value:
                _write(item, parts, stack)
                parts.append(",")
            parts.append("]")
            return
        if isinstance(value, (bytearray, memoryview)):
            parts.append(repr(bytes(value)))
            return
        # Plain objects (CRDT structures, clocks, stamps): hash the type
        # name plus the attribute dict, recursing into values.  Named
        # tuples already matched the tuple branch above.
        attrs = getattr(value, "__dict__", None)
        if attrs is not None:
            parts.append("<")
            parts.append(type(value).__name__)
            parts.append(" ")
            _write(attrs, parts, stack)
            parts.append(">")
            return
        slots = _slot_values(value)
        if slots is not None:
            parts.append("<")
            parts.append(type(value).__name__)
            parts.append(" ")
            _write(slots, parts, stack)
            parts.append(">")
            return
        # Enums, and anything else with a stable repr.
        parts.append(repr(value))
    finally:
        stack.discard(oid)


def _slot_values(value: Any) -> Any:
    names = slot_names(type(value))
    if not names:
        return None
    return {slot: getattr(value, slot) for slot in names if hasattr(value, slot)}


def state_digest(value: Any) -> str:
    """The canonical digest of one state value (hex, :data:`DIGEST_LEN`)."""
    raw = canonical_repr(value).encode("utf-8", "backslashreplace")
    return hashlib.sha256(raw).hexdigest()[:DIGEST_LEN]


def combine_digests(parts: Any) -> str:
    """Combine labelled child digests into one parent digest (the DAG step).

    ``parts`` is an iterable of ``(label, digest)`` pairs; they are sorted
    by label, so the combination is order-independent.
    """
    joined = ";".join(f"{label}={digest}" for label, digest in sorted(parts))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:DIGEST_LEN]
