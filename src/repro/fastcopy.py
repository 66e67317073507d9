"""Fast structured state copying for sync payloads and CRDT copies.

Sync payloads, ``apply_sync`` adoptions and CRDT copies deep-copy state on
hot paths.  Replica checkpoints do not come through here: they are pickled
bytes (see :meth:`repro.rdl.base.RDLReplica.checkpoint`), restored by one
C-level unpickle.  A pickle round trip is slower than :func:`fast_copy` on
state full of frozen stamps and dots, which :func:`fast_copy` shares
instead of rebuilding.  :func:`fast_copy` is a ``copy.deepcopy``
replacement specialised for the state shapes this codebase copies:

* builtin containers (dict/list/set/frozenset/tuple) are copied directly,
  without reduce-protocol dispatch;
* value types registered with :func:`register_atomic` (frozen dataclasses
  like ``Dot``/``Stamp``/``Event``) are shared, not copied — they are
  immutable, so sharing is safe and free;
* objects may provide a ``__fastcopy__(memo)`` hook for a hand-tuned
  structural copy (the hot CRDTs do);
* any other object defined in this package is rebuilt field-by-field via
  ``__class__.__new__`` (covering ``__dict__`` and ``__slots__`` state);
* everything else falls back to ``copy.deepcopy`` with a shared memo, so
  aliasing and cycles behave exactly as they would under deepcopy.

Shared references and cycles are preserved through the memo table, like
deepcopy.  The one deliberate difference: dictionary keys and set members
are assumed to be effectively immutable (they must be hashable), so atomic
keys are shared rather than copied.

:func:`copy_state` is the entry point the replay/sync machinery calls.
"""

from __future__ import annotations

import copy as _stdlib_copy
import functools
from typing import Any, Dict, Optional, Tuple

_MISSING = object()

#: Builtin types that are immutable (or treated as such) and always shared.
_ATOMIC_TYPES = frozenset(
    {
        int,
        float,
        complex,
        bool,
        str,
        bytes,
        type(None),
        type(NotImplemented),
        type(Ellipsis),
        type,
        range,
        slice,
    }
)

#: Classes registered as immutable value types (shared, never copied).
_ATOMIC_CLASSES: set = set()

# Per-class dispatch kinds, resolved once per class and cached: the copy
# loop runs millions of times, so the isinstance/getattr/module checks that
# pick a strategy must not repeat per object.
_SHARE = 0
_DICT = 1
_LIST = 2
_SET = 3
_FROZENSET = 4
_TUPLE = 5
_HOOK = 6
_PLAIN = 7
_DEEP = 8

_KIND_CACHE: Dict[type, int] = {}
_HOOK_CACHE: Dict[type, Any] = {}


@functools.lru_cache(maxsize=None)
def slot_names(cls: type) -> Tuple[str, ...]:
    """The ``__slots__`` that ``cls`` and its bases declare, in MRO order,
    without ``__dict__``/``__weakref__``: scanned once per class for
    :func:`fast_copy`, :func:`repro.crdt.base.rehome` and
    :mod:`repro.statehash`."""
    return tuple(
        slot
        for klass in cls.__mro__
        for slot in klass.__dict__.get("__slots__", ())
        if slot not in ("__dict__", "__weakref__")
    )


def register_atomic(*classes: type) -> None:
    """Declare ``classes`` immutable value types: shared by ``fast_copy``.

    Only register classes whose instances are never mutated after
    construction (frozen dataclasses, enums, interned identifiers).
    """
    _ATOMIC_CLASSES.update(classes)
    _KIND_CACHE.clear()
    _HOOK_CACHE.clear()


def is_atomic(obj: Any) -> bool:
    """True when ``fast_copy`` would share ``obj`` instead of copying it."""
    cls = obj.__class__
    return cls in _ATOMIC_TYPES or cls in _ATOMIC_CLASSES


def _classify(cls: type) -> int:
    if cls in _ATOMIC_TYPES or cls in _ATOMIC_CLASSES:
        kind = _SHARE
    elif cls is dict:
        kind = _DICT
    elif cls is list:
        kind = _LIST
    elif cls is set:
        kind = _SET
    elif cls is frozenset:
        kind = _FROZENSET
    elif cls is tuple:
        kind = _TUPLE
    else:
        hook = getattr(cls, "__fastcopy__", None)
        if hook is not None:
            _HOOK_CACHE[cls] = hook
            kind = _HOOK
        elif cls.__module__.split(".", 1)[0] == "repro":
            kind = _PLAIN
        else:
            kind = _DEEP
    _KIND_CACHE[cls] = kind
    return kind


def fast_copy(obj: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """A structurally specialised deep copy (see module docstring)."""
    cls = obj.__class__
    kind = _KIND_CACHE.get(cls)
    if kind is None:
        kind = _classify(cls)
    if kind == _SHARE:
        return obj
    if memo is None:
        memo = {}
    oid = id(obj)
    hit = memo.get(oid, _MISSING)
    if hit is not _MISSING:
        return hit
    if kind == _DICT:
        new: Dict[Any, Any] = {}
        memo[oid] = new
        for key, value in obj.items():
            new[fast_copy(key, memo)] = fast_copy(value, memo)
        return new
    if kind == _LIST:
        out: list = []
        memo[oid] = out
        for item in obj:
            out.append(fast_copy(item, memo))
        return out
    if kind == _SET:
        copied = set(fast_copy(item, memo) for item in obj)
        memo[oid] = copied
        return copied
    if kind == _FROZENSET:
        parts = [fast_copy(item, memo) for item in obj]
        for part, original in zip(parts, obj):
            if part is not original:
                fresh = frozenset(parts)
                memo[oid] = fresh
                return fresh
        # Every member is shared, so the frozenset itself can be shared.
        memo[oid] = obj
        return obj
    if kind == _TUPLE:
        parts = [fast_copy(item, memo) for item in obj]
        for part, original in zip(parts, obj):
            if part is not original:
                fresh = tuple(parts)
                memo[oid] = fresh
                return fresh
        # Every element is shared, so the tuple itself can be shared.
        memo[oid] = obj
        return obj
    if kind == _HOOK:
        copied = _HOOK_CACHE[cls](obj, memo)
        memo[oid] = copied
        return copied
    if kind == _PLAIN:
        return _copy_plain_object(obj, cls, memo)
    return _stdlib_copy.deepcopy(obj, memo)


def _copy_plain_object(obj: Any, cls: type, memo: Dict[int, Any]) -> Any:
    """Rebuild a plain in-package object without the reduce protocol."""
    new = cls.__new__(cls)
    memo[id(obj)] = new
    state = getattr(obj, "__dict__", None)
    if state:
        fresh = new.__dict__
        for key, value in state.items():
            fresh[key] = fast_copy(value, memo)
    for slot in slot_names(cls):
        value = getattr(obj, slot, _MISSING)
        if value is not _MISSING:
            object.__setattr__(new, slot, fast_copy(value, memo))
    return new


def copy_state(obj: Any) -> Any:
    """Copy sync-payload or CRDT state."""
    return fast_copy(obj)
