"""Common machinery shared by every CRDT in the suite.

All CRDTs here are *state-based* (CvRDTs): each replica holds a full state,
mutates it locally, and merges peer states with a commutative, associative,
idempotent ``merge``.  The simulated RDL subjects layer op-shipping on top
where the real library does (e.g. OrbitDB ships log entries), but the
convergence backbone is always a join-semilattice merge.
"""

from __future__ import annotations

import abc
import copy
from typing import Any, Generic, TypeVar

from repro.fastcopy import copy_state, fast_copy, slot_names

S = TypeVar("S", bound="StateCRDT")


class CRDTError(Exception):
    """Base class for errors raised by the CRDT suite."""


class PreconditionFailed(CRDTError):
    """A sequential-style precondition did not hold (e.g. removing a missing
    element from a strict set).  ER-pi's *failed-ops* pruning is built around
    operations that raise this."""


class StateCRDT(abc.ABC):
    """Abstract base for a state-based CRDT replica.

    Subclasses must implement ``merge`` (the semilattice join) and ``value``
    (the query projection a reader observes).  ``checkpoint``/``restore``
    give ER-pi's replay engine the snapshot-and-reset capability described in
    paper section 4.3 without any library-specific code.
    """

    def __init__(self, replica_id: str) -> None:
        if not replica_id:
            raise ValueError("replica_id must be a non-empty string")
        self.replica_id = replica_id

    @abc.abstractmethod
    def merge(self: S, other: S) -> None:
        """Join ``other``'s state into this replica (idempotent, commutative)."""

    @abc.abstractmethod
    def value(self) -> Any:
        """The externally observable value of this replica."""

    def checkpoint(self) -> Any:
        """An opaque deep snapshot of this replica's full state."""
        return copy_state(self.__dict__)

    def restore(self, snapshot: Any) -> None:
        """Reset this replica to a previously taken ``checkpoint``."""
        self.__dict__.clear()
        self.__dict__.update(copy_state(snapshot))

    def clone(self: S) -> S:
        """An independent deep copy (useful for property-based merge tests)."""
        out = self.__class__.__new__(self.__class__)
        out.__dict__.update(copy_state(self.__dict__))
        return out

    def copy(self: S) -> S:
        """A structural copy via :func:`repro.fastcopy.fast_copy`.

        Equivalent in value to :meth:`clone` but uses the specialised copier
        (and any ``__fastcopy__`` hooks subclasses define), making it cheap
        enough for the replay engine's per-event prefix snapshots.
        """
        return fast_copy(self)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(replica_id={self.replica_id!r}, value={self.value()!r})"


#: Values that hold no CRDT, so ``rehome`` never looks inside them.
ATOMS = (type(None), str, int, float, bool, bytes)


def rehome(root: Any, replica_id: str) -> None:
    """Re-assign ownership of every CRDT reachable from ``root``.

    When a replica adopts a structure first created on a peer (via a sync
    payload), the copy still carries the *peer's* replica id — and any stamp
    or dot the adopter mints afterwards would collide with the peer's own
    operations.  ``rehome`` walks the object graph and points every embedded
    :class:`StateCRDT` at the adopting replica's identity.
    """
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StateCRDT):
            obj.replica_id = replica_id
        if hasattr(obj, "__dict__"):
            stack.extend(obj.__dict__.values())
        for slot in slot_names(type(obj)):  # an unset slot pushes None, an atom
            stack.append(getattr(obj, slot, None))
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)


class Mergeable(Generic[S]):
    """Marker protocol-ish mixin for objects exposing ``merge``/``value``."""

    merge: Any
    value: Any
