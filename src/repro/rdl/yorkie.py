"""Subject 4 — Yorkie: a replicated JSON document store.

The real Yorkie (Go) hosts JSON documents edited through change packs; its
documents combine LWW objects with RGA arrays, and its ``Array.MoveAfter``
operation re-anchors an element after a target sibling.  This simulation
builds the same document model on :mod:`repro.crdt.jsondoc` /
:mod:`repro.crdt.rga` and ships state in sync payloads the way Yorkie ships
change packs.

Defect flags (bug scenarios in :mod:`repro.bugs.yorkie_bugs`):

* ``nonconvergent_move`` — Yorkie-1 (issue #676): ``Array.MoveAfter`` applies
  moves in arrival order with no conflict resolution, so replicas that see
  concurrent moves in different orders *permanently disagree* on the array
  order.  The fixed implementation resolves concurrent moves by
  last-writer-wins on the move stamp.
* ``shallow_set`` — Yorkie-2 (issue #663): the set operation does not handle
  nested object values: writing ``{"a": {...}}`` clobbers the whole subtree,
  so a concurrent write to a *different* nested key on a peer is lost and
  replicas can diverge on nested documents.
* ``durable_seen_cache`` — crash–recovery: the client eagerly persists its
  move-dedup cache (``_seen_moves``) but its document/move log only as of
  the last push.  After a crash the recovered replica remembers having seen
  moves whose *effects* rolled back with the document, so when a peer ships
  those moves again they are wrongly deduplicated and never re-applied —
  the array orders diverge permanently.

Durability model: Yorkie is client–server — a change pack becomes durable
when pushed.  The push watermark is literally the last pack shipped: the
document copy and move records of the most recent ``sync_payload``, with
the dedup set and op counter as of that push.  ``restart`` brings the
replica back to it; everything edited since the last push is volatile and
lost on crash.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crdt.clock import Stamp
from repro.fastcopy import copy_state
from repro.crdt.jsondoc import JSONDocument, PathKey
from repro.crdt.rga import RGAList
from repro.rdl.base import RDLError, RDLReplica

MoveRecord = Tuple[str, Tuple[PathKey, ...], Stamp, Optional[Stamp], Stamp]
#: What the last push shipped: document, move records, dedup set, op counter.
Watermark = Tuple[JSONDocument, List[MoveRecord], set, int]


class YorkieDocument(RDLReplica):
    """One attached Yorkie document replica."""

    KNOWN_DEFECTS = frozenset(
        {"nonconvergent_move", "shallow_set", "last_sync_wins", "durable_seen_cache"}
    )

    def __init__(
        self,
        replica_id: str,
        defects: Optional[Iterable[str]] = None,
        doc_key: str = "default",
    ) -> None:
        super().__init__(replica_id, defects)
        self.doc_key = doc_key
        self._doc = JSONDocument(
            replica_id, deep_set_supported=not self.has_defect("shallow_set")
        )
        # Move log: every MoveAfter this replica has seen, in arrival order.
        # Each record: (op_id, array_path, element_id, anchor_id, stamp)
        self._move_log: List[MoveRecord] = []
        self._seen_moves: set = set()
        self._op_counter = 0
        # Durable push watermark: (document, move records, dedup set, op
        # counter) as of the last change pack shipped, initially the pristine
        # attached document.
        self._durable_checkpoint: Watermark = (copy_state(self._doc), [], set(), 0)

    # ----------------------------------------------------------- Yorkie API

    def set(self, path: Sequence[PathKey], value: Any) -> None:
        """Document.Update: set a (possibly nested) value at ``path``."""
        self._doc.set_path(list(path), value)

    def update(self, path: Sequence[PathKey], value: Any) -> None:
        """Set an *existing* document location: unlike :meth:`set`, the
        enclosing object must already exist (Document.Update on a missing
        object errors instead of conjuring intermediate nodes)."""
        if len(path) > 1:
            parent = self._doc._resolve(list(path[:-1]), create=False)
            if parent is None:
                raise RDLError(f"no object at {path[:-1]!r}")
        self._doc.set_path(list(path), value)

    def get(self, path: Sequence[PathKey], default: Any = None) -> Any:
        return self._doc.get_path(list(path), default)

    def delete(self, path: Sequence[PathKey]) -> None:
        self._doc.delete_path(list(path))

    def array_append(self, path: Sequence[PathKey], value: Any) -> None:
        self._doc.array_append(list(path), value)

    def array_insert(self, path: Sequence[PathKey], index: int, value: Any) -> None:
        self._doc.array_insert(list(path), index, value)

    def array_delete(self, path: Sequence[PathKey], index: int) -> None:
        self._doc.array_delete(list(path), index)

    def array_value(self, path: Sequence[PathKey]) -> List[Any]:
        value = self.get(path)
        if not isinstance(value, list):
            raise RDLError(f"node at {path!r} is not an array")
        return value

    def move_after(
        self, path: Sequence[PathKey], from_index: int, after_index: Optional[int]
    ) -> None:
        """Array.MoveAfter: move the element at ``from_index`` to sit right
        after the element at ``after_index`` (None = to the front)."""
        array = self._array(path)
        ids = array.element_ids()
        element_id = ids[from_index]
        anchor_id = None if after_index is None else ids[after_index]
        lww = not self.has_defect("nonconvergent_move")
        stamp = array.move_after(element_id, anchor_id, lww=lww)
        if stamp is None:
            # LWW-discarded local move still ticks the clock internally; mint
            # a record stamp so peers know the intent ordering.
            return
        self._op_counter += 1
        op_id = f"{self.replica_id}:{self._op_counter}"
        record = (op_id, tuple(path), element_id, anchor_id, stamp)
        self._move_log.append(record)
        self._seen_moves.add(op_id)

    # -------------------------------------------------------- host protocol

    def sync_payload(self, target_replica_id: str) -> Dict[str, Any]:
        """A change pack: full document state plus the move log.

        Pushing makes everything shipped durable (the server holds it), so
        the pack itself becomes the push watermark.  Payloads are
        ship-and-forget and receivers only read them, so sharing the
        document copy and move list with the watermark is safe.
        """
        doc, moves = copy_state(self._doc), list(self._move_log)
        self._durable_checkpoint = (doc, moves, set(self._seen_moves), self._op_counter)
        return {"doc_key": self.doc_key, "doc": doc, "moves": moves}

    def canonical_state(self) -> Any:
        """Full behavioural state: the JSON document, move log, dedup cache,
        op counter and the push watermark's document, moves, dedup set and
        counter."""
        return self.__dict__

    def restart(self) -> None:
        """Come back from a client crash at the state of the last push.

        Un-pushed local changes are volatile and lost: the document is
        copied back out of the watermark.  With the ``durable_seen_cache``
        defect the move-dedup cache is persisted eagerly (its *current*
        value) even though the moves it remembers roll back with the
        document — the seeded crash–recovery bug — and that set goes into
        the new watermark.
        """
        doc, moves, seen, counter = self._durable_checkpoint
        if self.has_defect("durable_seen_cache"):
            seen = set(self._seen_moves)
        else:
            self._seen_moves = set(seen)
        self._doc = copy_state(doc)
        self._move_log = list(moves)
        self._op_counter = counter
        self._durable_checkpoint = (doc, moves, seen, counter)

    def apply_sync(self, payload: Dict[str, Any], from_replica_id: str) -> None:
        if payload["doc_key"] != self.doc_key:
            raise RDLError(
                f"sync for document {payload['doc_key']!r} applied to {self.doc_key!r}"
            )
        if self.has_defect("last_sync_wins"):
            # Misconception #1/#5 seeding: the app replaces its attached
            # document with the incoming change pack instead of invoking the
            # merge — whichever sync arrives last wins wholesale.
            self._doc = copy_state(payload["doc"])
            return
        self._doc.merge(payload["doc"])
        lww = not self.has_defect("nonconvergent_move")
        for record in payload["moves"]:
            op_id, path, element_id, anchor_id, stamp = record
            if op_id in self._seen_moves:
                continue
            self._seen_moves.add(op_id)
            self._move_log.append(record)
            try:
                array = self._array(path)
            except RDLError:
                continue
            if element_id not in array._nodes:  # element not replicated yet
                continue
            if anchor_id is not None and anchor_id not in array._nodes:
                anchor_id = None
            # Issue #676: with the defect each remote move is applied in
            # arrival order (lww=False), so the last *arriving* move wins
            # locally and replicas that saw a different order diverge.
            array.move_after(element_id, anchor_id, stamp=stamp, lww=lww)

    def value(self) -> Dict[str, Any]:
        return self._doc.value()

    # ------------------------------------------------------------- internal

    def _array(self, path: Sequence[PathKey]) -> RGAList:
        node = self._doc._resolve(list(path), create=False)
        if not isinstance(node, RGAList):
            raise RDLError(f"node at {path!r} is not an array")
        return node
