"""A replicated growable array (RGA) — the list CRDT behind Yorkie arrays.

Elements carry unique ids (Lamport stamps).  Inserts anchor after an existing
element (or the virtual head); concurrent inserts at the same anchor order by
descending stamp, which keeps all replicas convergent.  Deletes tombstone.

**Moves.**  A *naive* move is not primitive: applications implement it as
delete + re-insert, and doing so concurrently from two replicas duplicates
the element unless a winner position is designated — misconception #3 in the
paper (Kleppmann, "Moving Elements in List CRDTs").  :meth:`RGAList.move`
implements the naive delete+insert so ER-pi can expose the flaw;
:meth:`RGAList.move_with_winner` shows the fixed, LWW-position variant.

:meth:`RGAList.move_after` is the *true move* primitive (the element keeps
its identity).  Its convergent form keeps one last-writer-wins move register
per element; the visible order is always **derived deterministically** from
(immutable insert anchors, tombstones, move registers): after any state
change the order tree is rebuilt by attaching every element at its insert
anchor and then replaying the winning moves in ascending stamp order.
Deriving (rather than incrementally patching) the tree is what makes merge a
true join: equal states always render equal orders, no matter the order in
which moves arrived — concurrent interdependent moves included.

With ``lww=False`` a move bypasses the registers and lands in a
replica-local *arrival list* instead: the position is unmanaged and depends
on what order moves happened to arrive — the faithful reproduction of
Yorkie issue #676 (bug Yorkie-1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.crdt.base import CRDTError, StateCRDT
from repro.fastcopy import copy_state
from repro.crdt.clock import LamportClock, Stamp

#: The virtual head anchor that physical first-position inserts hang off.
HEAD = Stamp(0, "")


@dataclass
class _Node:
    """One RGA element.

    ``origin_anchor`` is the immutable insert anchor; ``anchor``/``placed``
    describe the *current* (possibly post-move) position and are recomputed
    by every rebuild.  Sibling order among same-anchor nodes is descending
    ``placed`` (newest placement first) — the standard RGA rule generalised
    to moves.
    """

    element_id: Stamp
    payload: Any
    origin_anchor: Stamp
    tombstone: bool = False
    anchor: Stamp = HEAD
    placed: Optional[Stamp] = None
    origin_id: Optional[Stamp] = None  # move lineage (move_with_winner)

    @property
    def placement(self) -> Stamp:
        return self.placed if self.placed is not None else self.element_id


class RGAList(StateCRDT):
    """An operation-friendly RGA list.

    Local mutators (``insert``, ``delete``, ``move``) return the op records
    they generated; ``apply_op`` integrates a remote op.  ``merge`` ships full
    states for the CvRDT style the rest of the suite uses.
    """

    def __init__(self, replica_id: str) -> None:
        super().__init__(replica_id)
        self._clock = LamportClock()
        self._nodes: Dict[Stamp, _Node] = {}
        self._children: Dict[Stamp, List[Stamp]] = {HEAD: []}
        #: element -> (move stamp, anchor): the LWW move register.
        self._move_registers: Dict[Stamp, Tuple[Stamp, Stamp]] = {}
        #: replica-local unmanaged moves: (element, anchor, stamp) in arrival
        #: order (only populated by lww=False moves — the Yorkie-1 defect).
        self._arrival_moves: List[Tuple[Stamp, Stamp, Stamp]] = []

    # ------------------------------------------------------------------ ops

    def insert(self, index: int, payload: Any) -> Dict[str, Any]:
        """Insert ``payload`` so it lands at visible position ``index``."""
        anchor = self._anchor_for_index(index)
        element_id = Stamp(self._clock.tick(), self.replica_id)
        op = {
            "kind": "insert",
            "element_id": element_id,
            "payload": payload,
            "anchor": anchor,
        }
        self._integrate_insert(element_id, payload, anchor)
        self._rebuild()
        return op

    def append(self, payload: Any) -> Dict[str, Any]:
        return self.insert(len(self), payload)

    def delete(self, index: int) -> Dict[str, Any]:
        """Tombstone the element at visible position ``index``."""
        node = self._visible_nodes()[index]
        self._clock.tick()
        node.tombstone = True
        return {"kind": "delete", "element_id": node.element_id}

    def delete_by_id(self, element_id: Stamp) -> Dict[str, Any]:
        node = self._nodes.get(element_id)
        if node is None:
            raise CRDTError(f"unknown element id {element_id!r}")
        node.tombstone = True
        return {"kind": "delete", "element_id": element_id}

    def move(self, from_index: int, to_index: int) -> List[Dict[str, Any]]:
        """The NAIVE move: delete then re-insert (misconception #3 seed).

        Two replicas concurrently moving the same element each tombstone their
        local copy and insert a brand-new element — after sync, both new
        elements survive and the item is duplicated.
        """
        node = self._visible_nodes()[from_index]
        ops = [self.delete(from_index)]
        # After the delete the list is one shorter; inserting at ``to_index``
        # puts the element at visible position ``to_index`` in the final list
        # regardless of direction.
        ops.append(self.insert(min(to_index, len(self)), node.payload))
        return ops

    def move_with_winner(
        self, from_index: int, to_index: int, origin_id: Optional[Stamp] = None
    ) -> List[Dict[str, Any]]:
        """The FIXED move: ops carry the moved element's origin id so that on
        sync, duplicates of the same origin collapse to the LWW winner."""
        node = self._visible_nodes()[from_index]
        origin = origin_id if origin_id is not None else node.element_id
        ops = self.move(from_index, to_index)
        for op in ops:
            op["origin_id"] = origin
            if op["kind"] == "insert":
                self.tag_origin(op["element_id"], origin)
        self._collapse_duplicates(origin)
        return ops

    def move_after(
        self,
        element_id: Stamp,
        anchor_id: Optional[Stamp],
        stamp: Optional[Stamp] = None,
        lww: bool = True,
    ) -> Optional[Stamp]:
        """Re-anchor ``element_id`` directly after ``anchor_id`` (None = head).

        The CONVERGENT move primitive: the element keeps its identity, and
        with ``lww=True`` concurrent moves of the same element resolve to the
        highest move stamp on every replica.  With ``lww=False`` the move
        applies unconditionally in arrival order, so the final position is
        replica-local — the non-convergent behaviour of Yorkie issue #676.

        Returns the stamp recorded for the move (None if an LWW-losing move
        was discarded).
        """
        node = self._nodes.get(element_id)
        if node is None:
            raise CRDTError(f"unknown element id {element_id!r}")
        anchor = anchor_id if anchor_id is not None else HEAD
        if anchor != HEAD and anchor not in self._nodes:
            raise CRDTError(f"unknown anchor id {anchor!r}")
        if anchor == element_id:
            return None  # moving an element after itself is a no-op
        if stamp is None:
            stamp = Stamp(self._clock.tick(), self.replica_id)
        else:
            self._clock.observe(stamp.time)
        if lww:
            current = self._move_registers.get(element_id)
            if current is not None and stamp <= current[0]:
                return None
            self._move_registers[element_id] = (stamp, anchor)
        else:
            self._arrival_moves.append((element_id, anchor, stamp))
        self._rebuild()
        return stamp

    def apply_op(self, op: Dict[str, Any]) -> None:
        """Integrate an op produced by a peer replica (idempotent)."""
        kind = op["kind"]
        if kind == "insert":
            element_id: Stamp = op["element_id"]
            self._clock.observe(element_id.time)
            if element_id not in self._nodes:
                self._integrate_insert(element_id, op["payload"], op["anchor"])
                self._rebuild()
        elif kind == "delete":
            node = self._nodes.get(op["element_id"])
            self._clock.tick()
            if node is not None:
                node.tombstone = True
        else:
            raise CRDTError(f"unknown RGA op kind {kind!r}")
        if "origin_id" in op:
            if kind == "insert" and op["element_id"] in self._nodes:
                self.tag_origin(op["element_id"], op["origin_id"])
            self._collapse_duplicates(op["origin_id"])

    # ---------------------------------------------------------------- state

    def merge(self, other: "RGAList") -> None:
        """Semilattice join: union nodes/tombstones, LWW-max move registers,
        then derive the order tree from the joined state, if the merge
        brought a node or won a register: tombstones, lineage and the clock
        never enter the tree, and every other input change rebuilds it."""
        move_origins = set()
        changed = False
        for element_id, node in other._nodes.items():
            if element_id not in self._nodes:
                # Deep-copy payloads so replicas never alias mutable subtrees.
                self._integrate_insert(
                    element_id, copy_state(node.payload), node.origin_anchor
                )
                changed = True
            if node.tombstone:
                self._nodes[element_id].tombstone = True
            if node.origin_id is not None:
                mine = self._nodes[element_id]
                if mine.origin_id is None:
                    mine.origin_id = node.origin_id
                move_origins.add(node.origin_id)
        for element_id, (their_stamp, their_anchor) in other._move_registers.items():
            current = self._move_registers.get(element_id)
            if current is None or their_stamp > current[0]:
                self._move_registers[element_id] = (their_stamp, their_anchor)
                changed = True
        # Unmanaged (non-LWW) moves are deliberately NOT merged: their whole
        # point is that the position depends on replica-local arrival.
        if changed:
            self._rebuild()
        for origin_id in move_origins:
            self._collapse_duplicates(origin_id)
        self._clock.observe(other._clock.time)

    def value(self) -> List[Any]:
        return [node.payload for node in self._visible_nodes()]

    def element_ids(self) -> List[Stamp]:
        """Visible element ids in list order (diagnostics / tests)."""
        return [node.element_id for node in self._visible_nodes()]

    def __len__(self) -> int:
        return len(self._visible_nodes())

    def __iter__(self) -> Iterator[Any]:
        return iter(self.value())

    # ------------------------------------------------------------- internal

    def _anchor_for_index(self, index: int) -> Stamp:
        visible = self._visible_nodes()
        if index < 0 or index > len(visible):
            raise IndexError(f"insert position {index} out of range")
        if index == 0:
            return HEAD
        return visible[index - 1].element_id

    def _integrate_insert(self, element_id: Stamp, payload: Any, anchor: Stamp) -> None:
        if anchor != HEAD and anchor not in self._nodes:
            # The anchor hasn't arrived yet (possible under reordered
            # delivery); fall back to head so the element is never lost.
            anchor = HEAD
        self._nodes[element_id] = _Node(element_id, payload, origin_anchor=anchor)

    def _rebuild(self) -> None:
        """Derive the order tree from the joined state (deterministic).

        1. attach every element at its insert anchor (placement = element id);
        2. replay the winning LWW moves in ascending (stamp, element) order;
        3. replay the replica-local unmanaged moves in arrival order.
        """
        self._children = {HEAD: []}
        for element_id, node in self._nodes.items():
            self._children[element_id] = []
            node.placed = None
            anchor = node.origin_anchor
            if anchor != HEAD and anchor not in self._nodes:
                anchor = HEAD
            node.anchor = anchor
        for node in sorted(self._nodes.values(), key=lambda n: n.element_id):
            self._attach(node)
        ordered_moves = sorted(
            (
                (stamp, element_id, anchor)
                for element_id, (stamp, anchor) in self._move_registers.items()
            ),
        )
        for stamp, element_id, anchor in ordered_moves:
            self._apply_move(element_id, anchor, stamp)
        for element_id, anchor, stamp in self._arrival_moves:
            self._apply_move(element_id, anchor, stamp)

    def _apply_move(self, element_id: Stamp, anchor: Stamp, stamp: Stamp) -> None:
        node = self._nodes.get(element_id)
        if node is None:
            return
        if anchor != HEAD and anchor not in self._nodes:
            anchor = HEAD  # target not replicated yet: deterministic fallback
        if anchor == element_id:
            return
        self._reanchor(node, anchor, stamp)

    def _reanchor(self, node: _Node, anchor: Stamp, placed: Stamp) -> None:
        """Detach ``node`` and re-attach it after ``anchor``.

        Children placed BEFORE this move were inserted relative to the node's
        old position: they are spliced into that position so the rest of the
        list stays put.  Children placed AFTER the move refer to the node's
        new position: they stay attached and follow the node — unless the new
        anchor lives inside a follower's subtree, which would create a cycle;
        such followers are spliced out too.
        """
        old_siblings = self._children.get(node.anchor, [])
        if node.element_id in old_siblings:
            index = old_siblings.index(node.element_id)
            old_siblings.pop(index)
            children = self._children.get(node.element_id, [])
            followers: List[Stamp] = []
            orphans: List[Stamp] = []
            for child_id in children:
                follows = self._nodes[child_id].placement >= placed
                if follows and not self._subtree_contains(child_id, anchor):
                    followers.append(child_id)
                else:
                    orphans.append(child_id)
            for offset, child_id in enumerate(orphans):
                old_siblings.insert(index + offset, child_id)
                self._nodes[child_id].anchor = node.anchor
            self._children[node.element_id] = followers
        node.anchor = anchor
        node.placed = placed
        self._attach(node)

    def _subtree_contains(self, root_id: Stamp, target: Stamp) -> bool:
        if root_id == target:
            return True
        return any(
            self._subtree_contains(child_id, target)
            for child_id in self._children.get(root_id, [])
        )

    def _attach(self, node: _Node) -> None:
        """Insert ``node`` among its anchor's children by placement order."""
        siblings = self._children.setdefault(node.anchor, [])
        key = (node.placement, node.element_id)
        position = 0
        while position < len(siblings):
            sibling = self._nodes[siblings[position]]
            if (sibling.placement, sibling.element_id) > key:
                position += 1
            else:
                break
        siblings.insert(position, node.element_id)

    def _ordered_nodes(self) -> List[_Node]:
        ordered: List[_Node] = []

        def walk(anchor: Stamp) -> None:
            for child_id in self._children.get(anchor, []):
                ordered.append(self._nodes[child_id])
                walk(child_id)

        walk(HEAD)
        return ordered

    def _visible_nodes(self) -> List[_Node]:
        return [node for node in self._ordered_nodes() if not node.tombstone]

    def _collapse_duplicates(self, origin_id: Stamp) -> None:
        """Keep only the LWW winner among live elements sharing an origin.

        Used by the *fixed* move: all move-inserts of one origin carry the
        origin id in their lineage; the highest element id wins.
        """
        live = [
            node
            for node in self._nodes.values()
            if not node.tombstone and node.origin_id == origin_id
        ]
        if not live:
            return
        winner = max(live, key=lambda node: node.element_id)
        for node in live:
            if node is not winner:
                node.tombstone = True

    def tag_origin(self, element_id: Stamp, origin_id: Stamp) -> None:
        """Record move lineage on a node (used by move_with_winner paths)."""
        node = self._nodes.get(element_id)
        if node is None:
            raise CRDTError(f"unknown element id {element_id!r}")
        node.origin_id = origin_id
