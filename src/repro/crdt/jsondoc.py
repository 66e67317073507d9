"""A nested JSON document CRDT — the data model behind Yorkie (Subject 4).

A document is a tree: objects map string keys to LWW-resolved children,
arrays are RGA lists, leaves are primitives.  ``set_path``/``get_path``
address nodes with simple path lists (``["tasks", 0, "title"]``).

Bug Yorkie-2 (issue #663, "modify the set operation to handle nested object
values") is reproducible here: with ``deep_set_supported=False`` the set
operation shallow-assigns nested objects, so a concurrent nested write on a
peer is clobbered wholesale instead of merging per key.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.crdt.base import ATOMS, CRDTError, StateCRDT, rehome
from repro.fastcopy import copy_state
from repro.crdt.clock import LamportClock, Stamp
from repro.crdt.rga import RGAList

PathKey = Union[str, int]


class _ObjNode:
    """An object node: per-key LWW of child nodes."""

    __slots__ = ("children", "stamps")

    def __init__(self) -> None:
        self.children: Dict[str, Any] = {}
        self.stamps: Dict[str, Stamp] = {}


class JSONDocument(StateCRDT):
    """A JSON-shaped CRDT document with per-key LWW objects and RGA arrays."""

    def __init__(self, replica_id: str, deep_set_supported: bool = True) -> None:
        super().__init__(replica_id)
        self._clock = LamportClock()
        self._root = _ObjNode()
        self._deep_set = deep_set_supported
        self._array_count = 0

    # ------------------------------------------------------------- mutators

    def set_path(self, path: Sequence[PathKey], value: Any) -> Stamp:
        """Set the node at ``path`` to ``value`` (dicts/lists become CRDT
        subtrees when deep-set is supported)."""
        if not path:
            raise CRDTError("cannot set the document root; set individual keys")
        parent = self._resolve(path[:-1], create=True)
        key = path[-1]
        stamp = Stamp(self._clock.tick(), self.replica_id)
        if isinstance(parent, _ObjNode):
            if not isinstance(key, str):
                raise CRDTError("object keys must be strings")
            existing = parent.children.get(key)
            if (
                self._deep_set
                and isinstance(value, dict)
                and isinstance(existing, _ObjNode)
            ):
                # Fixed Yorkie behaviour (issue #663): setting an object value
                # onto an existing object merges per key instead of replacing
                # the whole subtree, so concurrent writes to sibling keys both
                # survive.
                for child_key, child_value in value.items():
                    self.set_path(list(path) + [child_key], child_value)
                parent.stamps[key] = max(parent.stamps.get(key, stamp), stamp)
            else:
                current = parent.stamps.get(key)
                if current is None or stamp > current:
                    parent.children[key] = self._wrap(value, stamp)
                    parent.stamps[key] = stamp
            self._bump_ancestors(path[:-1], stamp)
        elif isinstance(parent, RGAList):
            if not isinstance(key, int):
                raise CRDTError("array indices must be integers")
            parent.delete(key)
            parent.insert(key, self._wrap(value, stamp))
        else:
            raise CRDTError(f"cannot set child of primitive at {path[:-1]!r}")
        return stamp

    def _bump_ancestors(self, path: Sequence[PathKey], stamp: Stamp) -> None:
        """Refresh the stamps along ``path`` so a nested write also counts as
        a write to its enclosing objects (needed for sane LWW resolution of
        whole-subtree conflicts)."""
        node: Any = self._root
        for key in path:
            if isinstance(node, _ObjNode) and isinstance(key, str):
                current = node.stamps.get(key)
                if current is None or stamp > current:
                    node.stamps[key] = stamp
                node = node.children.get(key)
            elif isinstance(node, RGAList) and isinstance(key, int):
                node = node._visible_nodes()[key].payload
            else:
                return

    def array_insert(self, path: Sequence[PathKey], index: int, value: Any) -> None:
        array = self._resolve(path, create=False)
        if not isinstance(array, RGAList):
            raise CRDTError(f"node at {path!r} is not an array")
        stamp = Stamp(self._clock.tick(), self.replica_id)
        array.insert(index, self._wrap(value, stamp))

    def array_append(self, path: Sequence[PathKey], value: Any) -> None:
        array = self._resolve(path, create=False)
        if not isinstance(array, RGAList):
            raise CRDTError(f"node at {path!r} is not an array")
        stamp = Stamp(self._clock.tick(), self.replica_id)
        array.append(self._wrap(value, stamp))

    def array_delete(self, path: Sequence[PathKey], index: int) -> None:
        array = self._resolve(path, create=False)
        if not isinstance(array, RGAList):
            raise CRDTError(f"node at {path!r} is not an array")
        array.delete(index)

    def array_move(self, path: Sequence[PathKey], from_index: int, to_index: int) -> None:
        """Naive move-after (delete + insert): Yorkie-1's Array.MoveAfter
        divergence scenario builds on this primitive."""
        array = self._resolve(path, create=False)
        if not isinstance(array, RGAList):
            raise CRDTError(f"node at {path!r} is not an array")
        array.move(from_index, to_index)

    def delete_path(self, path: Sequence[PathKey]) -> None:
        if not path:
            raise CRDTError("cannot delete the document root")
        parent = self._resolve(path[:-1], create=False)
        key = path[-1]
        if isinstance(parent, _ObjNode):
            stamp = Stamp(self._clock.tick(), self.replica_id)
            current = parent.stamps.get(key)  # type: ignore[arg-type]
            if current is None or stamp > current:
                parent.children.pop(key, None)  # type: ignore[arg-type]
                parent.stamps[key] = stamp  # type: ignore[index]
        elif isinstance(parent, RGAList):
            parent.delete(int(key))
        else:
            raise CRDTError(f"cannot delete child of primitive at {path[:-1]!r}")

    # -------------------------------------------------------------- queries

    def get_path(self, path: Sequence[PathKey], default: Any = None) -> Any:
        try:
            node = self._resolve(path, create=False)
        except (CRDTError, KeyError, IndexError):
            return default
        return self._unwrap(node)

    def value(self) -> Dict[str, Any]:
        return self._unwrap(self._root)

    def to_json(self) -> str:
        return json.dumps(self.value(), sort_keys=True, default=str)

    # ---------------------------------------------------------------- merge

    def merge(self, other: "JSONDocument") -> None:
        self._merge_obj(self._root, other._root)
        self._clock.observe(other._clock.time)
        # Arrays adopted from the peer still carry the peer's identity; any
        # stamp this replica mints on them afterwards would collide with the
        # peer's own operations, so re-home everything we now own.
        self._rehome()

    def _rehome(self) -> None:
        """Point every array at this replica, walking only the edges that can
        reach a CRDT: object children and array elements' payloads (stamps,
        clocks, order trees and move registers hold only ints, strings and
        stamps).  Any other non-atomic leaf gets the generic :func:`rehome`."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _ObjNode):
                stack.extend(node.children.values())
            elif isinstance(node, RGAList):
                node.replica_id = self.replica_id
                stack.extend(element.payload for element in node._nodes.values())
            elif not isinstance(node, ATOMS):
                rehome(node, self.replica_id)

    def _merge_obj(self, mine: _ObjNode, theirs: _ObjNode) -> None:
        for key, their_child in theirs.children.items():
            their_stamp = theirs.stamps[key]
            my_stamp = mine.stamps.get(key)
            my_child = mine.children.get(key)
            both_objects = isinstance(my_child, _ObjNode) and isinstance(
                their_child, _ObjNode
            )
            if both_objects and self._deep_set:
                # Structural merge: concurrent writes to *different* nested
                # keys both survive.  This is the fixed Yorkie behaviour.
                self._merge_obj(my_child, their_child)
                if my_stamp is None or their_stamp > my_stamp:
                    mine.stamps[key] = their_stamp
                continue
            if isinstance(my_child, RGAList) and isinstance(their_child, RGAList):
                self._merge_array(my_child, their_child)
                if my_stamp is None or their_stamp > my_stamp:
                    mine.stamps[key] = their_stamp
                continue
            # Shallow LWW: the later stamp replaces the whole subtree.  With
            # deep_set_supported=False this branch also swallows concurrent
            # nested-object writes — bug Yorkie-2.
            if my_stamp is None or their_stamp > my_stamp:
                mine.children[key] = copy_state(their_child)
                mine.stamps[key] = their_stamp
        # Deleted keys: a stamp present without a child is a tombstone.
        for key, their_stamp in theirs.stamps.items():
            if key not in theirs.children:
                my_stamp = mine.stamps.get(key)
                if my_stamp is None or their_stamp > my_stamp:
                    mine.children.pop(key, None)
                    mine.stamps[key] = their_stamp

    def _merge_array(self, mine: RGAList, theirs: RGAList) -> None:
        """Join two arrays: the RGA merge unions their elements, and the
        contents of every element both already held merge as well, since
        a write inside an element (``["tasks", 0, "done"]``) changes its
        payload in place."""
        shared = [
            (mine._nodes[element_id].payload, node.payload)
            for element_id, node in theirs._nodes.items()
            if element_id in mine._nodes
        ]
        mine.merge(theirs)
        for my_payload, their_payload in shared:
            if isinstance(my_payload, _ObjNode) and isinstance(their_payload, _ObjNode):
                self._merge_obj(my_payload, their_payload)
            elif isinstance(my_payload, RGAList) and isinstance(their_payload, RGAList):
                self._merge_array(my_payload, their_payload)

    # ------------------------------------------------------------- internal

    def _wrap(self, value: Any, stamp: Stamp) -> Any:
        if isinstance(value, dict):
            node = _ObjNode()
            for key, child in value.items():
                if not isinstance(key, str):
                    raise CRDTError("object keys must be strings")
                node.children[key] = self._wrap(child, stamp)
                node.stamps[key] = stamp
            return node
        if isinstance(value, list):
            self._array_count += 1
            array = RGAList(f"{self.replica_id}/arr{self._array_count}")
            for child in value:
                array.append(self._wrap(child, stamp))
            return array
        return value

    def _unwrap(self, node: Any) -> Any:
        if isinstance(node, _ObjNode):
            return {key: self._unwrap(child) for key, child in sorted(node.children.items())}
        if isinstance(node, RGAList):
            return [self._unwrap(child) for child in node.value()]
        return node

    def _resolve(self, path: Sequence[PathKey], create: bool) -> Any:
        node: Any = self._root
        for step_index, key in enumerate(path):
            if isinstance(node, _ObjNode):
                if not isinstance(key, str):
                    raise CRDTError(f"expected string key at path step {step_index}")
                if key not in node.children:
                    if not create:
                        raise KeyError(key)
                    child = _ObjNode()
                    node.children[key] = child
                    node.stamps[key] = Stamp(self._clock.tick(), self.replica_id)
                node = node.children[key]
            elif isinstance(node, RGAList):
                if not isinstance(key, int):
                    raise CRDTError(f"expected integer index at path step {step_index}")
                node = node._visible_nodes()[key].payload
            else:
                raise CRDTError(f"cannot descend into primitive at step {step_index}")
        return node
