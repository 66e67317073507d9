"""Subject 5 — "CRDTs": a general-purpose replicated data-structure library.

Mirrors the ``ajermakovics/crdts`` Java collection the paper evaluates: one
library instance per replica exposing named counters, registers, sets and
lists, synchronised wholesale between peers.  Because it exposes *every*
structure family, this is the subject on which ER-pi detects all five
misconceptions (paper Table 2).

Defect/configuration flags:

* ``no_conflict_resolution`` — misconception #1/#5 seeding: ``apply_sync``
  skips the merge entirely (the app "relies on the network" / "skips
  coordination"), so replica state depends on which syncs happened to apply.
* ``unsorted_list_reads`` — misconception #2 seeding: list reads return
  elements in replica-local arrival order instead of the CRDT order.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.crdt.base import StateCRDT, rehome
from repro.fastcopy import copy_state
from repro.crdt.counters import GCounter, PNCounter
from repro.crdt.lwwset import LWWElementSet
from repro.crdt.clock import LamportClock, Stamp
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.crdt.registers import LWWRegister, MVRegister
from repro.crdt.rga import RGAList
from repro.crdt.sets import GSet, TwoPSet
from repro.crdt.text import EWFlag, TextCRDT
from repro.rdl.base import RDLError, RDLReplica

_FACTORIES = {
    "gcounter": GCounter,
    "pncounter": PNCounter,
    "lwwregister": LWWRegister,
    "mvregister": MVRegister,
    "gset": GSet,
    "twopset": TwoPSet,
    "lwwset": LWWElementSet,
    "orset": ORSet,
    "ormap": ORMap,
    "rgalist": RGAList,
    "text": TextCRDT,
    "ewflag": EWFlag,
}


class CRDTLibrary(RDLReplica):
    """One replica of the CRDT collection library."""

    KNOWN_DEFECTS = frozenset({"no_conflict_resolution", "unsorted_list_reads"})

    def __init__(self, replica_id: str, defects: Optional[Iterable[str]] = None) -> None:
        super().__init__(replica_id, defects)
        self._structures: Dict[str, StateCRDT] = {}
        self._clock = LamportClock()
        self._list_arrival: Dict[str, List[Any]] = {}

    # ----------------------------------------------------------- structure

    def create(self, name: str, kind: str) -> StateCRDT:
        """Create (or fetch) the named structure of the given kind."""
        if name in self._structures:
            existing = self._structures[name]
            expected = _FACTORIES.get(kind)
            if expected is None or not isinstance(existing, expected):
                raise RDLError(f"structure {name!r} already exists with another kind")
            return existing
        factory = _FACTORIES.get(kind)
        if factory is None:
            raise RDLError(f"unknown structure kind {kind!r}")
        structure = factory(self.replica_id)
        self._structures[name] = structure
        return structure

    def structure(self, name: str) -> StateCRDT:
        try:
            return self._structures[name]
        except KeyError:
            raise RDLError(f"unknown structure {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._structures)

    # --------------------------------------------------- convenience ops

    def counter_increment(self, name: str, amount: int = 1) -> int:
        counter = self.create(name, "pncounter")
        return counter.increment(amount)  # type: ignore[attr-defined]

    def set_add(self, name: str, item: Any) -> None:
        orset = self.create(name, "orset")
        orset.add(item)  # type: ignore[attr-defined]

    def set_remove(self, name: str, item: Any) -> None:
        orset = self.create(name, "orset")
        orset.remove(item)  # type: ignore[attr-defined]

    def set_value(self, name: str) -> FrozenSet[Any]:
        return self.structure(name).value()

    def register_set(self, name: str, value: Any) -> None:
        register = self.create(name, "lwwregister")
        register.set(value, Stamp(self._clock.tick(), self.replica_id))  # type: ignore[attr-defined]

    def register_get(self, name: str) -> Any:
        return self.structure(name).value()

    def list_insert(self, name: str, index: int, item: Any) -> None:
        rga = self.create(name, "rgalist")
        rga.insert(index, item)  # type: ignore[attr-defined]
        self._list_arrival.setdefault(name, []).append(item)

    def list_append(self, name: str, item: Any) -> None:
        rga = self.create(name, "rgalist")
        rga.append(item)  # type: ignore[attr-defined]
        self._list_arrival.setdefault(name, []).append(item)

    def list_delete(self, name: str, index: int) -> None:
        rga = self.structure(name)
        if not isinstance(rga, RGAList):
            raise RDLError(f"structure {name!r} is not a list")
        removed = rga.value()[index]
        rga.delete(index)
        arrival = self._list_arrival.get(name, [])
        if removed in arrival:
            arrival.remove(removed)

    def list_move(self, name: str, from_index: int, to_index: int, safe: bool = False) -> None:
        """Move a list item; ``safe=False`` is the naive delete+insert that
        duplicates under concurrency (misconception #3)."""
        rga = self.structure(name)
        if not isinstance(rga, RGAList):
            raise RDLError(f"structure {name!r} is not a list")
        if safe:
            rga.move_with_winner(from_index, to_index)
        else:
            rga.move(from_index, to_index)

    def list_value(self, name: str) -> List[Any]:
        rga = self.structure(name)
        if not isinstance(rga, RGAList):
            raise RDLError(f"structure {name!r} is not a list")
        if self.has_defect("unsorted_list_reads"):
            # Misconception #2 seed: reads expose arrival order, which is
            # replica-local, instead of the replicated order.
            live = rga.value()
            arrival = self._list_arrival.get(name, [])
            ordered = [item for item in arrival if item in live]
            missing = [item for item in live if item not in ordered]
            return ordered + missing
        return rga.value()

    def todo_create(self, name: str, title: str) -> int:
        """Create a to-do item with a *sequential* id (misconception #4).

        The id is computed from the replica's current view (max id + 1), so
        two replicas creating items concurrently mint the same id and one
        item silently overwrites the other after sync.
        """
        ormap = self.create(name, "ormap")
        existing = [key for key in ormap.value() if isinstance(key, int)]
        new_id = (max(existing) + 1) if existing else 1
        ormap.put(new_id, title)  # type: ignore[attr-defined]
        return new_id

    def todo_create_safe(self, name: str, title: str, nonce: str) -> str:
        """The AMC-recommended fix: collision-free ids (random nonce)."""
        ormap = self.create(name, "ormap")
        new_id = f"todo-{nonce}"
        ormap.put(new_id, title)  # type: ignore[attr-defined]
        return new_id

    def text_insert(self, name: str, position: int, text: str) -> None:
        structure = self.create(name, "text")
        structure.insert(position, text)  # type: ignore[attr-defined]

    def text_delete(self, name: str, position: int, length: int = 1) -> None:
        structure = self.structure(name)
        if not isinstance(structure, TextCRDT):
            raise RDLError(f"structure {name!r} is not a text")
        structure.delete(position, length)

    def text_value(self, name: str) -> str:
        structure = self.structure(name)
        if not isinstance(structure, TextCRDT):
            raise RDLError(f"structure {name!r} is not a text")
        return structure.value()

    def flag_enable(self, name: str) -> None:
        self.create(name, "ewflag").enable()  # type: ignore[attr-defined]

    def flag_disable(self, name: str) -> None:
        self.create(name, "ewflag").disable()  # type: ignore[attr-defined]

    def flag_value(self, name: str) -> bool:
        return bool(self.structure(name).value())

    def map_put(self, name: str, key: Any, value: Any) -> None:
        ormap = self.create(name, "ormap")
        ormap.put(key, value)  # type: ignore[attr-defined]

    def map_get(self, name: str, key: Any, default: Any = None) -> Any:
        structure = self.structure(name)
        if not isinstance(structure, ORMap):
            raise RDLError(f"structure {name!r} is not a map")
        return structure.get(key, default)

    def map_value(self, name: str) -> Dict[Any, Any]:
        return self.structure(name).value()

    # -------------------------------------------------------- host protocol

    def canonical_state(self) -> Any:
        """Full behavioural state: the CRDT structures, the (shared) Lamport
        clock, and the list arrival order the tiebreak defects consult."""
        return self.__dict__

    def sync_payload(self, target_replica_id: str) -> Dict[str, Any]:
        return {
            "structures": {
                name: crdt.copy() for name, crdt in self._structures.items()
            },
            "arrival": {
                name: list(items) for name, items in self._list_arrival.items()
            },
        }

    def apply_sync(self, payload: Dict[str, Any], from_replica_id: str) -> None:
        if self.has_defect("no_conflict_resolution"):
            # Misconceptions #1/#5: the app never invokes the library's
            # conflict-resolution function, trusting "the network" to have
            # ordered the updates — it adopts each incoming state wholesale,
            # so whichever sync arrives last wins.
            for name, theirs in payload["structures"].items():
                adopted = copy_state(theirs)
                rehome(adopted, self.replica_id)
                self._structures[name] = adopted
            for name, arrival in payload["arrival"].items():
                self._list_arrival[name] = list(arrival)
            return
        for name, theirs in payload["structures"].items():
            mine = self._structures.get(name)
            if mine is None:
                # Adopt a structure first seen on a peer — but re-home it so
                # every stamp/dot this replica mints carries its own identity
                # (keeping the peer's id would collide with the peer's ops).
                adopted = copy_state(theirs)
                rehome(adopted, self.replica_id)
                self._structures[name] = adopted
            else:
                mine.merge(theirs)
        for name, arrival in payload["arrival"].items():
            local = self._list_arrival.setdefault(name, [])
            for item in arrival:
                if item not in local:
                    local.append(item)

    def value(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in sorted(self._structures):
            structure = self._structures[name]
            if isinstance(structure, RGAList):
                out[name] = tuple(self.list_value(name))
            else:
                value = structure.value()
                out[name] = value
        return out
