"""Subject 1 — Roshi: SoundCloud's LWW-element-set time-series event index.

The real Roshi (Go) layers a stateless LWW-CRDT on top of a farm of
independent Redis instances: every write lands on all instances, reads query
all instances, merge by LWW and *read-repair* any instance that lags.  This
simulation keeps that architecture — each replica owns a
:class:`~repro.redisim.farm.RedisimFarm` — so the read-repair and
same-timestamp code paths the reported bugs live in are really exercised.

Storage layout (per instance, following Roshi's design):

* ``<key>+`` — sorted set of members scored by their latest *add* timestamp
* ``<key>-`` — sorted set of members scored by their latest *delete* timestamp

A member is present iff its add score beats its delete score.

Defect flags (see :mod:`repro.bugs.roshi_bugs`):

* ``no_tie_break`` — bug Roshi-2 (issue #11): equal add/delete timestamps are
  resolved by arrival order instead of a fixed bias, so replicas diverge.
* ``wrong_deleted_field`` — bug Roshi-1 (issue #18): the delete response's
  ``deleted`` field reports the *request* outcome, not the CRDT outcome.
* ``unordered_select`` — bug Roshi-3 (issue #40): the cross-instance merge in
  ``select`` iterates a Go map, so result order follows the map's (arrival)
  order rather than descending timestamp.

Durability model: the Redis farm is the durable store — its sorted sets
survive a replica crash.  The Go process's arrival-order bookkeeping
(``_last_op``/``_arrival``) is in-memory only, and ``restart`` clears it.
That matters under the arrival-order defects: a recovered replica resolves a
timestamp tie differently than it did before the crash (crash–recovery
amplification of issue #11).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.rdl.base import RDLReplica
from repro.redisim.farm import RedisimFarm

_ADD_SUFFIX = "+"
_DEL_SUFFIX = "-"


class RoshiReplica(RDLReplica):
    """One application-facing Roshi node with its own Redis farm."""

    KNOWN_DEFECTS = frozenset(
        {"no_tie_break", "wrong_deleted_field", "unordered_select", "raw_apply"}
    )

    def __init__(
        self,
        replica_id: str,
        defects: Optional[Iterable[str]] = None,
        farm_size: int = 2,
    ) -> None:
        super().__init__(replica_id, defects)
        self.farm = RedisimFarm(size=farm_size, name_prefix=f"roshi-{replica_id}")
        self._keys: set = set()
        # Arrival-order bookkeeping: last op applied per (key, member) —
        # consulted on timestamp ties under the ``no_tie_break`` defect — and
        # first-arrival order per key, which the ``unordered_select`` defect
        # leaks into select responses (a Go map iterated in insertion order).
        self._last_op: Dict[Tuple[str, str], str] = {}
        self._arrival: Dict[str, List[str]] = {}

    # ----------------------------------------------------------- Roshi API

    def insert(self, key: str, member: str, timestamp: float) -> bool:
        """Roshi Insert: LWW-add ``member`` at ``timestamp``.

        Returns True iff the write changed the winning state (the member is
        present after the write).
        """
        self._keys.add(key)
        for instance in self.farm.healthy_instances():
            instance.zadd(key + _ADD_SUFFIX, member, timestamp, only_if_higher=True)
        self._last_op[(key, member)] = "add"
        self._note_arrival(key, member)
        return self._present_on(self.farm[0], key, member)

    def delete(self, key: str, member: str, timestamp: float) -> bool:
        """Roshi Delete: LWW-remove ``member`` at ``timestamp``.

        Returns the response's ``deleted`` field.  The correct semantics
        report whether the member is actually gone after conflict resolution;
        the ``wrong_deleted_field`` defect reports whether the request wrote
        anything, which diverges exactly when the delete *loses* the LWW race
        (issue #18).
        """
        self._keys.add(key)
        wrote = False
        for instance in self.farm.healthy_instances():
            if instance.zadd(key + _DEL_SUFFIX, member, timestamp, only_if_higher=True):
                wrote = True
        self._last_op[(key, member)] = "del"
        if self.has_defect("wrong_deleted_field"):
            return wrote
        return not self._present_on(self.farm[0], key, member)

    def select(self, key: str, offset: int = 0, limit: int = 10) -> List[str]:
        """Roshi Select: members of ``key``, newest first, with read-repair."""
        merged = self._merged_state(key)
        self._read_repair(key, merged)
        present = [
            (member, stamps[0])
            for member, stamps in merged.items()
            if self._wins(key, member, stamps)
        ]
        if self.has_defect("unordered_select"):
            # Issue #40: merging across instances goes through a Go map, so
            # the response order is the map's order — here, the order members
            # first arrived at this replica — not descending timestamp.
            arrival = self._arrival.get(key, [])
            rank = {member: index for index, member in enumerate(arrival)}
            present.sort(key=lambda pair: rank.get(pair[0], len(rank)))
        else:
            present.sort(key=lambda pair: (-pair[1], pair[0]))
        members = [member for member, _ in present]
        return members[offset : offset + limit]

    def score(self, key: str, member: str) -> Optional[float]:
        """The winning add timestamp for ``member``, if present."""
        stamps = self._merged_state(key).get(member)
        if stamps is None or not self._wins(key, member, stamps):
            return None
        return stamps[0]

    # -------------------------------------------------------- host protocol

    def sync_payload(self, target_replica_id: str) -> Dict[str, Any]:
        """Ship the full LWW state (adds and deletes per key)."""
        payload: Dict[str, Any] = {"keys": {}}
        primary = self.farm[0]
        for key in sorted(self._keys):
            # Adds ship newest-first (Roshi walks its index in descending
            # timestamp order), so a receiver's arrival order within one
            # payload follows the documented ordering.
            payload["keys"][key] = {
                "adds": primary.zrange_withscores(key + _ADD_SUFFIX, desc=True),
                "dels": primary.zrange_withscores(key + _DEL_SUFFIX, desc=True),
            }
        return payload

    def apply_sync(self, payload: Dict[str, Any], from_replica_id: str) -> None:
        for key, sets in payload["keys"].items():
            self._keys.add(key)
            for member, score in sets["adds"]:
                if self._apply_remote(key + _ADD_SUFFIX, member, score):
                    self._last_op[(key, member)] = "add"
                self._note_arrival(key, member)
            for member, score in sets["dels"]:
                if self._apply_remote(key + _DEL_SUFFIX, member, score):
                    self._last_op[(key, member)] = "del"

    def value(self) -> Dict[str, Tuple[str, ...]]:
        """Every key's present members (ordered as ``select`` would return)."""
        return {
            key: tuple(self.select(key, 0, 1_000_000)) for key in sorted(self._keys)
        }

    # ------------------------------------------------------------- internal

    def _note_arrival(self, key: str, member: str) -> None:
        order = self._arrival.setdefault(key, [])
        if member not in order:
            order.append(member)

    def _apply_remote(self, zkey: str, member: str, score: float) -> bool:
        """Apply one remote LWW write; True iff it changed any instance."""
        changed = False
        for instance in self.farm.healthy_instances():
            if self.has_defect("raw_apply"):
                # Misconception #1/#5 seeding: the app skips the library's
                # conflict-resolution call and writes the incoming score
                # verbatim — last arrival wins, so state depends on delivery
                # order.
                instance.zadd(zkey, member, score)
                changed = True
            elif instance.zadd(zkey, member, score, only_if_higher=True):
                changed = True
        return changed

    def _merged_state(self, key: str) -> Dict[str, Tuple[float, float]]:
        """member -> (best add score, best delete score) across instances."""
        merged: Dict[str, Tuple[float, float]] = {}
        for instance in self.farm.healthy_instances():
            for member, score in instance.zrange_withscores(key + _ADD_SUFFIX):
                add, dele = merged.get(member, (float("-inf"), float("-inf")))
                merged[member] = (max(add, score), dele)
            for member, score in instance.zrange_withscores(key + _DEL_SUFFIX):
                add, dele = merged.get(member, (float("-inf"), float("-inf")))
                merged[member] = (add, max(dele, score))
        return merged

    def _read_repair(self, key: str, merged: Dict[str, Tuple[float, float]]) -> None:
        """Push the merged winning scores back to lagging instances."""
        for instance in self.farm.healthy_instances():
            for member, (add, dele) in merged.items():
                if add > float("-inf"):
                    instance.zadd(key + _ADD_SUFFIX, member, add, only_if_higher=True)
                if dele > float("-inf"):
                    instance.zadd(key + _DEL_SUFFIX, member, dele, only_if_higher=True)

    def _wins(self, key: str, member: str, stamps: Tuple[float, float]) -> bool:
        add, dele = stamps
        if add == dele:
            if self.has_defect("no_tie_break"):
                # Issue #11: no fixed bias — the winner is whichever op this
                # replica happened to apply last, so replicas that observed a
                # different arrival order permanently disagree.
                return self._last_op.get((key, member)) != "del"
            # Fixed semantics: a fixed add-wins bias, identical on every
            # replica regardless of arrival order.
            return True
        return add > dele

    def _present_on(self, instance: Any, key: str, member: str) -> bool:
        add = instance.zscore(key + _ADD_SUFFIX, member)
        dele = instance.zscore(key + _DEL_SUFFIX, member)
        if add is None:
            return False
        if dele is None:
            return True
        if add == dele:
            if self.has_defect("no_tie_break"):
                return self._last_op.get((key, member)) != "del"
            return True
        return add > dele

    # ------------------------------------------------------------ lifecycle

    # The farm's servers hold locks, which do not pickle, so Roshi pickles
    # the farm's contents instead of its ``__dict__``.

    def checkpoint(self) -> bytes:
        state = (self.farm.snapshot(), self._keys, self._last_op, self._arrival)
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)

    def restore(self, snapshot: bytes) -> None:
        farm, self._keys, self._last_op, self._arrival = pickle.loads(snapshot)
        self.farm.restore(farm)

    def canonical_state(self) -> Any:
        """Everything that influences behaviour: the farm contents (not the
        servers' locks and command counters) plus the volatile
        arrival/last-op bookkeeping (both leak into responses under the
        tie-break and select-order defects)."""
        return {
            "farm": self.farm.snapshot(),
            "keys": self._keys,
            "last_op": self._last_op,
            "arrival": self._arrival,
        }

    def restart(self) -> None:
        """Come back from a crash: the Redis farm (and the key index derived
        from it) stays; the process's arrival-order bookkeeping is lost."""
        self._last_op = {}
        self._arrival = {}
