"""Subject 2 — OrbitDB: a peer-to-peer op-log database over a Merkle-CRDT.

The real OrbitDB (JavaScript) stores every update as an immutable log entry
carrying a Lamport clock ``(time, identity)`` and hash links to the previous
heads; replicas exchange heads + entries and deterministically order the
merged log.  This simulation reproduces that core: content-addressed entries,
head tracking, clock-based total ordering, an access controller, and the
repo-level lock the desktop implementation takes on its storage folder.

Store types:

* ``eventlog`` — append-only; ``value()`` is the ordered payload list.
* ``kvstore`` — ``put``/``del`` ops reduced in log order; ``value()`` a dict.
* ``docstore`` — JSON documents keyed by their ``_id``, with field queries.

Defect flags (bug scenarios in :mod:`repro.bugs.orbitdb_bugs`):

* ``undefined_tiebreak`` — OrbitDB-1 (issue #513): entries with equal clock
  time *and* equal identity keep their replica-local arrival order, so two
  replicas can expose different log orders forever.
* ``clock_future_halt`` — OrbitDB-2 (issue #512): a synced entry whose clock
  is far in the future makes every subsequent local append fail (the local
  clock may not exceed the store's max-clock bound, so progress halts).
* ``unchecked_append`` — OrbitDB-3 (issue #1153): applying a synced entry
  whose writer is not *yet* in the local access controller throws "could not
  append entry although write access is granted" instead of buffering it.
* ``torn_head`` — OrbitDB-4 (issue #583): appends forget to refresh the
  cached head set (only ``flush``/sync-apply do), so a sync payload built
  after an un-flushed append ships heads that don't match its entries and the
  receiver errors with "head hash didn't match the contents".
* ``lock_leak`` — OrbitDB-5 (issue #557): a sync applied while the store is
  closed takes the repo folder lock to write and never releases it, so the
  next ``open_store`` fails with "repo folder locked".
* ``crash_lock_leak`` — crash–recovery (issue #557 family): the repo folder
  lock is a *file*, so it survives the process.  A replica that crashes while
  its store is open leaves the stale lock on disk; with the defect, recovery
  trusts the lock file and ``open_store`` fails with "repo folder locked".
  The fixed implementation detects that no live process owns the lock and
  breaks it.  Whether the bug fires depends on where the crash lands
  relative to a clean ``close_store`` — an interleaving property.

Durability model: every log entry is content-addressed and written through to
disk (IPFS blocks) as it is created, so ``restart`` keeps the whole log, ACL
and clock; only the process state is volatile — the store comes back
*closed* and must be reopened during recovery.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.rdl.base import RDLError, RDLReplica

#: Entries whose clock exceeds this bound trip the future-clock guard.
MAX_REASONABLE_CLOCK = 1_000_000

#: Content hashes the memo keeps; past it the memo starts over.
_HASH_MEMO_LIMIT = 4096
_hash_memo: Dict[Tuple[int, str, str, Tuple[str, ...]], str] = {}
_hash_memo_lock = threading.Lock()


def _json_default(value: Any) -> Any:
    # Sets as lists sorted by their members' encodings, so that no hash
    # follows the process's hash seed; anything else through ``str``.
    if isinstance(value, (set, frozenset)):
        return sorted(
            value, key=lambda item: json.dumps(item, sort_keys=True, default=_json_default)
        )
    return str(value)


def _content_hash(clock_time: Any, identity: Any, payload: Any, parents: Tuple[str, ...]) -> str:
    blob = json.dumps(
        {"t": clock_time, "id": identity, "p": payload, "prev": sorted(parents)},
        sort_keys=True,
        default=_json_default,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _entry_hash(clock_time: int, identity: str, payload: Any, parents: Tuple[str, ...]) -> str:
    """The entry's content hash, memoised only where equal keys mean equal
    JSON: an ``int`` clock, ``str`` identity and payload, ``str`` parents
    (``1``, ``True`` and ``1.0`` are equal keys that encode differently)."""
    key = (clock_time, identity, payload, parents)
    if not (
        type(clock_time) is int and type(identity) is type(payload) is str
        and type(parents) is tuple and all(type(parent) is str for parent in parents)
    ):
        return _content_hash(*key)
    digest = _hash_memo.get(key)
    if digest is None:
        digest = _content_hash(*key)
        with _hash_memo_lock:
            if len(_hash_memo) >= _HASH_MEMO_LIMIT:
                _hash_memo.clear()
            _hash_memo[key] = digest
    return digest


class OrbitDBStore(RDLReplica):
    """One OrbitDB replica (eventlog or kvstore)."""

    KNOWN_DEFECTS = frozenset(
        {
            "undefined_tiebreak",
            "clock_future_halt",
            "unchecked_append",
            "torn_head",
            "lock_leak",
            "crash_lock_leak",
            "no_causal_sort",
        }
    )

    def __init__(
        self,
        replica_id: str,
        defects: Optional[Iterable[str]] = None,
        store_type: str = "eventlog",
        identity: Optional[str] = None,
    ) -> None:
        super().__init__(replica_id, defects)
        if store_type not in ("eventlog", "kvstore", "docstore"):
            raise ValueError(f"unknown store type {store_type!r}")
        self.store_type = store_type
        self.identity = identity or replica_id
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._arrival: List[str] = []  # hashes in local arrival order
        self._heads: Set[str] = set()
        self._cached_heads: Set[str] = set()
        self._clock_time = 0
        self._acl: Set[str] = {self.identity}
        self._open = True
        self._repo_locked = False

    # ----------------------------------------------------------- OrbitDB API

    def open_store(self) -> None:
        """(Re)open the store, taking the repo folder lock."""
        if self._open:
            return
        if self._repo_locked:
            raise RDLError(
                f"repo folder for {self.replica_id!r} keeps getting locked: "
                "lock held by a previous writer (OrbitDB issue #557)"
            )
        self._repo_locked = True
        self._open = True

    def close_store(self) -> None:
        """Close the store, releasing the repo folder lock."""
        if not self._open:
            return
        self._open = False
        self._repo_locked = False

    def append(self, payload: Any, identity: Optional[str] = None) -> str:
        """Append an entry to the log; returns its hash (eventlog stores)."""
        return self._append(payload, identity)

    def put(self, key: str, value: Any, identity: Optional[str] = None) -> str:
        """kvstore put: an op-entry reduced at read time."""
        return self._append({"op": "put", "key": key, "value": value}, identity)

    def del_key(self, key: str, identity: Optional[str] = None) -> str:
        """kvstore delete."""
        return self._append({"op": "del", "key": key}, identity)

    def get(self, key: str, default: Any = None) -> Any:
        if self.store_type not in ("kvstore", "docstore"):
            raise RDLError("get() is only available on kvstore/docstore stores")
        return self.value().get(key, default)

    def put_doc(self, document: Dict[str, Any], identity: Optional[str] = None) -> str:
        """docstore put: upsert a JSON document keyed by its ``_id`` field."""
        if self.store_type != "docstore":
            raise RDLError("put_doc() is only available on docstore stores")
        if "_id" not in document:
            raise RDLError("documents must carry an '_id' field")
        return self._append(
            {"op": "put", "key": document["_id"], "value": dict(document)}, identity
        )

    def del_doc(self, doc_id: str, identity: Optional[str] = None) -> str:
        if self.store_type != "docstore":
            raise RDLError("del_doc() is only available on docstore stores")
        return self._append({"op": "del", "key": doc_id}, identity)

    def query(self, field: str, expected: Any) -> List[Dict[str, Any]]:
        """docstore query: all documents whose ``field`` equals ``expected``."""
        if self.store_type != "docstore":
            raise RDLError("query() is only available on docstore stores")
        return [
            document
            for document in self.value().values()
            if isinstance(document, dict) and document.get(field) == expected
        ]

    def grant_access(self, identity: str) -> None:
        """Add a writer to the access controller (replicates via sync)."""
        self._require_open()
        self._acl.add(identity)

    def revoke_access(self, identity: str) -> None:
        self._require_open()
        self._acl.discard(identity)

    def can_write(self, identity: Optional[str] = None) -> bool:
        return (identity or self.identity) in self._acl

    def flush(self) -> None:
        """Persist in-memory state; refreshes the cached head set."""
        self._require_open()
        self._cached_heads = set(self._heads)

    def log_order(self) -> List[str]:
        """Entry hashes in the store's deterministic (or not!) total order."""
        return [entry["hash"] for entry in self._sorted_entries()]

    def entries(self) -> List[Dict[str, Any]]:
        return [dict(entry) for entry in self._sorted_entries()]

    def clock_time(self) -> int:
        return self._clock_time

    # -------------------------------------------------------- host protocol

    def sync_payload(self, target_replica_id: str) -> Dict[str, Any]:
        self._require_open()
        if self.has_defect("torn_head"):
            heads = set(self._cached_heads)
            # A store that never flushed has an empty stale cache; fall back
            # to the live heads so the defect only fires on *stale* caches.
            if not heads:
                heads = set(self._heads)
        else:
            heads = set(self._heads)
        return {
            "heads": sorted(heads),
            "entries": [dict(self._entries[h]) for h in self._arrival],
            "acl": sorted(self._acl),
            "sender": self.replica_id,
        }

    def canonical_state(self) -> Any:
        """Full behavioural state: the entry log, heads (live and cached),
        arrival order, ACL, clock, and the open/lock process flags."""
        return self.__dict__

    def restart(self) -> None:
        """Reopen the store from its persisted log after a crash.

        Entries, ACL and clock are written through to disk as they are
        created, so they stay.  The process state is volatile — the store
        comes back closed — but the repo folder lock is on disk, so a crash
        while the store was open leaves it behind.
        """
        self._repo_locked = self._open or self._repo_locked
        self._open = False
        if not self.has_defect("crash_lock_leak"):
            # Fixed behaviour: no live process owns the lock after a crash,
            # so recovery breaks the stale lock file before reopening.
            self._repo_locked = False
        self.open_store()

    def apply_sync(self, payload: Dict[str, Any], from_replica_id: str) -> None:
        has_new_entries = any(
            entry["hash"] not in self._entries for entry in payload["entries"]
        )
        if not self._open and self.has_defect("lock_leak") and has_new_entries:
            # Issue #557: the background replicator takes the repo folder
            # lock to persist the incoming entries and never gives it back,
            # so the next open_store() finds the folder locked.  The fixed
            # implementation scopes the lock to the write and releases it.
            # (A payload with nothing new is a no-op and takes no lock.)
            self._repo_locked = True
        self._verify_heads(payload)
        # Fixed behaviour merges the ACL before validating writers, so a
        # grant travelling with (or ahead of) the entries always admits them.
        if not self.has_defect("unchecked_append"):
            self._acl.update(payload.get("acl", ()))
        for entry in payload["entries"]:
            self._integrate(entry)
        if self.has_defect("unchecked_append"):
            self._acl.update(payload.get("acl", ()))

    def value(self) -> Any:
        if self.store_type in ("kvstore", "docstore"):
            out: Dict[str, Any] = {}
            for entry in self._sorted_entries():
                payload = entry["payload"]
                if payload.get("op") == "put":
                    out[payload["key"]] = payload["value"]
                elif payload.get("op") == "del":
                    out.pop(payload["key"], None)
            return out
        return [entry["payload"] for entry in self._sorted_entries()]

    # ------------------------------------------------------------- internal

    def _require_open(self) -> None:
        if not self._open:
            raise RDLError(f"store on {self.replica_id!r} is closed")

    def _append(self, payload: Any, identity: Optional[str]) -> str:
        self._require_open()
        writer = identity or self.identity
        if writer not in self._acl:
            raise RDLError(f"write access denied for identity {writer!r}")
        if (
            self.has_defect("clock_future_halt")
            and self._clock_time >= MAX_REASONABLE_CLOCK
        ):
            # Issue #512: a far-future clock (set by a synced entry) exceeds
            # the bound and the store refuses every further local write.
            raise RDLError(
                "db progress halted: Lamport clock "
                f"{self._clock_time} exceeds max {MAX_REASONABLE_CLOCK} "
                "(OrbitDB issue #512)"
            )
        self._clock_time += 1
        parents = tuple(sorted(self._heads))
        entry_hash = _entry_hash(self._clock_time, writer, payload, parents)
        entry = {
            "hash": entry_hash,
            "clock_time": self._clock_time,
            "identity": writer,
            "payload": payload,
            "parents": parents,
        }
        self._store_entry(entry)
        if not self.has_defect("torn_head"):
            self._cached_heads = set(self._heads)
        return entry_hash

    def _store_entry(self, entry: Dict[str, Any]) -> None:
        entry_hash = entry["hash"]
        if entry_hash in self._entries:
            return
        self._entries[entry_hash] = entry
        self._arrival.append(entry_hash)
        self._heads -= set(entry["parents"])
        self._heads.add(entry_hash)

    def _integrate(self, entry: Dict[str, Any]) -> None:
        if entry["hash"] in self._entries:
            return
        writer = entry["identity"]
        if writer not in self._acl:
            if self.has_defect("unchecked_append"):
                raise RDLError(
                    f"could not append entry {entry['hash']}: although write "
                    f"access is granted, identity {writer!r} is not in the "
                    "local access controller (OrbitDB issue #1153)"
                )
            # Fixed behaviour: the grant always travels in the same payload
            # (or an earlier one); by this point the ACL merge above admitted
            # the writer.  A genuinely unauthorised writer is rejected.
            raise RDLError(f"entry from unauthorised identity {writer!r} rejected")
        expected = _entry_hash(
            entry["clock_time"], writer, entry["payload"], tuple(entry["parents"])
        )
        if expected != entry["hash"]:
            raise RDLError(f"entry {entry['hash']} failed content verification")
        self._store_entry(entry)
        self._clock_time = max(self._clock_time, entry["clock_time"])

    def _verify_heads(self, payload: Dict[str, Any]) -> None:
        shipped_hashes = {entry["hash"] for entry in payload["entries"]}
        for head in payload["heads"]:
            if head not in shipped_hashes:
                raise RDLError(
                    f"head hash {head!r} didn't match the contents of the sync "
                    "payload (OrbitDB issue #583)"
                )
        # Every shipped entry must be reachable from some head; a payload
        # with entries *newer* than its head set is torn the other way.
        heads = set(payload["heads"])
        parents_of_shipped: Set[str] = set()
        for entry in payload["entries"]:
            parents_of_shipped.update(entry["parents"])
        dangling = shipped_hashes - parents_of_shipped - heads
        if dangling:
            raise RDLError(
                "head hash didn't match the contents: entries "
                f"{sorted(dangling)} are newer than the shipped heads "
                "(OrbitDB issue #583)"
            )

    def _sorted_entries(self) -> List[Dict[str, Any]]:
        entries = [self._entries[h] for h in self._arrival]
        if self.has_defect("no_causal_sort"):
            # Misconception #1/#5 seeding: the app reads the raw replication
            # stream, assuming the network delivered entries causally —
            # the exposed order is plain arrival order.
            return entries
        if self.has_defect("undefined_tiebreak"):
            # Issue #513: sort key stops at (time, identity).  Python's sort
            # is stable, so ties keep *arrival* order — replica-dependent.
            return sorted(
                entries, key=lambda entry: (entry["clock_time"], entry["identity"])
            )
        return sorted(
            entries,
            key=lambda entry: (entry["clock_time"], entry["identity"], entry["hash"]),
        )

    # ------------------------------------------------- future-clock seeding

    def inject_future_entry(self, payload: Any, future_time: int) -> str:
        """Append an entry with an attacker-controlled far-future clock.

        Models the issue-#512 scenario where a (buggy or malicious) peer sets
        its Lamport clock far into the future.  Bypasses the local monotone
        clock on purpose.
        """
        self._require_open()
        parents = tuple(sorted(self._heads))
        entry_hash = _entry_hash(future_time, self.identity, payload, parents)
        entry = {
            "hash": entry_hash,
            "clock_time": future_time,
            "identity": self.identity,
            "payload": payload,
            "parents": parents,
        }
        self._store_entry(entry)
        self._clock_time = max(self._clock_time, future_time)
        return entry_hash
