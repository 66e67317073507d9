"""Subject 3 — ReplicaDB: bulk data replication between source and sink.

The real ReplicaDB (Java) moves table data from a source store to a sink in
parallel chunks, with three modes: ``complete`` (truncate-and-load),
``complete-atomic`` (staged swap) and ``incremental`` (upsert new/changed
rows).  This simulation models a replica as one ReplicaDB job host holding a
source table and a sink table; ``replicate()`` is the operation application
code invokes, and peer replicas exchange their *source* tables (the upstream
databases replicate among themselves; ReplicaDB itself is the transfer tool).

Defect flags (bug scenarios in :mod:`repro.bugs.replicadb_bugs`):

* ``unbounded_fetch`` — ReplicaDB-1 (issue #79): a fetch size of zero loads
  the entire source result set into memory at once; with a bounded memory
  budget the job crashes with an out-of-memory error once the source has
  grown past the budget — which only happens in interleavings where the
  growth syncs in before the transfer runs.
* ``no_sink_deletes`` — ReplicaDB-2 (issue #23): incremental mode only
  upserts, so rows deleted at the source are never deleted from the sink.
* ``volatile_tombstones`` — crash–recovery: the upstream replication keeps
  its delete-tombstone table in memory only.  After a crash the deleted rows
  stay gone from the durable source table, but the tombstones vanish — so a
  later sync from a peer that still holds the old row re-inserts it
  (deleted-row resurrection), and a third replica that kept its tombstone
  diverges permanently.  Fires only in interleavings where the crash lands
  between the delete and the peer's sync.

Durability model: the source and sink are real database tables and survive a
crash; the job runner's counters (rows transferred, peak memory) are process
state, and ``restart`` resets them.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.rdl.base import RDLError, RDLReplica

#: Simulated job memory budget (rows held in memory at once).
DEFAULT_MEMORY_BUDGET_ROWS = 64


class ReplicaDBJob(RDLReplica):
    """One ReplicaDB host: a source table, a sink table, and the job runner."""

    KNOWN_DEFECTS = frozenset(
        {"unbounded_fetch", "no_sink_deletes", "raw_apply", "volatile_tombstones"}
    )

    def __init__(
        self,
        replica_id: str,
        defects: Optional[Iterable[str]] = None,
        fetch_size: int = 16,
        memory_budget_rows: int = DEFAULT_MEMORY_BUDGET_ROWS,
    ) -> None:
        super().__init__(replica_id, defects)
        if fetch_size < 0:
            raise ValueError("fetch_size must be >= 0 (0 means unbounded)")
        self.fetch_size = fetch_size
        self.memory_budget_rows = memory_budget_rows
        self._source: Dict[Any, Dict[str, Any]] = {}
        self._source_deleted: Dict[Any, int] = {}
        self._source_version = 0
        self._sink: Dict[Any, Dict[str, Any]] = {}
        self.rows_transferred = 0
        self.peak_memory_rows = 0

    # -------------------------------------------------------- source writes

    def source_insert(self, row_id: Any, row: Dict[str, Any]) -> None:
        self._source_version += 1
        self._source[row_id] = dict(row, _v=self._source_version)
        self._source_deleted.pop(row_id, None)

    def source_update(self, row_id: Any, row: Dict[str, Any]) -> None:
        if row_id not in self._source:
            raise RDLError(f"source row {row_id!r} does not exist")
        self._source_version += 1
        self._source[row_id] = dict(row, _v=self._source_version)

    def source_delete(self, row_id: Any) -> None:
        if self._source.pop(row_id, None) is None:
            raise RDLError(f"source row {row_id!r} does not exist")
        self._source_version += 1
        self._source_deleted[row_id] = self._source_version

    # ----------------------------------------------------------- job runner

    def replicate(self, mode: str = "complete") -> int:
        """Run one transfer job; returns the number of rows written.

        ``complete`` truncates the sink and reloads everything;
        ``incremental`` upserts rows (and, when the library is fixed,
        propagates source deletions to the sink).
        """
        if mode not in ("complete", "complete-atomic", "incremental"):
            raise RDLError(f"unknown replication mode {mode!r}")
        chunks = self._fetch_chunks()
        if mode in ("complete", "complete-atomic"):
            staged: Dict[Any, Dict[str, Any]] = {}
            for chunk in chunks:
                for row_id, row in chunk:
                    staged[row_id] = dict(row)
            self._sink = staged
            written = len(staged)
        else:
            written = 0
            for chunk in chunks:
                for row_id, row in chunk:
                    self._sink[row_id] = dict(row)
                    written += 1
            if not self.has_defect("no_sink_deletes"):
                for row_id in list(self._sink):
                    if row_id in self._source_deleted:
                        del self._sink[row_id]
            # Issue #23: with the defect, deleted source rows simply stay
            # in the sink forever.
        self.rows_transferred += written
        return written

    def _fetch_chunks(self) -> List[List[Tuple[Any, Dict[str, Any]]]]:
        rows = sorted(self._source.items(), key=lambda item: str(item[0]))
        effective = self.fetch_size
        if self.has_defect("unbounded_fetch"):
            # Issue #79: the JDBC fetch size silently falls back to 0, i.e.
            # "stream the whole result set into memory".
            effective = 0
        if effective == 0:
            self._charge_memory(len(rows))
            return [rows] if rows else []
        chunks = [rows[i : i + effective] for i in range(0, len(rows), effective)]
        self._charge_memory(min(len(rows), effective))
        return chunks

    def _charge_memory(self, rows_in_memory: int) -> None:
        self.peak_memory_rows = max(self.peak_memory_rows, rows_in_memory)
        if rows_in_memory > self.memory_budget_rows:
            raise RDLError(
                f"java.lang.OutOfMemoryError: result set of {rows_in_memory} rows "
                f"exceeds the {self.memory_budget_rows}-row budget "
                "(ReplicaDB issue #79)"
            )

    # --------------------------------------------------------------- reads

    def source_rows(self) -> Dict[Any, Dict[str, Any]]:
        return {rid: {k: v for k, v in row.items() if k != "_v"} for rid, row in self._source.items()}

    def sink_rows(self) -> Dict[Any, Dict[str, Any]]:
        return {rid: {k: v for k, v in row.items() if k != "_v"} for rid, row in self._sink.items()}

    def sink_matches_source(self) -> bool:
        return self.source_rows() == self.sink_rows()

    # -------------------------------------------------------- host protocol

    def canonical_state(self) -> Any:
        """Full behavioural state: source/sink tables, tombstones, versions
        and the job-runner counters."""
        return self.__dict__

    def restart(self) -> None:
        """Come back from a crash: the source and sink tables (databases)
        stay, and the job-runner counters (process state) reset.

        With the ``volatile_tombstones`` defect the delete-tombstone table
        is also memory-only, so recovery forgets which rows were deleted.
        """
        self.rows_transferred = 0
        self.peak_memory_rows = 0
        if self.has_defect("volatile_tombstones"):
            self._source_deleted = {}

    def sync_payload(self, target_replica_id: str) -> Dict[str, Any]:
        """Upstream-database replication: ship source rows and tombstones."""
        return {
            "rows": {rid: dict(row) for rid, row in self._source.items()},
            "deleted": dict(self._source_deleted),
        }

    def apply_sync(self, payload: Dict[str, Any], from_replica_id: str) -> None:
        if self.has_defect("raw_apply"):
            # Misconception #1 seeding: upstream replication applies incoming
            # rows verbatim, ignoring row versions and delete tombstones —
            # the source table's content depends on delivery order.
            for row_id, row in payload["rows"].items():
                self._source[row_id] = dict(row)
            for row_id in payload["deleted"]:
                self._source.pop(row_id, None)
            return
        for row_id, row in payload["rows"].items():
            incoming_version = row.get("_v", 0)
            current = self._source.get(row_id)
            tombstone = self._source_deleted.get(row_id, -1)
            if incoming_version <= tombstone:
                continue
            if current is None or incoming_version > current.get("_v", 0):
                self._source[row_id] = dict(row)
                self._source_deleted.pop(row_id, None)
            self._source_version = max(self._source_version, incoming_version)
        for row_id, version in payload["deleted"].items():
            current = self._source.get(row_id)
            if current is not None and current.get("_v", 0) < version:
                del self._source[row_id]
            if version > self._source_deleted.get(row_id, -1):
                if current is None or current.get("_v", 0) < version:
                    self._source_deleted[row_id] = version
            self._source_version = max(self._source_version, version)

    def value(self) -> Dict[str, Any]:
        return {"source": self.source_rows(), "sink": self.sink_rows()}
