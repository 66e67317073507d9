"""The hunt journal: a durable, append-only checkpoint of one hunt.

A journaled hunt (``hunt --journal``, on
:class:`~repro.core.procpool.ProcessParallelExplorer`) survives its own
parent being killed, because every committed verdict is journaled *before*
the hunt moves past it.  The journal
is JSONL, one record per line:

* ``header``  — the hunt's configuration (its
  :class:`~repro.bench.harness.HuntConfig` as a dict) and id.  Always the
  first line; ``--resume`` refuses a configuration that differs from it.
* ``commit``  — one committed verdict, in global candidate order: index,
  verdict (``ok`` / ``violation`` / ``quarantine``), the interleaving key,
  and for violations the assertion messages (so a resumed hunt can report
  the violation without re-replaying it).
* ``lease``   — a worker slot's incarnation log: acquired / expired /
  re-leased / quarantined, with the slot and attempt number.
* ``final``   — the hunt completed; holds the summary.  A journal without a
  ``final`` record is resumable; with one it is just replayable.

Every append is flushed and fsynced, so a killed writer loses at most the
line it was writing.  The whole file is rewritten (temp file plus atomic
rename) only when a journal is created and when a loaded one is reopened
for appends, which compacts away such a torn line first.

Crash tolerance on load: a truncated *trailing* line (the writer died
mid-append) is dropped silently; corruption anywhere else raises
:class:`JournalError` — a resumed hunt must never silently skip committed
work, because the resumed verdict map is promised to be bit-for-bit the
uninterrupted run's.  Record types this build no longer writes (the
``degraded`` and ``checkpoint`` records of older builds) load and are
ignored, so their journals still resume.
"""

from __future__ import annotations

import io
import json
import os
from typing import Any, Dict, List, Optional, Tuple


class JournalError(Exception):
    """The journal file is unusable (corrupt, wrong version, bad prefix)."""


#: Journal format version (bumped on incompatible record changes).
VERSION = 1


class JournaledOutcome:
    """A violation reconstructed from the journal instead of a live replay.

    Quacks like :class:`~repro.core.replay.InterleavingOutcome` for the
    report/CLI surface (``violated`` / ``violations`` / event ids), without
    the replica states a live outcome carries — those died with the previous
    incarnation of the hunt.
    """

    __slots__ = ("violated", "violations", "event_ids")

    def __init__(self, event_ids: Tuple[str, ...], violations: List[str]) -> None:
        self.violated = True
        self.violations = list(violations)
        self.event_ids = tuple(event_ids)

    #: The live outcome exposes ``interleaving`` as Event objects; a resumed
    #: one only knows the ids.  Kept as a property for parity of access.
    @property
    def interleaving(self) -> Tuple[str, ...]:
        return self.event_ids


class HuntJournal:
    """Append-only JSONL checkpoint of a process-pool hunt.

    Appends are flushed and fsynced per record.  :meth:`create` and
    :meth:`reopen` write the whole file through a temp file + atomic
    ``os.replace``, so a reopened journal never carries a torn tail into
    its next append.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.records: List[Dict[str, Any]] = []
        self._handle: Optional[io.TextIOBase] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, path: str, header: Dict[str, Any]) -> "HuntJournal":
        """Start a fresh journal (atomically replacing any previous file).

        A path that cannot be written raises :class:`JournalError`."""
        journal = cls(path)
        journal.records = [{"type": "header", "version": VERSION, **header}]
        try:
            journal._rewrite()
            journal._open_append()
        except OSError as exc:
            raise JournalError(f"cannot create journal {path!r}: {exc}") from exc
        return journal

    @classmethod
    def load(cls, path: str) -> "HuntJournal":
        """Read an existing journal, tolerating a truncated trailing line."""
        journal = cls(path)
        try:
            with open(path, "r") as handle:
                lines = handle.read().split("\n")
        except OSError as exc:
            raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
        records: List[Dict[str, Any]] = []
        for lineno, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                remainder = [l for l in lines[lineno + 1 :] if l.strip()]
                if remainder:
                    raise JournalError(
                        f"{path}: corrupt record at line {lineno + 1} "
                        "(not the trailing line — refusing to resume)"
                    ) from None
                break  # torn tail: the writer died mid-append; drop it
        if not records or records[0].get("type") != "header":
            raise JournalError(f"{path}: missing header record")
        if records[0].get("version") != VERSION:
            raise JournalError(
                f"{path}: journal version {records[0].get('version')!r}, "
                f"this build reads version {VERSION}"
            )
        journal.records = records
        return journal

    def reopen(self) -> None:
        """Prepare a loaded journal for further appends.

        The compacting rewrite drops any torn tail from disk before new
        records land after it.
        """
        if self._handle is not None:
            return
        self._rewrite()
        self._open_append()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "HuntJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- writes

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise JournalError("journal is not open for appends (call reopen())")
        self.records.append(record)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def commit(
        self,
        index: int,
        verdict: str,
        il_key: str,
        error_type: Optional[str] = None,
        messages: Tuple[str, ...] = (),
    ) -> None:
        record: Dict[str, Any] = {
            "type": "commit",
            "index": index,
            "verdict": verdict,
            "il": il_key,
        }
        if error_type is not None:
            record["error"] = error_type
        if messages:
            record["messages"] = list(messages)
        self.append(record)

    def lease(self, slot: int, attempt: int, status: str) -> None:
        self.append(
            {"type": "lease", "slot": slot, "attempt": attempt, "status": status}
        )

    def final(
        self,
        found: bool,
        explored: int,
        crashed: bool = False,
        crash_reason: Optional[str] = None,
    ) -> None:
        self.append(
            {
                "type": "final",
                "found": found,
                "explored": explored,
                "crashed": crashed,
                "crash_reason": crash_reason,
            }
        )

    def _rewrite(self) -> None:
        """Write every record to ``path`` through a temp file + os.replace."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)

    def _open_append(self) -> None:
        self._handle = open(self.path, "a")

    # ---------------------------------------------------------------- reads

    @property
    def header(self) -> Dict[str, Any]:
        return self.records[0]

    def _of_type(self, kind: str) -> List[Dict[str, Any]]:
        return [record for record in self.records if record.get("type") == kind]

    @property
    def commits(self) -> List[Dict[str, Any]]:
        """Committed verdicts, validated as a contiguous index prefix.

        Commits are appended strictly in commit order, so any gap or
        reordering means the file was tampered with or mis-merged — resume
        refuses rather than skipping committed work.
        """
        commits = self._of_type("commit")
        for position, record in enumerate(commits):
            if record.get("index") != position:
                raise JournalError(
                    f"{self.path}: commit records are not a contiguous prefix "
                    f"(record {position} has index {record.get('index')!r})"
                )
        return commits

    @property
    def lease_events(self) -> List[Tuple[int, int, str]]:
        return [
            (record["slot"], record["attempt"], record["status"])
            for record in self._of_type("lease")
        ]

    @property
    def final_record(self) -> Optional[Dict[str, Any]]:
        finals = self._of_type("final")
        return finals[-1] if finals else None

    @property
    def is_final(self) -> bool:
        return self.final_record is not None
