"""Shared machinery for the simulated RDL subjects.

Each subject (Roshi, OrbitDB, ReplicaDB, Yorkie, CRDTs) is a Python
reimplementation of the third-party library's *replication semantics* — the
part ER-pi's integration testing interacts with.  All subjects implement the
host protocol in :mod:`repro.net.replica`:

* ``sync_payload(target)`` / ``apply_sync(payload, sender)``
* ``checkpoint()`` / ``restore(snapshot)``
* ``value()``

plus their library-specific operation surface (the functions ER-pi proxies).

Seeded defects: every subject takes a ``defects`` set of string flags.  An
empty set is the fixed, correct library; each flag re-introduces one reported
bug or misconception exactly where the real library had it.  The flags are
listed per subject module and registered in :mod:`repro.bugs.registry`.
"""

from __future__ import annotations

import abc
import pickle
from typing import Any, FrozenSet, Iterable, Optional, Set

from repro.proxy.interceptor import own_state


class RDLError(Exception):
    """An error surfaced by a simulated library (what app code would see as
    an exception or error return from the real RDL)."""


class RDLReplica(abc.ABC):
    """Base class for one replica of a simulated RDL."""

    #: Defect flags this subject understands; subclasses override.
    KNOWN_DEFECTS: FrozenSet[str] = frozenset()

    def __init__(self, replica_id: str, defects: Optional[Iterable[str]] = None) -> None:
        if not replica_id:
            raise ValueError("replica_id must be non-empty")
        self.replica_id = replica_id
        self.defects: Set[str] = set(defects or ())
        unknown = self.defects - set(self.KNOWN_DEFECTS)
        if unknown:
            raise ValueError(
                f"{type(self).__name__} does not understand defect flags {sorted(unknown)}"
            )

    def has_defect(self, flag: str) -> bool:
        return flag in self.defects

    # --- host protocol ----------------------------------------------------

    @abc.abstractmethod
    def sync_payload(self, target_replica_id: str) -> Any:
        """The payload this replica would ship to ``target_replica_id``.

        Contract: the returned payload must be ship-and-forget — a fresh
        object per call, never mutated afterwards by sender or receiver,
        because the cluster's channel queues it by reference.
        """

    @abc.abstractmethod
    def apply_sync(self, payload: Any, from_replica_id: str) -> None:
        """Integrate a payload received from a peer."""

    @abc.abstractmethod
    def value(self) -> Any:
        """The observable state app code reads."""

    def checkpoint(self) -> bytes:
        """This replica's state as pickled bytes.

        The bytes are immutable, so one snapshot serves any number of
        restores, and a restore is one C-level unpickle.  They are made and
        loaded in one process only: snapshots never go into a journal or
        over the worker pipes (each worker builds its own checkpoint).
        """
        return self._snapshot()

    def restore(self, snapshot: bytes) -> None:
        self.__dict__ = pickle.loads(snapshot)

    def _snapshot(self, **overrides: Any) -> bytes:
        """Pickle this replica's state with ``overrides`` replacing fields
        (e.g. volatile state reset for a durable snapshot).  Recording
        proxies are left out, see :func:`~repro.proxy.interceptor.own_state`.
        """
        state = own_state(self)
        if overrides:
            state = {**state, **overrides}
        return pickle.dumps(state, pickle.HIGHEST_PROTOCOL)

    def canonical_state(self) -> Any:
        """The replica's full semantic state, for canonical hashing.

        :func:`repro.statehash.state_digest` turns this value into a
        digest that identifies the replica's state.  The contract: two
        replicas with equal ``canonical_state`` must behave identically
        under every future event sequence —
        include *everything* that influences behaviour (volatile and
        durable data, clocks, arrival orders), and nothing that does not
        (caches that are recomputed, debug counters).

        The default returns ``None``: the subject declares no canonical
        state.
        """
        return None

    # --- crash/recover protocol ------------------------------------------
    #
    # A crash discards the replica process; what survives is whatever the
    # real library persists (a log on disk, a backing Redis, nothing).
    # ``durable_snapshot`` captures exactly that persistent slice, and
    # ``recover`` rebuilds a fresh replica from it — volatile state
    # (in-memory caches, un-flushed buffers) must come back at its
    # post-restart value, not its pre-crash one.  The defaults model a
    # library whose whole state is durable; subjects with genuinely
    # volatile state override both.

    def durable_snapshot(self) -> bytes:
        """The state that survives a crash of this replica's process."""
        return self.checkpoint()

    def recover(self, snapshot: bytes) -> None:
        """Rebuild this replica from a ``durable_snapshot`` after a crash."""
        self.restore(snapshot)

    def __repr__(self) -> str:
        flags = f", defects={sorted(self.defects)}" if self.defects else ""
        return f"{type(self).__name__}({self.replica_id!r}{flags})"
