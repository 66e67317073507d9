"""The cluster: replicas + transport, with the two-phase sync protocol.

ER-pi's event model distinguishes *sending* a sync request from *executing*
it at the receiver (paper section 3.2, Algorithm 1 groups these pairs).  The
cluster exposes exactly those two primitives:

* :meth:`Cluster.send_sync` — the sender snapshots its sync payload and puts
  it on the wire (a ``SYNC_REQ`` event).
* :meth:`Cluster.execute_sync` — the receiver integrates the next queued
  payload from that sender (an ``EXEC_SYNC`` event).

``sync`` is the convenience composition of the two for non-replay code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.net.conditions import NetworkConditions
from repro.net.replica import ReplicaHost
from repro.net.transport import Transport, TransportError


class ClusterError(Exception):
    """Raised on cluster misuse (unknown replica, duplicate id, ...)."""


@dataclass(frozen=True)
class SuppressedSend:
    """One sync send the network suppressed (partition or random drop)."""

    sender: str
    receiver: str
    reason: str  # "partition" | "drop"


@dataclass(frozen=True)
class SyncSummary:
    """What one :meth:`Cluster.sync_all` pass actually delivered."""

    attempted: int
    delivered: int
    suppressed: Tuple[SuppressedSend, ...]


@dataclass(frozen=True)
class ClusterCheckpoint:
    """A replay baseline: each replica's snapshot (opaque, see
    :meth:`~repro.rdl.base.RDLReplica.checkpoint`) plus the partitions."""

    snapshots: Dict[str, Any]
    partitions: FrozenSet[FrozenSet[str]]


class Cluster:
    """A set of replica hosts wired through one transport."""

    def __init__(self, conditions: Optional[NetworkConditions] = None) -> None:
        self.transport = Transport(conditions)
        self._hosts: Dict[str, ReplicaHost] = {}
        #: Sends the network suppressed since construction / the last
        #: :meth:`restore` — fault-window scenarios assert on these instead
        #: of having partition losses silently swallowed.
        self.suppressed_sends: List[SuppressedSend] = []

    # ------------------------------------------------------------- topology

    def add_replica(self, replica_id: str, rdl: Any) -> ReplicaHost:
        if replica_id in self._hosts:
            raise ClusterError(f"duplicate replica id {replica_id!r}")
        host = ReplicaHost(replica_id, rdl)
        self._hosts[replica_id] = host
        return host

    def host(self, replica_id: str) -> ReplicaHost:
        try:
            return self._hosts[replica_id]
        except KeyError:
            raise ClusterError(f"unknown replica {replica_id!r}") from None

    def rdl(self, replica_id: str) -> Any:
        return self.host(replica_id).rdl

    def replica_ids(self) -> List[str]:
        return sorted(self._hosts)

    def __len__(self) -> int:
        return len(self._hosts)

    # ----------------------------------------------------------------- sync

    def send_sync(self, sender: str, receiver: str) -> bool:
        """Phase 1: snapshot the sender's payload and enqueue it.

        Returns True iff the message made it onto the wire (partitions and
        drops return False, exactly like a lost datagram).
        """
        source = self.host(sender)
        source.require_up()
        payload = source.rdl.sync_payload(receiver)
        message = self.transport.send(sender, receiver, payload)
        if message is None:
            reason = self.transport.last_send_outcome or "drop"
            self.suppressed_sends.append(SuppressedSend(sender, receiver, reason))
            return False
        source.sent_syncs += 1
        return True

    def execute_sync(self, sender: str, receiver: str) -> bool:
        """Phase 2: the receiver integrates the next payload from ``sender``.

        Returns False when nothing is deliverable on that channel.
        """
        target = self.host(receiver)
        try:
            message = self.transport.deliver_next(sender, receiver)
        except TransportError:
            target.require_up()
            return False
        # The message is consumed before the liveness check: a payload that
        # reaches a dead node is lost, not left queued for a later execute
        # (which would silently re-pair sync requests with wrong executes).
        target.require_up()
        target.rdl.apply_sync(message.payload, sender)
        target.applied_syncs += 1
        return True

    def sync(self, sender: str, receiver: str) -> bool:
        """Full sync in one call (send + execute)."""
        if not self.send_sync(sender, receiver):
            return False
        return self.execute_sync(sender, receiver)

    def sync_all(self, rounds: int = 1) -> SyncSummary:
        """Pairwise full mesh sync, ``rounds`` times (to reach convergence).

        Returns a :class:`SyncSummary` so callers can see which sends the
        network suppressed instead of having them silently swallowed.
        Replicas that are down are skipped (a mesh pass cannot reach them).
        """
        ids = self.replica_ids()
        attempted = delivered = 0
        suppressed_before = len(self.suppressed_sends)
        for _ in range(rounds):
            for sender in ids:
                for receiver in ids:
                    if sender == receiver:
                        continue
                    if not self.host(sender).up or not self.host(receiver).up:
                        continue
                    attempted += 1
                    if self.sync(sender, receiver):
                        delivered += 1
        return SyncSummary(
            attempted=attempted,
            delivered=delivered,
            suppressed=tuple(self.suppressed_sends[suppressed_before:]),
        )

    # ---------------------------------------------------------------- faults

    def crash(self, replica_id: str) -> None:
        """Kill one replica: its durable snapshot is captured, volatile
        state is lost, and further ops/syncs raise ``ReplicaDownError``."""
        self.host(replica_id).crash()

    def recover(self, replica_id: str) -> None:
        """Restart a crashed replica from its durable snapshot."""
        self.host(replica_id).recover()

    def partition(self, replica_a: str, replica_b: str) -> None:
        self.transport.conditions.partition(replica_a, replica_b)

    def heal(self, replica_a: Optional[str] = None, replica_b: Optional[str] = None) -> None:
        self.transport.conditions.heal(replica_a, replica_b)

    # ------------------------------------------------------------ lifecycle

    def checkpoint(self) -> ClusterCheckpoint:
        """Snapshot every replica and the partition topology (the transport
        must be empty — replay checkpoints are taken at quiescent points)."""
        return ClusterCheckpoint(
            {rid: host.checkpoint() for rid, host in self._hosts.items()},
            frozenset(self.transport.conditions.partitions),
        )

    def restore(self, checkpoint: ClusterCheckpoint) -> None:
        """Reinstate a checkpoint: replica states with every host up, the
        partitions, and an empty transport."""
        for rid, snapshot in checkpoint.snapshots.items():
            self.host(rid).restore(snapshot)
        partitions = self.transport.conditions.partitions
        partitions.clear()
        partitions.update(checkpoint.partitions)
        self.transport.reset()
        self.suppressed_sends.clear()

    def states(self) -> Dict[str, Any]:
        return {rid: host.state() for rid, host in self._hosts.items()}

    def converged(self) -> bool:
        """True iff all replicas report the same observable value."""
        values = list(self.states().values())
        return all(value == values[0] for value in values[1:])
