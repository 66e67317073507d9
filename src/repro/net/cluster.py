"""The cluster: replicas joined by FIFO channels, with the two-phase sync
protocol.

ER-pi's event model distinguishes *sending* a sync request from *executing*
it at the receiver (paper section 3.2, Algorithm 1 groups these pairs).  The
cluster exposes exactly those two primitives:

* :meth:`Cluster.send_sync` — the sender snapshots its sync payload and puts
  it on the wire (a ``SYNC_REQ`` event).
* :meth:`Cluster.execute_sync` — the receiver integrates the next queued
  payload from that sender (an ``EXEC_SYNC`` event).

``sync`` is the convenience composition of the two for non-replay code.

The network model is one decision: each (sender, receiver) channel delivers
its payloads in order and loses none, except that a partitioned pair drops
every send.  ER-pi explores delivery order itself, by enumerating the
``EXEC_SYNC`` events, so the network adds no nondeterminism of its own and
replay stays a pure function of the event sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.net.replica import ReplicaHost


class ClusterError(Exception):
    """Raised on cluster misuse (unknown replica, duplicate id, ...)."""


@dataclass(frozen=True)
class SuppressedSend:
    """One sync send a partition suppressed."""

    sender: str
    receiver: str


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
    """A set of replica hosts joined by one FIFO channel per ordered pair."""

    def __init__(self) -> None:
        self._hosts: Dict[str, ReplicaHost] = {}
        #: (sender, receiver) -> the payloads in flight, oldest first.
        self._channels: Dict[Tuple[str, str], Deque[Any]] = {}
        #: Unordered replica pairs that cannot exchange payloads.
        self.partitions: Set[FrozenSet[str]] = set()
        #: Payloads put on a channel since construction / the last
        #: :meth:`restore`.
        self.sent_syncs = 0
        #: Sends a partition suppressed since construction / the last
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

        Returns True iff the payload made it onto the channel (a partition
        returns False, exactly like a lost datagram).
        """
        source = self.host(sender)
        source.require_up()
        payload = source.rdl.sync_payload(receiver)
        if self.partitions and frozenset((sender, receiver)) in self.partitions:
            self.suppressed_sends.append(SuppressedSend(sender, receiver))
            return False
        channel = self._channels.get((sender, receiver))
        if channel is None:
            channel = self._channels[(sender, receiver)] = deque()
        channel.append(payload)
        self.sent_syncs += 1
        return True

    def execute_sync(self, sender: str, receiver: str) -> bool:
        """Phase 2: the receiver integrates the next payload from ``sender``.

        Returns False when nothing is in flight on that channel.
        """
        target = self.host(receiver)
        channel = self._channels.get((sender, receiver))
        if not channel:
            target.require_up()
            return False
        # The payload is consumed before the liveness check: a payload that
        # reaches a dead node is lost, not left queued for a later execute
        # (which would silently re-pair sync requests with wrong executes).
        payload = channel.popleft()
        target.require_up()
        target.rdl.apply_sync(payload, sender)
        return True

    def sync(self, sender: str, receiver: str) -> bool:
        """Full sync in one call (send + execute)."""
        if not self.send_sync(sender, receiver):
            return False
        return self.execute_sync(sender, receiver)

    def sync_all(self, rounds: int = 1) -> SyncSummary:
        """Pairwise full mesh sync, ``rounds`` times (to reach convergence).

        Returns a :class:`SyncSummary` so callers can see which sends a
        partition suppressed instead of having them silently swallowed.
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
        """Cut the link between two replicas, in both directions."""
        if replica_a == replica_b:
            # frozenset((a, a)) collapses to a size-1 set that send_sync can
            # never match: a self-pair would be silently ineffective.
            raise ValueError("cannot partition a replica from itself")
        self.partitions.add(frozenset((replica_a, replica_b)))

    def heal(self, replica_a: Optional[str] = None, replica_b: Optional[str] = None) -> None:
        """Heal one pair, or everything when called without arguments."""
        if replica_a is None and replica_b is None:
            self.partitions.clear()
            return
        if replica_a is None or replica_b is None:
            raise ValueError("heal takes zero or two replica ids")
        if replica_a == replica_b:
            raise ValueError("heal takes two distinct replica ids")
        self.partitions.discard(frozenset((replica_a, replica_b)))

    # ------------------------------------------------------------ lifecycle

    def checkpoint(self) -> ClusterCheckpoint:
        """Snapshot every replica and the partition topology.

        Replay checkpoints are taken at quiescent points: a payload in
        flight would be lost by every :meth:`restore`, so it is refused
        here rather than dropped silently.
        """
        in_flight = sorted(
            f"{sender}->{receiver}"
            for (sender, receiver), channel in self._channels.items()
            if channel
        )
        if in_flight:
            raise ClusterError(
                "cannot checkpoint with sync payloads in flight on "
                + ", ".join(in_flight)
                + " (execute them first)"
            )
        return ClusterCheckpoint(
            {rid: host.checkpoint() for rid, host in self._hosts.items()},
            frozenset(self.partitions),
        )

    def restore(self, checkpoint: ClusterCheckpoint) -> None:
        """Reinstate a checkpoint: replica states with every host up, the
        partitions, and empty channels and counters."""
        for rid, snapshot in checkpoint.snapshots.items():
            self.host(rid).restore(snapshot)
        partitions = self.partitions
        partitions.clear()
        partitions.update(checkpoint.partitions)
        self._channels.clear()
        self.sent_syncs = 0
        self.suppressed_sends.clear()

    def states(self) -> Dict[str, Any]:
        return {rid: host.state() for rid, host in self._hosts.items()}

    def converged(self) -> bool:
        """True iff all replicas report the same observable value."""
        values = list(self.states().values())
        return all(value == values[0] for value in values[1:])
