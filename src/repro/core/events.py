"""ER-pi's distributed event model.

An :class:`Event` is one intercepted RDL interaction: a local update, the
sending of a sync request, or the execution of a sync at the receiver
(paper section 3.2 distinguishes exactly these).  Events are immutable; the
replay engine re-invokes them against the cluster in whatever order the
current interleaving dictates, assigning Lamport timestamps as it goes
(paper section 4.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.fastcopy import register_atomic


class EventKind(enum.Enum):
    """What kind of distributed event was intercepted."""

    UPDATE = "update"        # a local RDL mutation (add, put, append, ...)
    SYNC_REQ = "sync_req"    # replica ships its sync payload to a peer
    EXEC_SYNC = "exec_sync"  # the peer integrates a previously shipped payload
    READ = "read"            # a query the application issued (select, get, ...)
    CRASH = "crash"          # the replica process dies; volatile state is lost
    RECOVER = "recover"      # the replica restarts from its durable snapshot
    PARTITION = "partition"  # a link between two replicas goes down
    HEAL = "heal"            # a previously partitioned link comes back

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class Event:
    """One replayable distributed event.

    ``replica_id`` is where the event executes.  For sync events,
    ``from_replica``/``to_replica`` identify the channel: a ``SYNC_REQ``
    executes at the sender, an ``EXEC_SYNC`` at the receiver.
    """

    event_id: str
    replica_id: str
    kind: EventKind
    op_name: str
    args: Tuple[Any, ...] = ()
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    from_replica: Optional[str] = None
    to_replica: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind in (EventKind.SYNC_REQ, EventKind.EXEC_SYNC):
            if not self.from_replica or not self.to_replica:
                raise ValueError(f"sync event {self.event_id!r} needs from/to replicas")
        if self.kind in (EventKind.PARTITION, EventKind.HEAL):
            if not self.from_replica or not self.to_replica:
                raise ValueError(
                    f"link fault event {self.event_id!r} needs from/to replicas"
                )

    @property
    def is_sync(self) -> bool:
        return self.kind in (EventKind.SYNC_REQ, EventKind.EXEC_SYNC)

    @property
    def is_fault(self) -> bool:
        return self.kind in (
            EventKind.CRASH,
            EventKind.RECOVER,
            EventKind.PARTITION,
            EventKind.HEAL,
        )

    @property
    def channel(self) -> Optional[Tuple[str, str]]:
        """(sender, receiver) for sync events, None otherwise."""
        if not self.is_sync:
            return None
        return (self.from_replica, self.to_replica)  # type: ignore[return-value]

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)

    def describe(self) -> str:
        if self.kind == EventKind.SYNC_REQ:
            return f"{self.event_id}: {self.from_replica}->{self.to_replica} sync_req"
        if self.kind == EventKind.EXEC_SYNC:
            return f"{self.event_id}: {self.to_replica} exec_sync from {self.from_replica}"
        if self.kind in (EventKind.CRASH, EventKind.RECOVER):
            return f"{self.event_id}: {self.replica_id} {self.kind.value}"
        if self.kind in (EventKind.PARTITION, EventKind.HEAL):
            return (
                f"{self.event_id}: {self.kind.value}"
                f" {self.from_replica}|{self.to_replica}"
            )
        arg_text = ", ".join(repr(arg) for arg in self.args)
        return f"{self.event_id}: {self.replica_id}.{self.op_name}({arg_text})"

    def __repr__(self) -> str:
        return f"Event({self.describe()})"


def make_update(
    event_id: str,
    replica_id: str,
    op_name: str,
    *args: Any,
    **kwargs: Any,
) -> Event:
    """Convenience constructor for a local update event."""
    return Event(
        event_id=event_id,
        replica_id=replica_id,
        kind=EventKind.UPDATE,
        op_name=op_name,
        args=tuple(args),
        kwargs=tuple(sorted(kwargs.items())),
    )


def make_read(
    event_id: str,
    replica_id: str,
    op_name: str,
    *args: Any,
    **kwargs: Any,
) -> Event:
    """Convenience constructor for a read/query event."""
    return Event(
        event_id=event_id,
        replica_id=replica_id,
        kind=EventKind.READ,
        op_name=op_name,
        args=tuple(args),
        kwargs=tuple(sorted(kwargs.items())),
    )


def make_crash(event_id: str, replica_id: str) -> Event:
    """Convenience constructor for a replica-crash fault event."""
    return Event(
        event_id=event_id,
        replica_id=replica_id,
        kind=EventKind.CRASH,
        op_name="crash",
    )


def make_recover(event_id: str, replica_id: str) -> Event:
    """Convenience constructor for a replica-recovery fault event."""
    return Event(
        event_id=event_id,
        replica_id=replica_id,
        kind=EventKind.RECOVER,
        op_name="recover",
    )


def make_partition(event_id: str, replica_a: str, replica_b: str) -> Event:
    """Convenience constructor for a link-partition fault event."""
    return Event(
        event_id=event_id,
        replica_id=replica_a,
        kind=EventKind.PARTITION,
        op_name="partition",
        from_replica=replica_a,
        to_replica=replica_b,
    )


def make_heal(event_id: str, replica_a: str, replica_b: str) -> Event:
    """Convenience constructor for a link-heal fault event."""
    return Event(
        event_id=event_id,
        replica_id=replica_a,
        kind=EventKind.HEAL,
        op_name="heal",
        from_replica=replica_a,
        to_replica=replica_b,
    )


def make_sync_pair(
    req_id: str, exec_id: str, sender: str, receiver: str
) -> Tuple[Event, Event]:
    """A matched (SYNC_REQ, EXEC_SYNC) pair on one channel."""
    req = Event(
        event_id=req_id,
        replica_id=sender,
        kind=EventKind.SYNC_REQ,
        op_name="send_sync",
        from_replica=sender,
        to_replica=receiver,
    )
    execute = Event(
        event_id=exec_id,
        replica_id=receiver,
        kind=EventKind.EXEC_SYNC,
        op_name="execute_sync",
        from_replica=sender,
        to_replica=receiver,
    )
    return req, execute


# Events are frozen and shared across replays already (the recorder emits one
# object per event for the engine to re-invoke); snapshots may share them too.
register_atomic(EventKind, Event)
