"""A simulated point-to-point message transport between replicas.

Deterministic by construction: all nondeterminism comes from the seeded
:class:`~repro.net.conditions.NetworkConditions`, so a given seed always
produces the same delivery schedule — a requirement for replaying
interleavings exactly.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.conditions import NetworkConditions


class TransportError(Exception):
    """Raised on misuse of the transport (unknown channel, empty delivery)."""


@dataclass(frozen=True, slots=True)
class Message:
    """One in-flight sync message."""

    msg_id: int
    sender: str
    receiver: str
    payload: Any
    sent_at_tick: int


class Transport:
    """Per-channel message queues with condition-driven delivery.

    ``send`` enqueues (or drops); ``deliver_next`` pops one deliverable
    message for a receiver and returns it; ``tick`` advances simulated time
    for latency handling.
    """

    def __init__(self, conditions: Optional[NetworkConditions] = None) -> None:
        self.conditions = conditions or NetworkConditions()
        self._queues: Dict[Tuple[str, str], List[Message]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._tick = 0
        self.sent_count = 0
        self.dropped_count = 0
        self.delivered_count = 0
        self.duplicated_count = 0
        #: Why the most recent ``send`` ended: "sent", "partition" or "drop".
        self.last_send_outcome: Optional[str] = None

    @property
    def tick_now(self) -> int:
        return self._tick

    def tick(self, ticks: int = 1) -> None:
        if ticks < 0:
            raise ValueError("cannot tick backwards")
        self._tick += ticks

    def send(self, sender: str, receiver: str, payload: Any) -> Optional[Message]:
        """Enqueue a message; returns it, or None if dropped/partitioned."""
        if self.conditions.is_partitioned(sender, receiver):
            self.dropped_count += 1
            self.last_send_outcome = "partition"
            return None
        if self.conditions.should_drop():
            self.dropped_count += 1
            self.last_send_outcome = "drop"
            return None
        self.last_send_outcome = "sent"
        message = Message(next(self._ids), sender, receiver, payload, self._tick)
        self._queues[(sender, receiver)].append(message)
        self.sent_count += 1
        if self.conditions.should_duplicate():
            duplicate = Message(
                next(self._ids), sender, receiver, payload, self._tick
            )
            self._queues[(sender, receiver)].append(duplicate)
            self.duplicated_count += 1
        return message

    def pending(self, sender: str, receiver: str) -> int:
        return len(self._queues[(sender, receiver)])

    def pending_for(self, receiver: str) -> int:
        return sum(
            len(queue)
            for (snd, rcv), queue in self._queues.items()
            if rcv == receiver
        )

    def deliver_next(self, sender: str, receiver: str) -> Message:
        """Pop the next deliverable message on one channel."""
        queue = self._queues[(sender, receiver)]
        conditions = self.conditions
        if conditions.latency_ticks == 0:
            # Zero latency: every queued message is deliverable.
            if not queue:
                raise TransportError(
                    f"no deliverable message on channel {sender!r}->{receiver!r}"
                )
            message = queue.pop(conditions.pick_index(len(queue)))
            self.delivered_count += 1
            return message
        deliverable = [
            index
            for index, message in enumerate(queue)
            if self._tick - message.sent_at_tick >= conditions.latency_ticks
        ]
        if not deliverable:
            raise TransportError(
                f"no deliverable message on channel {sender!r}->{receiver!r}"
            )
        pick = conditions.pick_index(len(deliverable))
        message = queue.pop(deliverable[pick])
        self.delivered_count += 1
        return message

    def deliver_all(self, sender: str, receiver: str) -> List[Message]:
        out: List[Message] = []
        while self.pending(sender, receiver):
            try:
                out.append(self.deliver_next(sender, receiver))
            except TransportError:
                break  # remaining messages still within latency window
        return out

    def drain(self) -> List[Message]:
        """Deliver everything deliverable, any channel, deterministic order."""
        out: List[Message] = []
        for (sender, receiver) in sorted(self._queues):
            out.extend(self.deliver_all(sender, receiver))
        return out

    def reset(self) -> None:
        """Return to a just-constructed state (message ids stay monotonic).

        Clears queues and simulated time, zeroes the delivery counters, and
        re-derives the conditions' random streams from their seed — without
        the reseed, consecutive replays would continue mid-stream draws and
        the same interleaving could see different drop/duplicate/reorder
        decisions on each replay.
        """
        self._queues.clear()
        self._tick = 0
        self.sent_count = 0
        self.dropped_count = 0
        self.delivered_count = 0
        self.duplicated_count = 0
        self.last_send_outcome = None
        self.conditions.reseed(self.conditions.seed)

    def stats(self) -> Tuple[int, int, int, int]:
        """(sent, dropped, delivered, duplicated) — monotonic counters."""
        return (
            self.sent_count,
            self.dropped_count,
            self.delivered_count,
            self.duplicated_count,
        )
