"""Algorithm 3 — Event-Independence Pruning.

Developers who have watched early interleavings replay can declare a set of
events *mutually independent* (e.g. list writes to disjoint indices, paper
Figure 5).  Interleavings that differ only in the relative order of those
events — with no interfering event between the first and last of them — are
equivalent, so ER-pi canonicalises the independent events' order and keeps
one representative per class.

Interference is conservative (:func:`default_interference`): an in-between
event interferes if it executes at the same replica as any independent
event or is a sync event (sync can carry any update's effect across
replicas).
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable

from repro.core.errors import ConstraintError
from repro.core.events import Event
from repro.core.interleavings import Interleaving
from repro.core.pruning.base import Pruner


def default_interference(event: Event, independent_replicas: FrozenSet[str]) -> bool:
    """Conservative default: same-replica events, syncs and faults interfere."""
    if event.is_sync:
        return True
    if event.is_fault:
        # A crash/recover (or partition window boundary) is never
        # exchangeable with anything: it erases volatile state or rewires
        # delivery, so orders across it are not equivalent.
        return True
    return event.replica_id in independent_replicas


class EventIndependencePruner(Pruner):
    """Canonical key: the interleaving with its independent events sorted.

    If the span between the first and last independent event contains an
    interfering event, the interleaving is its own class (no merge) — the
    guard on line 15 of Algorithm 3.
    """

    name = "event_independence"

    def __init__(self, independent_event_ids: Iterable[str]) -> None:
        super().__init__()
        self.independent_ids = frozenset(independent_event_ids)
        if len(self.independent_ids) < 2:
            raise ConstraintError("independence needs at least two events")

    def key(self, interleaving: Interleaving) -> Hashable:
        # The two key kinds are namespaced: a non-exchangeable interleaving's
        # literal id sequence ("raw") can coincide with the *canonicalised*
        # sequence of an exchangeable class ("canon") — e.g. when a pruner
        # built from a constraints file is applied across recordings that
        # reuse the e1..eN id space with different event payloads.  An
        # untagged collision would merge a non-exchangeable interleaving into
        # the exchangeable class and silently skip a violating schedule.
        positions = [
            index
            for index, event in enumerate(interleaving)
            if event.event_id in self.independent_ids
        ]
        if len(positions) < 2:
            return ("raw", tuple(event.event_id for event in interleaving))
        if any(interleaving[index].is_fault for index in positions):
            # Fault events are never exchangeable, whatever the developer's
            # independence declaration claims: reordering a crash against
            # any same-replica event changes which state survives.
            return ("raw", tuple(event.event_id for event in interleaving))
        independent_replicas = frozenset(
            interleaving[index].replica_id for index in positions
        )
        first, last = positions[0], positions[-1]
        for index in range(first + 1, last):
            event = interleaving[index]
            if event.event_id in self.independent_ids:
                continue
            if default_interference(event, independent_replicas):
                # An interfering event sits inside the span: orders are not
                # exchangeable here, keep the interleaving as its own class.
                return ("raw", tuple(event.event_id for event in interleaving))
        # Canonicalise: sort the independent events into their positions.
        ids = [event.event_id for event in interleaving]
        sorted_independent = sorted(ids[index] for index in positions)
        for slot, index in enumerate(positions):
            ids[index] = sorted_independent[slot]
        return ("canon", tuple(ids))
