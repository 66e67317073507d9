"""Semantic pruning: dynamic partial-order reduction (DPOR).

The four paper pruners are purely *syntactic* — they reason over event ids
and declared constraints.  :class:`DPORPruner` prunes on what events can
*touch*: it skips permutations that only reorder independent events, using
a conservative read/write footprint model over replicas and sync channels.
Its class key records, for every event, which conflicting events precede
it, as interned bitmasks; that partitions candidates exactly as the trace
normal form (the lexicographically minimal linear extension of the
happens-before order) does.

The pruner is sound-or-off: it binds to an engine only when replay is a
pure function of the event sequence (a checkpoint taken, the sequential
executor; the cluster's channels are FIFO and lossless by construction),
and fault events carry a barrier footprint so it never reorders across
them.  Its soundness rests on the static footprints being
conservative; the differential sanitizer samples its classes like any
other pruner's.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import Event, EventKind
from repro.core.interleavings import Interleaving
from repro.core.pruning.base import Pruner

__all__ = [
    "DPORPruner",
    "event_footprint",
    "footprints_conflict",
    "trace_normal_form",
]


# ------------------------------------------------------------- footprints

#: A footprint is a set of (location, mode) pairs; mode is "r", "w" or the
#: barrier "b" (conflicts with everything — fault events get one).
Footprint = Tuple[Tuple[str, str], ...]

_BARRIER: Footprint = (("*", "b"),)


def event_footprint(event: Event) -> Footprint:
    """The static, conservative read/write footprint of one event.

    Conservative choices (all deliberately write-heavy, so independence is
    only ever *under*-claimed):

    * local ops — including READs — write their replica: subjects share a
      per-replica clock across structures, and Roshi READs read-repair;
    * ``SYNC_REQ`` writes the sender (some subjects advance durable
      bookkeeping when they ship a payload) and the channel queue;
    * ``EXEC_SYNC`` writes the receiver and the channel queue;
    * fault events are barriers — never exchangeable with anything.
    """
    if event.is_fault:
        return _BARRIER
    kind = event.kind
    if kind is EventKind.SYNC_REQ:
        return (
            ("replica:" + str(event.from_replica), "w"),
            (f"chan:{event.from_replica}>{event.to_replica}", "w"),
        )
    if kind is EventKind.EXEC_SYNC:
        return (
            ("replica:" + str(event.to_replica), "w"),
            (f"chan:{event.from_replica}>{event.to_replica}", "w"),
        )
    return (("replica:" + event.replica_id, "w"),)


def footprints_conflict(left: Footprint, right: Footprint) -> bool:
    """True when the two events do not commute under the footprint model."""
    left_locs = set()
    for loc, mode in left:
        if mode == "b":
            return True
        left_locs.add(loc)
    for loc, mode in right:
        if mode == "b":
            return True
        if loc in left_locs:
            return True
    return False


def trace_normal_form(interleaving: Sequence[Event]) -> Tuple[str, ...]:
    """The canonical representative of the interleaving's Mazurkiewicz trace.

    Builds the happens-before order induced by footprint conflicts between
    positions and returns its lexicographically minimal linear extension
    (greedy topological sort picking the smallest eligible event id).  Two
    interleavings that differ only by swapping adjacent independent events
    have equal normal forms.

    This is the readable reference for :class:`DPORPruner`, whose O(n)
    predecessor-mask key partitions interleavings exactly as this
    O(n^2) normal form does (the tests compare the two).
    """
    events = list(interleaving)
    count = len(events)
    fps = [event_footprint(event) for event in events]
    indegree = [0] * count
    successors: List[List[int]] = [[] for _ in range(count)]
    for later in range(count):
        for earlier in range(later):
            if footprints_conflict(fps[earlier], fps[later]):
                successors[earlier].append(later)
                indegree[later] += 1
    ready = sorted(
        (events[index].event_id, index)
        for index in range(count)
        if indegree[index] == 0
    )
    out: List[str] = []
    while ready:
        event_id, index = ready.pop(0)
        out.append(event_id)
        changed = False
        for succ in successors[index]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append((events[succ].event_id, succ))
                changed = True
        if changed:
            ready.sort()
    return tuple(out)


class DPORPruner(Pruner):
    """Canonical key: each event's set of conflicting predecessors.

    Two orders of the same events are trace-equivalent exactly when they
    order every conflicting pair alike, i.e. when every event is preceded
    by the same conflicting events.  Event ids are interned on first sight
    to a bit position together with a static conflict mask (from
    :func:`event_footprint` / :func:`footprints_conflict`), so the key is
    one O(n) pass of mask operations packed into a single int.  It
    partitions interleavings exactly as :func:`trace_normal_form` does.

    Sound-or-off: :meth:`bind` only arms the pruner when every bound engine
    supports semantic reduction (pure deterministic replay).  Under
    ``--sanitize`` its classes are sampled and differentially replayed, so
    a footprint the model gets wrong surfaces as a divergence (exit 2).
    """

    name = "dpor"

    #: At most this many pruned interleavings are kept for the Datalog
    #: ``footprint`` relation.
    PRUNE_LOG_CAP = 512

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False
        self.disabled_reason: Optional[str] = "not bound to an engine"
        #: Event id -> bit position, assigned in first-sight order.
        self._bits: Dict[str, int] = {}
        #: Per bit: the mask of interned events it conflicts with, and its
        #: static footprint.
        self._masks: List[int] = []
        self._footprints: List[Footprint] = []
        #: ``"a|b|c"`` keys of pruned interleavings, for Datalog export.
        self.prune_log: List[str] = []

    def bind(
        self,
        engines: Sequence[Any],
        assertions: Sequence[Any] = (),
        meter: Optional[Any] = None,
    ) -> None:
        for engine in engines:
            reason = engine.semantic_unsupported_reason()
            if reason is not None:
                self.enabled = False
                self.disabled_reason = reason
                return
        self.enabled = True
        self.disabled_reason = None

    def _intern(self, event: Event) -> int:
        """Give ``event`` the next bit and link its conflicts both ways."""
        bit = len(self._masks)
        fp = event_footprint(event)
        mask = 0
        for other, other_fp in enumerate(self._footprints):
            if footprints_conflict(other_fp, fp):
                mask |= 1 << other
                self._masks[other] |= 1 << bit
        self._bits[event.event_id] = bit
        self._masks.append(mask)
        self._footprints.append(fp)
        return bit

    def key(self, interleaving: Interleaving) -> Hashable:
        """``seen`` plus every event's conflicting-predecessor mask.

        With ``w = seen.bit_length()``, the mask of the event at bit ``b``
        sits at bit offset ``w * (b + 1)`` and a marker bit at
        ``w * (w + 1)`` fixes ``w``, so distinct (event set, masks) pairs
        never share a key.
        """
        bits = self._bits
        masks = self._masks
        seen = 0
        fields = []
        for event in interleaving:
            bit = bits.get(event.event_id)
            if bit is None:
                bit = self._intern(event)
            fields.append((bit, masks[bit] & seen))
            seen |= 1 << bit
        width = seen.bit_length()
        key = seen | 1 << (width * (width + 1))
        for bit, preds in fields:
            if preds:
                key |= preds << (width * (bit + 1))
        return key

    def is_redundant(self, interleaving: Interleaving) -> bool:
        if not self.enabled:
            return False
        redundant = super().is_redundant(interleaving)
        if redundant and len(self.prune_log) < self.PRUNE_LOG_CAP:
            self.prune_log.append(
                "|".join(event.event_id for event in interleaving)
            )
        return redundant

    def reset(self) -> None:
        super().reset()
        self._bits.clear()
        self._masks.clear()
        self._footprints.clear()
        self.prune_log = []
