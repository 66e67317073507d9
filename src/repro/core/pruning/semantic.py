"""Semantic pruning: state-hash memoization and dynamic partial-order
reduction (the layer ROADMAP item 1 calls "semantic pruning").

The four paper pruners are purely *syntactic* — they reason over event ids
and declared constraints.  This module prunes on what replays actually
*compute*:

* :class:`StateMemoPruner` memoizes, per replay, the canonical digest of
  the cluster state at every event boundary (``Cluster.state_digest`` /
  :mod:`repro.statehash`).  A later candidate whose literal prefix reaches
  an already-seen digest and whose remaining suffix was already replayed
  from that digest short-circuits: its outcome is *stitched* from the
  prefix donor's results plus the memoized suffix results and final
  states, the run's assertions are re-evaluated on the stitch, and the
  candidate is pruned as ``pruned.state_memo`` — unless the stitched
  verdict is a violation, in which case it is **not** pruned (it replays
  normally so the violation is reported exactly like any other).

* :class:`DPORPruner` skips permutations that only reorder independent
  events, using a conservative read/write footprint model over replicas
  and sync channels.  Its class key records, for every event, which
  conflicting events precede it, as interned bitmasks; that partitions
  candidates exactly as the trace normal form (the lexicographically
  minimal linear extension of the happens-before order) does.  The replay
  engine's digest-capture path reports each event's *observed* write set
  back through :meth:`DPORPruner.observe_write_set`; an observation
  outside the static model disables the pruner (sound-or-off).

Both pruners are sound-or-off like the prefix cache: they bind to an
engine only when replay is a pure function of the event sequence
(sequential executor, deterministic transport) and every subject exposes
``canonical_state()``; fault-bearing interleavings are never memoized or
memo-pruned (a CRASH/RECOVER/PARTITION boundary invalidates state reuse),
and fault events carry a barrier footprint so DPOR never reorders across
them.  The differential sanitizer samples both pruners' classes like any
other pruner's.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import Event, EventKind
from repro.core.interleavings import Interleaving
from repro.core.pruning.base import Pruner

__all__ = [
    "DPORPruner",
    "StateMemoPruner",
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
    * ``SYNC_REQ`` writes the sender (``mutates_on_push`` subjects advance
      durable bookkeeping; payload snapshotting reads everything else) and
      the channel queue;
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
    supports semantic reduction (pure deterministic replay), and an
    observed write set that escapes the static footprint model —
    reported by the engine's digest-capture replays — disarms it for the
    rest of the run (the already-sampled classes stay under sanitizer
    audit, so a model violation surfaces as a divergence, exit code 2).
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
            if not engine.semantic_supported(require_digest=False):
                self.enabled = False
                self.disabled_reason = engine.semantic_unsupported_reason(
                    require_digest=False
                )
                return
            engine.footprint_observer = self
        self.enabled = True
        self.disabled_reason = None

    def observe_write_set(self, event: Event, written_replicas: Sequence[str]) -> None:
        """Validate one event's observed writes against the static model."""
        if not self.enabled:
            return
        bit = self._bits.get(event.event_id)
        fp = event_footprint(event) if bit is None else self._footprints[bit]
        allowed = {
            loc[len("replica:"):] for loc, mode in fp if loc.startswith("replica:")
        }
        for rid in written_replicas:
            if rid not in allowed:
                self.enabled = False
                self.disabled_reason = (
                    f"event {event.event_id!r} wrote replica {rid!r} "
                    "outside its footprint model"
                )
                return

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


# ------------------------------------------------------------ state memo


class StateMemoPruner(Pruner):
    """Digest->verdict memoization over canonical cluster state hashes.

    Fed by the replay engine's digest-capture path (every memo-eligible
    replay records the cluster digest at each event boundary).  Two tables:

    * a *prefix index* — literal event-id prefix -> (digest reached, the
      donor's event results for that prefix);
    * a *memo table* — (digest, suffix event ids) -> (the suffix's event
      results, the final states they produced).

    A candidate is pruned when some split point finds both: its literal
    prefix in the index (so its prefix results and reached digest are
    known) and its suffix in the memo under that digest (so its suffix
    results and final states are known).  The stitched outcome is exact
    under the engine's determinism assumption — the same assumption the
    prefix cache makes, and the one the differential sanitizer audits.

    Fault-bearing candidates are never fed or pruned: a crash/recover or
    partition boundary invalidates state reuse outright (volatile-state
    loss is keyed off *host* identity, not hashed state).
    """

    name = "state_memo"

    #: Meter category for retained memo entries.
    CATEGORY = "state_memo"
    #: Rough per-entry footprint charged to the meter.
    ENTRY_COST = 96
    #: At most this many (digest, interleaving-id) pairs are kept for the
    #: Datalog ``memo`` relation.
    MEMO_LOG_CAP = 2048

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False
        self.disabled_reason: Optional[str] = "not bound to an engine"
        self.frozen = False  # out of meter budget: stop adding, keep pruning
        self.assertions: Sequence[Any] = ()
        self.meter: Optional[Any] = None
        self.hits = 0
        self.stitched_violations = 0
        self.replays_recorded = 0
        #: (digest, pruned interleaving id) pairs for Datalog export.
        self.memo_log: List[Tuple[str, str]] = []
        self._lock = threading.Lock()
        self._prefix_index: Dict[Tuple[str, ...], Tuple[str, Tuple[Any, ...]]] = {}
        self._memo: Dict[Tuple[str, Tuple[str, ...]], Tuple[Tuple[Any, ...], Any]] = {}

    # ------------------------------------------------------------- binding

    def bind(
        self,
        engines: Sequence[Any],
        assertions: Sequence[Any] = (),
        meter: Optional[Any] = None,
    ) -> None:
        """Arm the pruner against ``engines`` (sound-or-off).

        Every engine must support semantic replay *including* a canonical
        state digest; otherwise the pruner stays disabled and records why.
        """
        for engine in engines:
            if not engine.semantic_supported(require_digest=True):
                self.enabled = False
                self.disabled_reason = engine.semantic_unsupported_reason(
                    require_digest=True
                )
                return
        for engine in engines:
            engine.state_memo = self
        self.assertions = tuple(assertions)
        self.meter = meter
        self.enabled = True
        self.disabled_reason = None

    # ------------------------------------------------------------- feeding

    def record_replay(
        self,
        interleaving: Sequence[Event],
        outcome: Any,
        digests: Sequence[str],
    ) -> None:
        """Feed one digest-captured replay: ``digests[i]`` is the cluster
        digest after the first ``i`` events (``digests[0]`` = checkpoint)."""
        if self.frozen:
            return
        ids = tuple(event.event_id for event in interleaving)
        count = len(ids)
        results = tuple(outcome.event_results)
        states = outcome.states
        sampler = self.sampler
        with self._lock:
            self.replays_recorded += 1
            for split in range(1, count):
                prefix = ids[:split]
                if prefix not in self._prefix_index:
                    if not self._charge():
                        return
                    self._prefix_index[prefix] = (digests[split], results[:split])
                memo_key = (digests[split], ids[split:])
                if memo_key not in self._memo:
                    if not self._charge():
                        return
                    self._memo[memo_key] = (results[split:], states)
                    if sampler is not None:
                        sampler.saw_representative(
                            ("memo",) + memo_key, tuple(interleaving)
                        )

    def _charge(self) -> bool:
        """Charge one entry to the meter; freeze (loudly, via the stats the
        explorer exports) instead of crashing when the budget is gone."""
        meter = self.meter
        if meter is None:
            return True
        remaining = meter.remaining_bytes
        if remaining is not None and remaining < self.ENTRY_COST:
            self.frozen = True
            return False
        meter.charge(self.CATEGORY, self.ENTRY_COST)
        return True

    # ------------------------------------------------------------- pruning

    def key(self, interleaving: Interleaving) -> Hashable:  # pragma: no cover
        # Unused: the memo verdict is not a pure key function; is_redundant
        # is overridden wholesale.
        return ("memo-raw", tuple(event.event_id for event in interleaving))

    def is_redundant(self, interleaving: Interleaving) -> bool:
        if not self.enabled:
            return False
        events = tuple(interleaving)
        if any(event.is_fault for event in events):
            return False
        self.stats.examined += 1
        self.last_key = None
        ids = tuple(event.event_id for event in events)
        with self._lock:
            stitched = self._find_stitch(events, ids)
        if stitched is None:
            return False
        class_key, outcome, digest = stitched
        for assertion in self.assertions:
            if assertion(outcome) is not None:
                # The memoized verdict is a violation: do NOT prune — the
                # candidate replays normally so the hunt reports it with a
                # real outcome (and the memo claim gets checked for free).
                self.stitched_violations += 1
                return False
        self.stats.pruned += 1
        self.hits += 1
        self.last_key = class_key
        if self.sampler is not None:
            self.sampler.saw_skipped(class_key, events)
        if len(self.memo_log) < self.MEMO_LOG_CAP:
            self.memo_log.append((digest, "|".join(ids)))
        return True

    def _find_stitch(
        self, events: Tuple[Event, ...], ids: Tuple[str, ...]
    ) -> Optional[Tuple[Hashable, Any, str]]:
        """Longest-prefix-first search for a (prefix donor, memo suffix)
        pair; returns (class key, stitched outcome, digest) or None."""
        # Imported here: pruning.base must stay importable without the
        # replay engine (which imports interleavings -> pruning would cycle).
        from repro.core.replay import InterleavingOutcome

        count = len(ids)
        prefix_index = self._prefix_index
        memo = self._memo
        for split in range(count - 1, 0, -1):
            entry = prefix_index.get(ids[:split])
            if entry is None:
                continue
            digest, prefix_results = entry
            memo_entry = memo.get((digest, ids[split:]))
            if memo_entry is None:
                continue
            suffix_results, states = memo_entry
            outcome = InterleavingOutcome(
                interleaving=events,
                event_results=prefix_results + suffix_results,
                states=states,
                violations=[],
                duration_s=0.0,
            )
            class_key = ("memo", digest, ids[split:])
            return class_key, outcome, digest
        return None

    def reset(self) -> None:
        super().reset()
        self.frozen = False
        self.hits = 0
        self.stitched_violations = 0
        self.replays_recorded = 0
        self.memo_log = []
        with self._lock:
            self._prefix_index.clear()
            self._memo.clear()

    # --------------------------------------------------------------- stats

    @property
    def entries(self) -> int:
        return len(self._prefix_index) + len(self._memo)
