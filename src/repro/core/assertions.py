"""ER-pi's test-function library (paper sections 4.4 and 6.2).

Two flavours:

* **per-interleaving assertions** — callables ``outcome -> Optional[str]``
  run after each replay (a violation message, or None).  Builders here cover
  the checks the paper ships for the five RDL misconception families, plus
  generic building blocks for custom tests (``ER-pi.End(custom_fn)``).
* **cross-interleaving checks** — some misconceptions (#1, #5) only show up
  by comparing *different interleavings*: the same workload must leave a
  replica in the same state no matter the order.  These are evaluated over
  the collected outcomes at session end.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.events import Event, EventKind
from repro.core.replay import Assertion, InterleavingOutcome

StateGetter = Callable[[InterleavingOutcome], Any]


def _freeze(value: Any) -> Hashable:
    """A hashable, order-insensitive-for-dicts digest of a state value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(item) for item in value)
    return value


# --------------------------------------------------------------- builders


def assert_convergence(replica_ids: Optional[Sequence[str]] = None) -> Assertion:
    """All replicas end the interleaving in the same observable state.

    Use on workloads that end fully synced; detects divergence bugs like
    Roshi-2 and Yorkie-1.
    """

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        ids = list(replica_ids) if replica_ids else sorted(outcome.states)
        states = [_freeze(outcome.states[rid]) for rid in ids]
        if any(state != states[0] for state in states[1:]):
            return f"replicas {ids} diverged: {outcome.states}"
        return None

    return check


def delivery_knowledge(outcome: InterleavingOutcome) -> Dict[str, set]:
    """Which update events each replica knows about at the end, transitively.

    Exact simulation of full-state sync shipping: a sync request snapshots
    the sender's knowledge at request time; the paired execution merges that
    snapshot into the receiver.  Used to decide whether an interleaving is
    *settled* — every update delivered everywhere — which is the precondition
    under which a correct replicated library must have converged.

    Fault-aware: a sync request issued by a down replica or across a
    partitioned link transfers nothing, an execute at a down replica loses
    the payload, and an update attempted on a down replica never happened.
    What it does NOT model is volatile-state loss inside the crashed replica
    (durability is subject-specific): fault plans whose subjects lose state
    on crash must anchor the recovery *before* the syncs that re-deliver it
    (``recover_before``) so every valid settled interleaving really is
    re-delivered.
    """
    known, bits = _knowledge_masks(outcome.interleaving)
    return {
        rid: {uid for uid, bit in bits.items() if mask & bit}
        for rid, mask in known.items()
    }


def _knowledge_masks(
    interleaving: Sequence[Event],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """:func:`delivery_knowledge` in one pass over int bitmasks.

    Returns replica -> knowledge mask and update id -> its bit (a fresh one
    on first sight).  Each channel keeps a FIFO of in-flight snapshot masks:
    an execution consumes the oldest request on its channel even when it
    delivers nothing (the pairing replica-specific pruning uses), and a
    suppressed send queues an empty snapshot.
    """
    known: Dict[str, int] = {}
    bits: Dict[str, int] = {}
    in_flight: Dict[Tuple[Optional[str], Optional[str]], List[int]] = {}
    down: set = set()
    cut: set = set()  # partitioned links, as frozenset pairs
    for event in interleaving:
        kind = event.kind
        replica = event.replica_id
        if kind is EventKind.UPDATE:
            if replica not in down:
                bit = bits.setdefault(event.event_id, 1 << len(bits))
                known[replica] = known.get(replica, 0) | bit
        elif kind is EventKind.SYNC_REQ:
            link = (event.from_replica, event.to_replica)
            # A dead sender or a partitioned link puts nothing on the wire.
            lost = replica in down or (cut and frozenset(link) in cut)
            in_flight.setdefault(link, []).append(0 if lost else known.get(replica, 0))
        elif kind is EventKind.EXEC_SYNC:
            queue = in_flight.get((event.from_replica, event.to_replica))
            if queue:
                received = queue.pop(0)  # consumed even by a dead node, which loses it
                if replica not in down:
                    known[replica] = known.get(replica, 0) | received
        elif kind is EventKind.CRASH:
            down.add(replica)
        elif kind is EventKind.RECOVER:
            down.discard(replica)
        elif kind is EventKind.PARTITION:
            cut.add(frozenset((event.from_replica, event.to_replica)))
        elif kind is EventKind.HEAL:
            cut.discard(frozenset((event.from_replica, event.to_replica)))
    return known, bits


def is_settled(outcome: InterleavingOutcome, replica_ids: Sequence[str]) -> bool:
    """True iff every *effective* update reached every replica.

    An update attempted on a down replica failed and produced nothing to
    deliver, so it does not count; every update id present in any replica's
    knowledge originated from a successful execution.
    """
    known, _ = _knowledge_masks(outcome.interleaving)
    effective = 0
    for mask in known.values():
        effective |= mask
    return all(known.get(rid, 0) & effective == effective for rid in replica_ids)


def assert_convergence_when_settled(
    replica_ids: Optional[Sequence[str]] = None,
) -> Assertion:
    """Convergence, gated on settledness.

    An arbitrary permutation of the workload can legitimately leave replicas
    diverged simply because a sync was reordered before the update it should
    have carried.  This assertion only fires when the interleaving actually
    delivered every update to every replica (directly or via relay) — under
    which a correct library *must* converge, so any remaining divergence is
    the library's conflict resolution misbehaving.
    """

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        ids = list(replica_ids) if replica_ids else sorted(outcome.states)
        if not is_settled(outcome, ids):
            return None  # not every update was delivered: vacuous
        states = [_freeze(outcome.states[rid]) for rid in ids]
        if any(state != states[0] for state in states[1:]):
            return (
                f"replicas {ids} diverged although every update was "
                f"delivered everywhere: {outcome.states}"
            )
        return None

    return check


def assert_state_equals(replica_id: str, expected: Any) -> Assertion:
    """One replica's final state must equal ``expected`` exactly."""

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        actual = outcome.states.get(replica_id)
        if _freeze(actual) != _freeze(expected):
            return f"{replica_id} ended as {actual!r}, expected {expected!r}"
        return None

    return check


def assert_read_equals(event_id: str, expected: Any) -> Assertion:
    """A recorded READ event must observe ``expected`` in every interleaving.

    This is the motivating example's invariant: the transmitted set of town
    problems must contain only the pothole.
    """

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        reads = outcome.reads()
        if event_id not in reads:
            return f"read event {event_id!r} did not execute"
        actual = reads[event_id]
        if _freeze(actual) != _freeze(expected):
            return f"read {event_id!r} observed {actual!r}, expected {expected!r}"
        return None

    return check


def assert_no_duplicates(getter: StateGetter, label: str = "collection") -> Assertion:
    """A list extracted from the outcome must not contain duplicates
    (misconception #3: moving list items must not duplicate them)."""

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        items = getter(outcome)
        counts = Counter(_freeze(item) for item in items)
        dupes = [item for item, count in counts.items() if count > 1]
        if dupes:
            return f"{label} contains duplicates: {dupes}"
        return None

    return check


def assert_unique_ids(getter: StateGetter, label: str = "ids") -> Assertion:
    """Extracted identifiers must be globally unique (misconception #4:
    sequential IDs clash under concurrent creation)."""

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        ids = list(getter(outcome))
        counts = Counter(ids)
        clashes = [item for item, count in counts.items() if count > 1]
        if clashes:
            return f"{label} clash across replicas: {clashes}"
        return None

    return check


def assert_no_failed_ops() -> Assertion:
    """No event may fail under any ordering (surfaces RDL errors such as
    OrbitDB's 'could not append entry' / 'repo folder locked')."""

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        failed = outcome.failed_ops
        if failed:
            first = failed[0]
            return (
                f"{len(failed)} op(s) failed; first: "
                f"{first.event.describe()} -> {first.error}"
            )
        return None

    return check


def assert_no_failed_op_matching(substring: str) -> Assertion:
    """No op may fail with an error containing ``substring``.

    Scoped version of :func:`assert_no_failed_ops`: replaying a permuted
    workload can legitimately fail ops whose causal prerequisites haven't
    executed yet (e.g. appending before a grant arrived) — those are vacuous.
    Only the *bug's* signature error counts as a violation.
    """

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        for res in outcome.failed_ops:
            if res.error and substring in res.error:
                return f"{res.event.describe()} failed: {res.error}"
        return None

    return check


def assert_predicate(
    predicate: Callable[[InterleavingOutcome], bool], message: str
) -> Assertion:
    """Wrap an arbitrary custom predicate as an assertion."""

    def check(outcome: InterleavingOutcome) -> Optional[str]:
        return None if predicate(outcome) else message

    return check


class FirstValueStability:
    """A stateful per-interleaving assertion: every interleaving must produce
    the same extracted value as the *first* replayed one.

    This is how an explorer searches for order-sensitivity bugs (Roshi-3's
    select order, misconception #2): the first interleaving pins the
    reference value; the first interleaving that disagrees is the
    reproduction.  Call :meth:`reset` between exploration runs.
    """

    def __init__(self, getter: StateGetter, label: str = "value") -> None:
        self._getter = getter
        self._label = label
        self._reference: Optional[Hashable] = None
        self._has_reference = False

    def reset(self) -> None:
        self._reference = None
        self._has_reference = False

    def __call__(self, outcome: InterleavingOutcome) -> Optional[str]:
        value = _freeze(self._getter(outcome))
        if not self._has_reference:
            self._reference = value
            self._has_reference = True
            return None
        if value != self._reference:
            return (
                f"{self._label} differs across interleavings: "
                f"{value!r} != first-seen {self._reference!r}"
            )
        return None


# ------------------------------------------------- cross-interleaving checks


class CrossInterleavingCheck:
    """A property evaluated over ALL collected outcomes at session end."""

    name = "cross_check"

    def evaluate(self, outcomes: Sequence[InterleavingOutcome]) -> Optional[str]:
        raise NotImplementedError


class StableStateAcrossInterleavings(CrossInterleavingCheck):
    """One replica must reach the same final state in every interleaving.

    Detects misconceptions #1 (causal delivery assumed) and #5 (states
    resolve without coordination): if outcomes disagree, the replica's state
    depends on delivery order — the app needed the conflict-resolution calls
    it skipped.
    """

    def __init__(self, replica_id: str) -> None:
        self.name = f"stable_state[{replica_id}]"
        self.replica_id = replica_id

    def evaluate(self, outcomes: Sequence[InterleavingOutcome]) -> Optional[str]:
        states = {
            _freeze(outcome.states.get(self.replica_id)) for outcome in outcomes
        }
        if len(states) > 1:
            return (
                f"replica {self.replica_id!r} reached {len(states)} distinct "
                f"final states across {len(outcomes)} interleavings"
            )
        return None


class StableReadAcrossInterleavings(CrossInterleavingCheck):
    """A READ event must observe the same value in every interleaving
    (misconception #2: list element order assumed stable)."""

    def __init__(self, event_id: str) -> None:
        self.name = f"stable_read[{event_id}]"
        self.event_id = event_id

    def evaluate(self, outcomes: Sequence[InterleavingOutcome]) -> Optional[str]:
        observed = set()
        for outcome in outcomes:
            reads = outcome.reads()
            if self.event_id in reads:
                observed.add(_freeze(reads[self.event_id]))
        if len(observed) > 1:
            return (
                f"read {self.event_id!r} observed {len(observed)} distinct values "
                f"across {len(outcomes)} interleavings"
            )
        return None
