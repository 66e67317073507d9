"""The replay engine: execute interleavings against checkpointed replicas.

For each interleaving (paper section 4.3) the engine:

1. restores the cluster to the checkpoint (replica states, every host up,
   the partitions, empty channels), so interleavings cannot affect each
   other;
2. re-invokes the recorded events in the interleaving's order, catching RDL
   errors — a failing op is *data* (it feeds failed-ops pruning), not an
   engine failure;
3. runs the registered per-interleaving assertions;
4. reports an :class:`InterleavingOutcome`.

:class:`SequentialExecutor` enforces the event order: events run in-line,
in interleaving order.  The paper orders each replayed interleaving with a
Redis mutex because its replicas run on separate machines (section 4.3);
here every replica lives in one process, so in-line sequential replay is
that total order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReplayError
from repro.core.events import Event, EventKind
from repro.core.interleavings import Interleaving
from repro.crdt.base import CRDTError
from repro.faults.errors import ReplayTimeout
from repro.net.cluster import Cluster, ClusterCheckpoint
from repro.rdl.base import RDLError


@dataclass(slots=True)
class EventResult:
    """What happened when one event replayed."""

    event: Event
    lamport: int
    ok: bool
    result: Any = None
    error: Optional[str] = None


class InterleavingOutcome:
    """The full result of replaying one interleaving.

    ``states`` maps each replica id to its ``value()`` after the replay.
    An outcome the engine hands out reads them from its cluster on first
    access and keeps them.  The cluster's next restore (the engine's next
    replay, or :meth:`ReplayEngine.restore`) closes the outcome: an unread
    ``states`` then raises :class:`ReplayError` rather than return another
    replay's states, so a caller that keeps an outcome reads it first.  A
    pickled outcome carries its states, never the cluster.
    """

    __slots__ = (
        "interleaving", "event_results", "violations", "duration_s",
        "_states", "_cluster", "_restores",
    )

    def __init__(
        self,
        interleaving: Interleaving,
        event_results: List[EventResult],
        states: Optional[Dict[str, Any]],
        violations: List[str],
        duration_s: float,
    ) -> None:
        self.interleaving = interleaving
        self.event_results = event_results
        self.violations = violations
        self.duration_s = duration_s
        self._states = states
        self._cluster: Optional[Cluster] = None
        self._restores = 0

    @property
    def states(self) -> Dict[str, Any]:
        if self._states is None:
            self.keep_states()
        return self._states

    def keep_states(self) -> "InterleavingOutcome":
        """Read the states now, so this outcome can be kept past its
        cluster's next restore."""
        if self._states is None:
            cluster = self._cluster
            if cluster is None or cluster.restores != self._restores:
                raise ReplayError(
                    "the outcome's states were not read before its cluster "
                    "was restored for another replay"
                )
            self._states = cluster.states()
            self._cluster = None
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        fields = (
            self.interleaving, self.event_results, self.states,
            self.violations, self.duration_s,
        )
        return (InterleavingOutcome, fields)

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    @property
    def failed_ops(self) -> List[EventResult]:
        return [res for res in self.event_results if not res.ok]

    def reads(self) -> Dict[str, Any]:
        """event_id -> result for every READ event (what the app observed)."""
        return {
            res.event.event_id: res.result
            for res in self.event_results
            if res.event.kind == EventKind.READ
        }


#: An assertion takes the outcome-so-far (results + final states) and returns
#: a violation message, or None when satisfied.
Assertion = Callable[["InterleavingOutcome"], Optional[str]]


#: Compiled steps an executor keeps; past it the table starts over, so a
#: caller that builds fresh events for every replay cannot grow it forever.
_STEP_TABLE_LIMIT = 4096


class SequentialExecutor:
    """Run the events of an interleaving in-line, in order.

    Each event is compiled once per (executor, cluster) into a step (see
    :func:`_compile`), so a replay skips the per-event dispatch.

    ``timeout_s`` arms a per-replay wall-clock watchdog: when a replay's
    elapsed time exceeds it, :class:`ReplayTimeout` is raised between
    events (cooperative — a single wedged subject call cannot be
    interrupted, but a slow or looping replay is cut off at the next event
    boundary and quarantined by the explorer).
    """

    def __init__(self, timeout_s: Optional[float] = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.timeout_s = timeout_s
        self._cluster: Optional[Cluster] = None
        #: id(event) -> (event, step) for the cluster last run on; holding
        #: the event keeps its id from being reused while the entry lives.
        self._steps: Dict[int, Tuple[Event, Callable[[], Any]]] = {}

    def run(self, cluster: Cluster, interleaving: Interleaving) -> List[EventResult]:
        if cluster is not self._cluster:
            self._cluster, self._steps = cluster, {}
        steps = self._steps
        timeout = self.timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        results: List[EventResult] = []
        # Lamport stamps along a total order are just 1-based positions
        # (paper section 4.2).
        for lamport, event in enumerate(interleaving, 1):
            if deadline is not None and time.monotonic() > deadline:
                raise ReplayTimeout(
                    f"replay exceeded the {timeout}s watchdog after "
                    f"{lamport - 1} of {len(interleaving)} events"
                )
            entry = steps.get(id(event))
            try:
                if entry is None:
                    if len(steps) >= _STEP_TABLE_LIMIT:
                        steps.clear()
                    entry = steps[id(event)] = (event, _compile(cluster, event))
                results.append(EventResult(event, lamport, True, entry[1]()))
            except _OP_FAILURES as exc:
                error = f"{type(exc).__name__}: {exc}"
                results.append(EventResult(event, lamport, False, error=error))
        return results


#: What a subject raises when it rejects an op under this ordering: the kind
#: of behaviour ER-pi exists to surface, so the replay records the op as
#: failed and goes on.
_OP_FAILURES = (RDLError, CRDTError, KeyError, IndexError, ValueError)


def _compile(cluster: Cluster, event: Event) -> Callable[[], Any]:
    """One event as a zero-argument call against ``cluster``.

    Resolved once: the kind's branch, the host, the channel, ``args`` and
    the kwargs dict.  Looked up at call time: the ``Cluster`` method and the
    subject's op, so one patched on the class or replaced on the instance
    later is the one called.  An unknown replica raises ``ClusterError``.
    """
    kind = event.kind
    sender, receiver = event.from_replica, event.to_replica
    if kind is EventKind.SYNC_REQ:
        return lambda: cluster.send_sync(sender, receiver)
    if kind is EventKind.EXEC_SYNC:
        return lambda: cluster.execute_sync(sender, receiver)
    if event.is_fault:
        # The kind names the Cluster method (crash, recover, partition,
        # heal), which returns None: the step returns True.
        fault = kind.value
        host_fault = kind is EventKind.CRASH or kind is EventKind.RECOVER
        replicas = (event.replica_id,) if host_fault else (sender, receiver)
        return lambda: getattr(cluster, fault)(*replicas) or True
    # An op against a crashed replica raises ReplicaDownError — recorded as
    # a failed op, like the real library's client erroring out against a
    # dead process.
    replica, name, args = event.replica_id, event.op_name, event.args
    host = cluster.host(replica)
    kwargs = dict(event.kwargs)

    def op() -> Any:
        host.require_up()
        method = getattr(host.rdl, name, None)
        if method is None or not callable(method):
            raise ReplayError(f"replica {replica!r} has no method {name!r}")
        return method(*args, **kwargs)

    return op


class ReplayEngine:
    """Checkpoint/replay/assert driver over a cluster.

    Every replay restores the checkpoint and re-executes the whole
    interleaving, so replays cannot affect each other.
    """

    def __init__(self, cluster: Cluster, executor: Optional[Any] = None) -> None:
        self.cluster = cluster
        self.executor = executor or SequentialExecutor()
        self._checkpoint: Optional[ClusterCheckpoint] = None
        #: Observability (see repro.obs): ``None`` unless an observed run
        #: attaches a tracer and a registry.
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None

    def checkpoint(self) -> None:
        """Snapshot the cluster's current state as the replay baseline."""
        self._checkpoint = self.cluster.checkpoint()

    def semantic_unsupported_reason(self) -> Optional[str]:
        """Why semantic (DPOR) pruning cannot bind here, or None when it
        can: replay must be a pure function of the event sequence."""
        if self._checkpoint is None:
            return "no checkpoint taken"
        if type(self.executor) is not SequentialExecutor:
            return f"executor {type(self.executor).__name__} is not sequential"
        return None

    def replay(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        """Replay one interleaving from the checkpoint and run assertions.

        When a tracer/metrics registry is attached this emits one ``replay``
        span (with the violation verdict) and updates the replay counters;
        an unobserved run pays two ``is None`` checks.
        """
        if self.tracer is None and self.metrics is None:
            return self._replay_checked(interleaving, assertions)
        return self._replay_observed("replay", interleaving, assertions)

    def replay_fresh(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion] = (),
    ) -> InterleavingOutcome:
        """A ground-truth replay for checks outside the explore loop.

        Runs exactly what :meth:`replay` runs, but observed runs trace it
        as a ``replay:fresh`` span, so the differential sanitizer's replays
        stay distinguishable from pipeline replays.  The sanitizer reuses
        these outcomes after later replays, so their states are read here.
        """
        if self.tracer is None and self.metrics is None:
            outcome = self._replay_checked(interleaving, assertions)
        else:
            outcome = self._replay_observed("replay:fresh", interleaving, assertions)
        return outcome.keep_states()

    def restore(self) -> None:
        """Reset the cluster to the checkpoint (used after the final replay)."""
        if self._checkpoint is not None:
            self.cluster.restore(self._checkpoint)

    # ------------------------------------------------------------- internals

    def _replay_observed(
        self,
        span_kind: str,
        interleaving: Interleaving,
        assertions: Sequence[Assertion],
    ) -> InterleavingOutcome:
        tracer = self.tracer
        metrics = self.metrics
        span = tracer.begin(span_kind) if tracer is not None else None
        try:
            outcome = self._replay_checked(interleaving, assertions)
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            raise
        if metrics is not None:
            # restore() zeroed the cluster's counters, so they hold this
            # replay's sends and partition drops.
            cluster = self.cluster
            if cluster.sent_syncs:
                metrics.inc("messages.sent", cluster.sent_syncs)
            if cluster.suppressed_sends:
                metrics.inc("messages.dropped", len(cluster.suppressed_sends))
            metrics.observe("replay.duration_us", outcome.duration_s * 1e6)
        if span is not None:
            tracer.end(span, violated=outcome.violated)
        return outcome

    def _replay_checked(
        self,
        interleaving: Interleaving,
        assertions: Sequence[Assertion],
    ) -> InterleavingOutcome:
        if self._checkpoint is None:
            raise ReplayError("checkpoint() must be called before replay()")
        cluster = self.cluster
        cluster.restore(self._checkpoint)
        started = time.perf_counter()
        event_results = self.executor.run(cluster, interleaving)
        duration = time.perf_counter() - started
        outcome = InterleavingOutcome(interleaving, event_results, None, [], duration)
        # States are read on first access, until the cluster's next restore.
        outcome._cluster = cluster
        outcome._restores = cluster.restores
        for assertion in assertions:
            message = assertion(outcome)
            if message is not None:
                outcome.violations.append(message)
        return outcome
