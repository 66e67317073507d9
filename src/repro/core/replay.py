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

Two executors enforce the event order:

* :class:`SequentialExecutor` — the default: events run in-line in
  interleaving order (deterministic and fast; correct because the simulated
  cluster is single-process).
* :class:`LockSteppedExecutor` — one worker thread per replica, released in
  event order by the Redis-backed distributed lock
  (:class:`~repro.redisim.lock.SequenceGate`) exactly as the paper's
  middleware orders events across real machines.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReplayError
from repro.core.events import Event, EventKind, assign_lamport
from repro.core.interleavings import Interleaving
from repro.crdt.base import CRDTError
from repro.faults.errors import ReplayTimeout
from repro.net.cluster import Cluster, ClusterCheckpoint
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.rdl.base import RDLError
from repro.redisim.errors import LockError
from repro.redisim.farm import RedisimFarm
from repro.redisim.lock import SequenceGate


@dataclass(slots=True)
class EventResult:
    """What happened when one event replayed."""

    event: Event
    lamport: int
    ok: bool
    result: Any = None
    error: Optional[str] = None


@dataclass(slots=True, eq=False)
class InterleavingOutcome:
    """The full result of replaying one interleaving."""

    interleaving: Interleaving
    event_results: List[EventResult]
    states: Dict[str, Any]
    violations: List[str]
    duration_s: float

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
        # (see assign_lamport), so no StampedEvent is allocated.
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
                results.append(_failed(event, lamport, exc))
        return results


class LockSteppedExecutor:
    """One worker per replica; the distributed lock releases them in order.

    Demonstrates (and tests) the paper's Redis-mutex ordering mechanism: each
    worker owns the events of one replica and may only execute its next event
    when the shared cursor — maintained under the Redlock mutex on a farm of
    redisim instances — reaches that event's global position.
    """

    def __init__(
        self,
        farm: Optional[RedisimFarm] = None,
        timeout_s: float = 30.0,
        gate_retries: int = 2,
        gate_backoff_s: float = 0.05,
    ) -> None:
        self.farm = farm or RedisimFarm(size=3, name_prefix="erpi-lock")
        self.timeout_s = timeout_s
        #: Transient SequenceGate acquisition failures (a quorum blip on the
        #: redisim farm) are retried this many times with exponential
        #: backoff before the replay is declared failed.
        self.gate_retries = max(gate_retries, 0)
        self.gate_backoff_s = gate_backoff_s
        self._session_counter = 0

    def _wait_for_turn(self, gate: SequenceGate, position: int) -> None:
        delay = self.gate_backoff_s
        for attempt in range(self.gate_retries + 1):
            try:
                gate.wait_for_turn(position, timeout_s=self.timeout_s)
                return
            except LockError:
                if attempt == self.gate_retries:
                    raise
                time.sleep(delay)
                delay *= 2

    def run(self, cluster: Cluster, interleaving: Interleaving) -> List[EventResult]:
        self._session_counter += 1
        gate = SequenceGate(self.farm, session_id=f"replay-{self._session_counter}")
        stamped = list(assign_lamport(interleaving))
        slots: List[Optional[EventResult]] = [None] * len(stamped)
        per_replica: Dict[str, List[int]] = {}
        for position, item in enumerate(stamped):
            per_replica.setdefault(item.event.replica_id, []).append(position)
        errors: List[BaseException] = []

        def worker(positions: List[int]) -> None:
            try:
                for position in positions:
                    self._wait_for_turn(gate, position)
                    item = stamped[position]
                    slots[position] = _invoke(cluster, item.event, item.lamport)
                    gate.complete_turn(position)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            (replica_id, threading.Thread(target=worker, args=(positions,), daemon=True))
            for replica_id, positions in per_replica.items()
        ]
        for _, thread in threads:
            thread.start()
        deadline = time.monotonic() + self.timeout_s * (len(stamped) + 1)
        stuck: List[str] = []
        for replica_id, thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))
            if thread.is_alive():
                stuck.append(replica_id)
        if errors:
            raise ReplayError(f"lock-stepped replay failed: {errors[0]!r}") from errors[0]
        if stuck:
            raise ReplayError(
                "lock-stepped replay timed out after "
                f"{self.timeout_s * (len(stamped) + 1):.1f}s; "
                f"stuck replica worker(s): {', '.join(sorted(stuck))}"
            )
        if any(slot is None for slot in slots):
            raise ReplayError("lock-stepped replay did not complete every event")
        return [slot for slot in slots if slot is not None]


#: What a subject raises when it rejects an op under this ordering: the kind
#: of behaviour ER-pi exists to surface, so the replay records the op as
#: failed and goes on.
_OP_FAILURES = (RDLError, CRDTError, KeyError, IndexError, ValueError)


def _failed(event: Event, lamport: int, exc: Exception) -> EventResult:
    return EventResult(
        event=event, lamport=lamport, ok=False, error=f"{type(exc).__name__}: {exc}"
    )


def _invoke(cluster: Cluster, event: Event, lamport: int) -> EventResult:
    """Compile one recorded event afresh and run it against the cluster."""
    try:
        return EventResult(event, lamport, True, _compile(cluster, event)())
    except _OP_FAILURES as exc:
        return _failed(event, lamport, exc)


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
        #: Observability (see repro.obs): the shared null objects unless an
        #: observed run swaps real ones in.
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS

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
        with the null objects attached the observed wrapper is a single
        boolean check.
        """
        if not (self.tracer.enabled or self.metrics.enabled):
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
        stay distinguishable from pipeline replays.
        """
        if not (self.tracer.enabled or self.metrics.enabled):
            return self._replay_checked(interleaving, assertions)
        return self._replay_observed("replay:fresh", interleaving, assertions)

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
        span = tracer.begin(span_kind) if tracer.enabled else None
        try:
            outcome = self._replay_checked(interleaving, assertions)
        except BaseException as exc:
            if span is not None:
                tracer.end(span, error=type(exc).__name__)
            raise
        if metrics.enabled:
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
        outcome = InterleavingOutcome(
            interleaving=interleaving,
            event_results=event_results,
            states=cluster.states(),
            violations=[],
            duration_s=duration,
        )
        for assertion in assertions:
            message = assertion(outcome)
            if message is not None:
                outcome.violations.append(message)
        return outcome
