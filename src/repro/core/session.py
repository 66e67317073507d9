"""The ER-pi session facade: ``Start() ... End()`` (paper Figure 7).

Usage mirrors the paper's higher-order functions::

    erpi = ErPi(cluster)
    erpi.start()                      # proxies RDL + sync functions
    ... application workload ...      # first (recording) run
    report = erpi.end(
        assertions=[assert_convergence()],
        cross_checks=[StableStateAcrossInterleavings("B")],
    )                                 # generate -> prune -> replay -> test

``start`` checkpoints the replicas *before* the workload, so every replayed
interleaving starts from the pristine pre-workload state; ``end`` removes
the proxies, builds the explorer from the recorded events plus any
constraints, replays every surviving interleaving and evaluates both the
per-interleaving assertions and the cross-interleaving checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.assertions import CrossInterleavingCheck
from repro.core.constraints import (
    Constraint,
    load_constraints_dir,
    pruners_from,
    spec_groups_from,
)
from repro.core.errors import RecordingError
from repro.core.events import Event
from repro.core.explorers import DEFAULT_CAP, ExplorationResult, build_explorer
from repro.core.interleavings import GroupingResult
from repro.core.pruning import (
    DPORPruner,
    Pruner,
    ReadScopedPruner,
    ReplicaSpecificPruner,
    event_footprint,
)
from repro.core.replay import (
    Assertion,
    InterleavingOutcome,
    LockSteppedExecutor,
    ReplayEngine,
    SequentialExecutor,
)
from repro.core.sanitizer import Sanitizer, SanitizerReport
from repro.datalog.store import InterleavingStore
from repro.faults.plan import FaultPlan
from repro.faults.quarantine import QuarantinedReplay
from repro.net.cluster import Cluster
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.proxy.recorder import EventRecorder


@dataclass
class SessionReport:
    """Everything ER-pi learned from one Start/End window."""

    events: Tuple[Event, ...]
    grouping: GroupingResult
    explored: int
    outcomes: List[InterleavingOutcome]
    violations: List[Tuple[int, str]]  # (outcome index, message)
    cross_violations: List[Tuple[str, str]]  # (check name, message)
    pruning_stats: Dict[str, int]
    sanitizer: Optional[SanitizerReport] = None
    #: Fault events injected by the session's FaultPlan (empty without one).
    fault_events: Tuple[Event, ...] = ()
    #: Replays captured by the quarantine path instead of completing.
    quarantined: List[QuarantinedReplay] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return bool(self.violations) or bool(self.cross_violations)

    @property
    def raw_space(self) -> int:
        return self.grouping.raw_space

    def summary(self) -> str:
        lines = [
            f"events recorded: {len(self.events)} "
            f"(raw space {self.raw_space:,} interleavings)",
            f"grouped units: {self.grouping.unit_count} "
            f"(grouped space {self.grouping.grouped_space:,})",
            f"interleavings replayed: {self.explored}",
            f"assertion violations: {len(self.violations)}",
            f"cross-interleaving violations: {len(self.cross_violations)}",
        ]
        if self.fault_events:
            lines.append(f"fault events injected: {len(self.fault_events)}")
        if self.quarantined:
            lines.append(f"quarantined replays: {len(self.quarantined)}")
        for name, pruned in sorted(self.pruning_stats.items()):
            lines.append(f"  pruned by {name}: {pruned:,}")
        if self.sanitizer is not None:
            lines.append(self.sanitizer.summary())
        return "\n".join(lines)


def persist_exploration(
    store: InterleavingStore,
    result: ExplorationResult,
    metrics: Optional[Any] = None,
    tracer: Optional[Any] = None,
) -> Dict[str, int]:
    """Mirror a hunt's :class:`ExplorationResult` into ``store``.

    The process-backed parallel explorer commits a per-interleaving verdict
    map during its shard merge (``result.verdicts``); persisting that map
    turns the merge into Datalog facts — ``interleaving``/``explored``
    (plus ``quarantined`` with the error type) — so the soundness of the
    merge can be audited with the same queries as a serial session.
    Merged observability shards follow via their own persist hooks when a
    ``metrics`` registry / ``tracer`` is supplied.

    A coordinated hunt additionally carries ``result.coordination``; its
    slots' incarnation log lands as ``lease`` facts, so "the hunt recovered
    from a crash" is auditable from the same program as the verdicts it
    recovered.

    Returns per-verdict fact counts (``{"ok": ..., "violation": ...,
    "quarantined": ...}``) for callers that assert on the mirror.
    """
    counts: Dict[str, int] = {"ok": 0, "violation": 0, "quarantined": 0}
    coordination = getattr(result, "coordination", None)
    if coordination:
        for slot, attempt, status in coordination.get("lease_events", ()):
            store.persist_lease(slot, attempt, status)
    if result.verdicts:
        error_types = {
            "|".join(q.interleaving): q.error_type for q in result.quarantined
        }
        for il_key, verdict in result.verdicts.items():
            event_ids = il_key.split("|") if il_key else []
            il_id = store.persist_interleaving(event_ids)
            if verdict == "quarantine":
                # The store schema spells the verdict like the session loop.
                store.mark_explored(il_id, "quarantined")
                store.persist_quarantine(
                    il_id, error_types.get(il_key, "unknown")
                )
                counts["quarantined"] += 1
            else:
                store.mark_explored(il_id, verdict)
                counts[verdict] = counts.get(verdict, 0) + 1
    if metrics is not None and getattr(metrics, "enabled", False):
        metrics.persist(store)
    if tracer is not None and getattr(tracer, "enabled", False):
        tracer.persist(store)
    return counts


class ErPi:
    """One integration-testing session over a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        replica_scope: Optional[str] = None,
        read_scoped: bool = False,
        constraints_dir: Optional[str] = None,
        persist: bool = False,
        lock_stepped: bool = False,
        read_methods: Optional[Sequence[str]] = None,
        dpor: bool = False,
        sanitize: bool = False,
        faults: Optional[FaultPlan] = None,
        replay_timeout_s: Optional[float] = None,
        trace: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        """``replica_scope`` enables Algorithm-2 pruning for that replica
        (paper: pass the replica id to the Start/End higher-order functions);
        ``read_scoped`` narrows it further to the replica's final read.
        ``persist`` mirrors interleavings into the Datalog store.
        ``lock_stepped`` replays with one worker thread per replica ordered
        through the Redis-backed distributed lock (the paper's cross-machine
        deployment) instead of the fast in-line executor.
        ``read_methods`` extends the recorder's READ classification with the
        custom library's query methods (defaults cover the built-in
        subjects).
        ``dpor`` enables sleep-set pruning
        (:class:`~repro.core.pruning.semantic.DPORPruner`): permutations
        that only reorder independent events are skipped.  It is
        sound-or-off — it stays disabled (and says why in
        ``disabled_reason``) when the executor is not the sequential one,
        and with ``persist=True`` its prunes land as
        ``footprint`` Datalog facts.
        ``sanitize`` enables the differential soundness sanitizer: every
        pruner's equivalence classes are sampled (two skipped members each)
        and differentially replayed at :meth:`end`.
        Divergences land in the report (and, with ``persist=True``, as
        ``divergence`` Datalog facts).
        ``faults`` attaches a :class:`~repro.faults.plan.FaultPlan`: its
        crash/recover (and partition/heal) events are compiled against the
        recorded events at :meth:`end` and interleaved exhaustively with
        them, constrained so every explored schedule is valid (crash before
        its recover, no double-crash).
        ``replay_timeout_s`` is the per-replay wall-clock watchdog: slow or
        wedged replays raise and are quarantined instead of hanging the
        hunt.  It also replaces the lock-stepped executor's default 30 s
        stuck-replica timeout.
        ``trace`` / ``metrics`` attach a :class:`~repro.obs.tracer.Tracer`
        and a :class:`~repro.obs.metrics.MetricsRegistry` to the whole
        pipeline (engine, explorer, pruners); with ``persist=True`` their
        contents are mirrored into the Datalog store as ``span``/``metric``
        facts at :meth:`end`."""
        self.cluster = cluster
        self.replica_scope = replica_scope
        self.read_scoped = read_scoped
        self.constraints_dir = constraints_dir
        self.persist = persist
        self.store: Optional[InterleavingStore] = InterleavingStore() if persist else None
        self._recorder: Optional[EventRecorder] = None
        self._read_methods = read_methods
        self.faults = faults
        self.replay_timeout_s = replay_timeout_s
        if lock_stepped:
            executor: Any = (
                LockSteppedExecutor(timeout_s=replay_timeout_s)
                if replay_timeout_s is not None
                else LockSteppedExecutor()
            )
        elif replay_timeout_s is not None:
            executor = SequentialExecutor(timeout_s=replay_timeout_s)
        else:
            executor = None
        self.tracer = trace if trace is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._engine = ReplayEngine(cluster, executor)
        self._engine.tracer = self.tracer
        self._engine.metrics = self.metrics
        self.dpor = dpor
        self._sanitizer: Optional[Sanitizer] = (
            Sanitizer(store=self.store) if sanitize else None
        )
        self._extra_constraints: List[Constraint] = []

    # ------------------------------------------------------------- markers

    def start(self) -> None:
        """ER-pi.Start(): checkpoint the replicas and begin recording."""
        if self._recorder is not None:
            raise RecordingError("session already started")
        self._engine.checkpoint()
        read_methods = None
        if self._read_methods is not None:
            from repro.proxy.recorder import DEFAULT_READ_METHODS

            read_methods = set(DEFAULT_READ_METHODS) | set(self._read_methods)
        self._recorder = EventRecorder(self.cluster, read_methods=read_methods)
        self._recorder.start()

    @property
    def recorded_events(self) -> Tuple[Event, ...]:
        """The events captured so far in the current recording window
        (useful for deriving constraints before calling :meth:`end`)."""
        if self._recorder is None:
            return ()
        return tuple(self._recorder.events)

    def export_datalog(self, path: Optional[str] = None) -> str:
        """Render the persisted interleavings + pruning rules as a Datalog
        program (paper section 5.1: ER-pi generates the Souffle dialect).

        Requires ``persist=True``.  Returns the program text; also writes it
        to ``path`` when given.
        """
        if self.store is None:
            raise RecordingError("export requires a session with persist=True")
        from repro.datalog.export import export_program

        text = export_program(self.store)
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def add_constraint(self, constraint: Constraint) -> None:
        """Programmatic equivalent of dropping a JSON constraint file."""
        self._extra_constraints.append(constraint)

    def end(
        self,
        assertions: Sequence[Assertion] = (),
        cross_checks: Sequence[CrossInterleavingCheck] = (),
        cap: int = DEFAULT_CAP,
        order: str = "relocation",
        stop_on_violation: bool = False,
        keep_outcomes: bool = True,
    ) -> SessionReport:
        """ER-pi.End(tests...): replay every surviving interleaving."""
        if self._recorder is None:
            raise RecordingError("session was not started")
        events = tuple(self._recorder.stop())
        self._recorder = None

        constraints = list(self._extra_constraints)
        if self.constraints_dir:
            constraints.extend(load_constraints_dir(self.constraints_dir))
        pruners: List[Pruner] = []
        if self.replica_scope:
            if self.read_scoped:
                pruners.append(ReadScopedPruner(self.replica_scope))
            else:
                pruners.append(ReplicaSpecificPruner(self.replica_scope))
        pruners.extend(pruners_from(constraints))
        if self._sanitizer is not None:
            self._sanitizer.reset_pruners()
        # Fault compile, DPOR and the sanitizer: the same assembly a hunt
        # gets from the same inputs.
        explorer = build_explorer(
            events,
            spec_groups=spec_groups_from(constraints),
            pruners=pruners,
            order=order,
            faults=self.faults,
            dpor=self.dpor,
            sanitizer=self._sanitizer,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        schedule_events = explorer.events
        fault_events = explorer.fault_events
        store = self.store
        outcomes: List[InterleavingOutcome] = []
        violations: List[Tuple[int, str]] = []

        def commit(interleaving, outcome) -> bool:
            # Persisted as it commits, in commit order.
            quarantined = isinstance(outcome, QuarantinedReplay)
            if store is not None:
                il_id = store.persist_interleaving(
                    [event.event_id for event in interleaving]
                )
                if quarantined:
                    store.mark_explored(il_id, "quarantined")
                    store.persist_quarantine(il_id, outcome.error_type)
                else:
                    store.mark_explored(
                        il_id, "violation" if outcome.violated else "ok"
                    )
            if not quarantined:
                if keep_outcomes or outcome.violated:
                    outcomes.append(outcome)
                for message in outcome.violations:
                    violations.append((len(outcomes) - 1, message))
            return False

        result = explorer.explore(
            self._engine,
            assertions,
            cap=cap,
            stop_on_violation=stop_on_violation,
            on_commit=commit,
        )

        cross_violations: List[Tuple[str, str]] = []
        for check in cross_checks:
            message = check.evaluate(outcomes)
            if message is not None:
                cross_violations.append((check.name, message))

        # Differentially replay the sampled equivalence classes before the
        # cluster is reset (replay_fresh restores the checkpoint itself).
        sanitizer_report: Optional[SanitizerReport] = None
        if self._sanitizer is not None:
            sanitizer_report = self._sanitizer.finish(self._engine)

        # Reset the cluster to the pre-workload checkpoint so the session can
        # be rerun (or another session started) from a clean slate.
        self._engine.restore()

        if self.store is not None:
            for event in schedule_events:
                self.store.persist_event(
                    event.event_id, event.replica_id, event.kind.value, event.op_name
                )
            for event in fault_events:
                self.store.persist_fault(
                    event.event_id, event.replica_id, event.kind.value
                )
            for first_id, second_id in explorer.grouping.grouped_pairs:
                self.store.persist_sync_pair(first_id, second_id)
            # Semantic-pruning audit trail: each DPOR prune carries the
            # footprint-model entries behind the independence claim.
            dpor = next(
                (p for p in explorer.pipeline.pruners if isinstance(p, DPORPruner)),
                None,
            )
            if dpor is not None:
                by_id = {event.event_id: event for event in schedule_events}
                for il_key in dpor.prune_log:
                    event_ids = il_key.split("|")
                    il_id = self.store.persist_interleaving(event_ids)
                    self.store.mark_pruned(il_id, "dpor")
                    for event_id in event_ids:
                        event = by_id.get(event_id)
                        if event is None:
                            continue
                        for key, mode in event_footprint(event):
                            self.store.persist_footprint(
                                il_id, event_id, mode, key
                            )
            # Observability telemetry becomes queryable alongside the
            # interleavings it describes (span/metric facts).
            if self.tracer.enabled:
                self.tracer.persist(self.store)
            if self.metrics.enabled:
                self.metrics.persist(self.store)

        return SessionReport(
            events=schedule_events,
            grouping=explorer.grouping,
            explored=result.explored,
            outcomes=outcomes,
            violations=violations,
            cross_violations=cross_violations,
            pruning_stats=result.pruning_stats,
            sanitizer=sanitizer_report,
            fault_events=fault_events,
            quarantined=result.quarantined,
        )
