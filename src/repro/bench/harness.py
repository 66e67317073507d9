"""Benchmark harness: record a bug scenario once, then hunt it with each
exploration mode (ER-pi / DFS / Rand) under the paper's 10K cap.

This is the engine behind Figures 8a, 8b, 9 and 10 and Table 1.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from repro.bugs.registry import BugScenario, scenario as registered_scenario
from repro.core.errors import ResourceExhausted
from repro.core.events import Event
from repro.core.explorers import (
    DEFAULT_CAP,
    Explorer,
    ExplorationResult,
    build_explorer,
)
from repro.core.pruning import (
    EventIndependencePruner,
    FailedOpsPruner,
    Pruner,
    ReplicaSpecificPruner,
)
from repro.core.replay import Assertion, ReplayEngine, SequentialExecutor
from repro.core.resources import ResourceMeter
from repro.core.sanitizer import Sanitizer
from repro.net.cluster import Cluster
from repro.proxy.recorder import EventRecorder


@dataclass
class RecordedScenario:
    """A scenario after its recording run: ready to replay."""

    scenario: BugScenario
    cluster: Cluster
    engine: ReplayEngine
    events: Tuple[Event, ...]
    fixed: bool = False

    @property
    def event_count(self) -> int:
        return len(self.events)


def record_scenario(scenario: BugScenario, fixed: bool = False) -> RecordedScenario:
    """Build the cluster, checkpoint it, and record the happy-path run.

    ``fixed=True`` installs the repaired library (defects removed) so
    regression tests can verify the invariants hold under *every* explored
    interleaving once the bug is fixed."""
    cluster = scenario.build_cluster(fixed=fixed)
    engine = ReplayEngine(cluster)
    engine.checkpoint()
    recorder = EventRecorder(cluster)
    recorder.start()
    scenario.workload(cluster)
    events = tuple(recorder.stop())
    if len(events) != scenario.expected_events:
        raise AssertionError(
            f"{scenario.name}: workload recorded {len(events)} events, "
            f"Table 1 says {scenario.expected_events}"
        )
    return RecordedScenario(scenario, cluster, engine, events, fixed=fixed)


def scenario_pruners(scenario: BugScenario) -> List[Pruner]:
    pruners: List[Pruner] = []
    if scenario.replica_scope:
        pruners.append(ReplicaSpecificPruner(scenario.replica_scope))
    for events in scenario.independence_constraints():
        pruners.append(EventIndependencePruner(events))
    for predecessors, successors in scenario.failed_ops_constraints():
        pruners.append(FailedOpsPruner(predecessors, successors))
    return pruners


def make_explorer(
    recorded: RecordedScenario,
    mode: str,
    seed: int = 0,
    meter: Optional[ResourceMeter] = None,
    faults: bool = False,
    dpor: bool = False,
    sanitizer: Optional[Sanitizer] = None,
    tracer: Optional[object] = None,
    metrics: Optional[object] = None,
) -> Explorer:
    """Build the exploration stack for one recorded scenario.

    The scenario supplies the groups and pruners; ``faults`` compiles its
    :meth:`~repro.bugs.registry.BugScenario.fault_plan` into the schedule.
    The rest goes to :func:`~repro.core.explorers.build_explorer`.
    """
    scenario = recorded.scenario
    plan = None
    if faults:
        plan = scenario.fault_plan()
        if plan is None or plan.is_empty():
            raise ValueError(
                f"{scenario.name} declares no fault plan; hunt with faults=False"
            )
    return build_explorer(
        recorded.events,
        mode,
        spec_groups=scenario.spec_groups(),
        pruners=scenario_pruners(scenario),
        faults=plan,
        dpor=dpor,
        sanitizer=sanitizer,
        seed=seed,
        meter=meter,
        tracer=tracer,
        metrics=metrics,
    )


@dataclass(frozen=True)
class HuntConfig:
    """What a hunt explores, as one picklable record.

    :func:`hunt` builds exactly one.  The process pool hands it to every
    worker, which runs :meth:`build`, and ``asdict(config)`` is the journal
    header that a resume must match.
    """

    scenario: str
    mode: str = "erpi"
    seed: int = 0
    fixed: bool = False
    cap: int = DEFAULT_CAP
    workers: int = 1
    faults: bool = False
    dpor: bool = False
    replay_timeout_s: Optional[float] = None

    def build(self) -> Tuple[Explorer, ReplayEngine, Sequence[Assertion]]:
        """Record the scenario afresh and assemble its explorer, engine and
        assertions: what each pool worker runs in its own process."""
        recorded = record_scenario(registered_scenario(self.scenario), fixed=self.fixed)
        recorded.engine.executor = SequentialExecutor(timeout_s=self.replay_timeout_s)
        explorer = make_explorer(
            recorded, self.mode, seed=self.seed, faults=self.faults, dpor=self.dpor,
        )
        return explorer, recorded.engine, recorded.scenario.make_assertions()


def _open_journal(journal: Optional[str], resume: Optional[str], config: HuntConfig):
    """Create a fresh hunt journal headed by ``config``, or load one for
    resumption and check that it pins the same ``config``.

    Resuming under a different configuration would silently change what
    the committed prefix means, so any mismatch refuses instead of
    continuing.  A header from before ``replay_timeout_s`` was pinned reads
    it as ``None``.  Journals written with the state memo on carry commits
    this build cannot honour, so they are refused too.
    """
    import uuid

    from repro.core.journal import HuntJournal, JournalError

    if journal is not None and resume is not None:
        raise ValueError("pass either journal= (fresh) or resume=, not both")
    pinned = asdict(config)
    if resume is not None:
        loaded = HuntJournal.load(resume)
        if loaded.is_final:
            raise JournalError(
                f"{resume}: journal is final (hunt completed); nothing to resume"
            )
        saved = loaded.header.get("hunt", {})
        if saved.get("memo"):
            raise JournalError(
                f"{resume}: journal was written with memo: true; this build "
                "has no state memo and cannot resume its pruned commits"
            )
        mismatched = {
            key: (saved.get(key), value)
            for key, value in pinned.items()
            if saved.get(key) != value
        }
        if mismatched:
            detail = ", ".join(
                f"{key}: journal={was!r} requested={now!r}"
                for key, (was, now) in sorted(mismatched.items())
            )
            raise JournalError(
                f"{resume}: hunt configuration mismatch ({detail})"
            )
        return loaded
    header = {"hunt": {**pinned, "hunt_id": uuid.uuid4().hex[:12]}}
    return HuntJournal.create(journal, header)


def hunt(
    recorded: RecordedScenario,
    mode: str,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    meter: Optional[ResourceMeter] = None,
    workers: int = 1,
    parallel_backend: str = "process",
    dpor: bool = False,
    sanitize: bool = False,
    faults: bool = False,
    replay_timeout_s: Optional[float] = None,
    stop_on_violation: bool = True,
    tracer: Optional[object] = None,
    metrics: Optional[object] = None,
    progress: Optional[object] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
) -> ExplorationResult:
    """Explore until the scenario's invariant breaks (bug reproduced).

    ``workers > 1`` stripes the candidate stream across shared-nothing
    worker processes (position ``i`` goes to worker ``i % workers``),
    keeping the reported first violation identical to a serial hunt.  ``parallel_backend`` only
    accepts ``"process"``, the one multi-worker backend.
    ``dpor`` adds the DPOR pruner (see
    :func:`~repro.core.explorers.build_explorer`).
    ``sanitize`` runs the differential soundness sanitizer alongside the
    hunt: every pruner's equivalence classes are sampled and
    differentially replayed afterwards.  The report lands on
    ``result.sanitizer``.  Only this process samples, so a pool hunt
    reports what a serial hunt reports.

    ``faults=True`` compiles the scenario's :meth:`BugScenario.fault_plan`
    into the schedule: the crash/recover (and partition/heal) events are
    permuted alongside the recorded events, constrained by the plan's
    anchors.  ``replay_timeout_s`` arms the per-replay watchdog; a replay
    that exceeds it is quarantined rather than hanging the hunt.  The
    watchdog is this hunt's alone: a later hunt of the same recording
    without ``replay_timeout_s`` replays without one.

    ``tracer`` / ``metrics`` / ``progress`` attach a
    :class:`~repro.obs.tracer.Tracer`, a
    :class:`~repro.obs.metrics.MetricsRegistry` and a
    :class:`~repro.obs.progress.ProgressLine` to the whole hunt (explorer,
    replay engine, pruners and — via the engine — the sanitizer).  ``None``
    leaves that part unobserved.  The progress line paints the registry's
    counts, so without ``metrics`` it paints nothing.

    The hunt's one :class:`HuntConfig` is the process pool's worker recipe.
    The pool respawns a worker that dies in its slot, up to three times;
    past that the slot's remaining positions are quarantined as
    ``ShardAbandoned`` and the rest of the hunt completes.
    ``journal`` (a path) checkpoints every committed verdict to a
    :class:`~repro.core.journal.HuntJournal`, headed by the config, as it
    commits; a journaled hunt always runs on the pool, with one worker if
    ``workers`` is 1.  ``resume`` (a path to an existing journal) continues
    a previously killed hunt: the committed prefix is taken from the
    journal, workers skip past it, and the final verdict map is identical
    to an uninterrupted run's.  A journal that is final or corrupt, or
    whose header differs from the config, raises
    :class:`~repro.core.journal.JournalError`.
    """
    if parallel_backend != "process":
        raise ValueError(
            f"unknown parallel backend {parallel_backend!r}; expected 'process'"
        )
    config = HuntConfig(
        scenario=recorded.scenario.name, mode=mode, seed=seed, fixed=recorded.fixed,
        cap=cap, workers=workers, faults=faults, dpor=dpor,
        replay_timeout_s=replay_timeout_s,
    )
    recorded.engine.executor = SequentialExecutor(timeout_s=replay_timeout_s)
    sanitizer = Sanitizer(seed=seed) if sanitize else None
    explorer = make_explorer(
        recorded, mode, seed=seed, meter=meter, faults=faults, dpor=dpor,
        sanitizer=sanitizer, tracer=tracer, metrics=metrics,
    )
    explorer.progress = progress
    recorded.engine.tracer = tracer
    recorded.engine.metrics = metrics
    assertions = recorded.scenario.make_assertions()
    hunt_journal = None
    if journal is not None or resume is not None:
        hunt_journal = _open_journal(journal, resume, config)
    if workers > 1 or hunt_journal is not None:
        from repro.core.procpool import ProcessParallelExplorer

        parallel = ProcessParallelExplorer(
            explorer, config, workers=workers, journal=hunt_journal,
        )
        result = parallel.explore(
            recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
        )
        if sanitizer is not None and sanitizer.watched_pruners:
            # The workers sample nothing.  This explorer pulls what the
            # serial loop would have: one candidate per commit, plus the
            # pull that runs the pruners over the stream's tail when
            # neither the cap nor a stopping violation ended the hunt.  The
            # workers' counters are merged already, so nothing observes it.
            explorer.bind_semantic((recorded.engine,), assertions)
            explorer.tracer = explorer.metrics = None
            pulls = result.explored
            if result.explored < cap and not (stop_on_violation and result.found):
                pulls += 1
            try:
                for _ in islice(explorer.candidates(), pulls):
                    pass
            except ResourceExhausted:
                pass  # the serial loop stops at a budget crash too
    else:
        result = explorer.explore(
            recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
        )
    if sanitizer is not None:
        result.sanitizer = sanitizer.finish(recorded.engine)
    return result
