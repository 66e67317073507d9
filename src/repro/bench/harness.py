"""Benchmark harness: record a bug scenario once, then hunt it with each
exploration mode (ER-pi / DFS / Rand) under the paper's 10K cap.

This is the engine behind Figures 8a, 8b, 9 and 10 and Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bugs.registry import BugScenario
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
from repro.core.replay import ReplayEngine, SequentialExecutor
from repro.core.resources import ResourceMeter
from repro.core.sanitizer import Sanitizer
from repro.net.cluster import Cluster
from repro.obs import NULL_METRICS, NULL_TRACER
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
    tracer: object = NULL_TRACER,
    metrics: object = NULL_METRICS,
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


def _open_journal(
    journal: Optional[str],
    resume: Optional[str],
    recorded: RecordedScenario,
    *,
    mode: str,
    seed: int,
    cap: int,
    workers: int,
    faults: bool,
    dpor: bool,
):
    """Create a fresh hunt journal, or load + validate one for resumption.

    The header pins the hunt's identity; resuming under a different
    scenario/mode/seed/cap would silently change what the committed prefix
    means, so any mismatch refuses instead of continuing.  Journals written
    with the state memo on carry commits this build cannot honour, so they
    are refused too.
    """
    import uuid

    from repro.core.journal import HuntJournal, JournalError

    if journal is not None and resume is not None:
        raise ValueError("pass either journal= (fresh) or resume=, not both")
    config = {
        "scenario": recorded.scenario.name,
        "mode": mode,
        "seed": seed,
        "cap": cap,
        "workers": workers,
        "faults": faults,
        "fixed": recorded.fixed,
        "dpor": dpor,
    }
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
            for key, value in config.items()
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
    header = {"hunt": {**config, "hunt_id": uuid.uuid4().hex[:12]}}
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
    sanitize_sample_k: int = 2,
    faults: bool = False,
    replay_timeout_s: Optional[float] = None,
    stop_on_violation: bool = True,
    tracer: Optional[object] = None,
    metrics: Optional[object] = None,
    progress: Optional[object] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    max_releases: int = 3,
    batch_size: int = 64,
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
    ``result.sanitizer``.

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
    replay engine, pruners and — via the engine — the sanitizer).

    The process pool respawns a worker that dies in its slot, up to
    ``max_releases`` times; past that the slot's remaining positions are
    quarantined as ``ShardAbandoned`` and the rest of the hunt completes.
    ``journal`` (a path) checkpoints every committed verdict to a
    :class:`~repro.core.journal.HuntJournal` as it commits; a journaled hunt
    always runs on the pool, with one worker if ``workers`` is 1.
    ``resume`` (a path to an existing journal) continues a previously
    killed hunt: the committed prefix is taken from the journal, workers
    skip past it, and the final verdict map is identical to an
    uninterrupted run's.

    ``batch_size`` caps the workers' adaptive columnar IPC frames.
    """
    if parallel_backend != "process":
        raise ValueError(
            f"unknown parallel backend {parallel_backend!r}; expected 'process'"
        )
    observed_tracer = tracer if tracer is not None else NULL_TRACER
    observed_metrics = metrics if metrics is not None else NULL_METRICS
    recorded.engine.executor = SequentialExecutor(timeout_s=replay_timeout_s)
    sanitizer = Sanitizer(sample_k=sanitize_sample_k, seed=seed) if sanitize else None
    explorer = make_explorer(
        recorded, mode, seed=seed, meter=meter, faults=faults, dpor=dpor,
        sanitizer=sanitizer, tracer=observed_tracer, metrics=observed_metrics,
    )
    explorer.progress = progress
    recorded.engine.tracer = observed_tracer
    recorded.engine.metrics = observed_metrics
    assertions = recorded.scenario.make_assertions()
    hunt_journal = None
    if journal is not None or resume is not None:
        hunt_journal = _open_journal(
            journal, resume, recorded, mode=mode, seed=seed, cap=cap,
            workers=workers, faults=faults, dpor=dpor,
        )
    if workers > 1 or hunt_journal is not None:
        from repro.core.procpool import ProcessParallelExplorer, ScenarioWorkerTask

        task = ScenarioWorkerTask(
            scenario_name=recorded.scenario.name,
            mode=mode,
            seed=seed,
            fixed=recorded.fixed,
            faults=faults,
            replay_timeout_s=replay_timeout_s,
            dpor=dpor,
        )
        parallel = ProcessParallelExplorer(
            explorer,
            task,
            workers=workers,
            sanitize=sanitize,
            sanitize_sample_k=sanitize_sample_k,
            seed=seed,
            parent_sanitizer=sanitizer,
            batch_size=batch_size,
            journal=hunt_journal,
            max_releases=max_releases,
        )
        result = parallel.explore(
            recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
        )
    else:
        result = explorer.explore(
            recorded.engine, assertions, cap=cap, stop_on_violation=stop_on_violation
        )
    if sanitizer is not None:
        result.sanitizer = sanitizer.finish(recorded.engine)
    return result
