"""Exploration strategies: ER-pi, DFS and Random (paper section 6.3).

All three modes replay interleavings one by one against the same
:class:`~repro.core.replay.ReplayEngine` and stop on the first assertion
violation (bug reproduced), on the exploration cap (the paper terminates at
10,000 interleavings), or on resource exhaustion (Figure 10):

* :class:`DFSExplorer` — exhaustive lexicographic DFS over the **raw** event
  permutations, exactly the paper's baseline: no grouping, no pruning, the
  interleaving tree explored by backtracking, every explored path remembered
  in the checker ledger.
* :class:`RandomExplorer` — composes each interleaving by shuffling the raw
  events, caching composed interleavings to avoid repetition (and paying for
  re-shuffles once most of the space is cached).
* :class:`ERPiExplorer` — ER-pi: Algorithm-1 grouping up front, minimal-change
  (SJT) enumeration over units, and the applicable post-generation pruners
  filtering equivalent interleavings before they are ever replayed.

:meth:`Explorer.explore` is the one serial replay loop: hunts, ``ErPi``
sessions, the workload fuzzer, the resource profiler and the Table-2
detector all run it, the last four through its ``on_commit`` sink.
:func:`build_explorer` is the one place an exploration stack is assembled
(fault plan, pruners, DPOR, sanitizer).  Multi-worker hunts run the same
candidate streams on shared-nothing worker processes
(:mod:`repro.core.procpool`).
"""

from __future__ import annotations

import abc
import functools
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import ResourceExhausted
from repro.core.events import Event
from repro.faults.plan import FaultPlan, satisfies_order_constraints
from repro.faults.quarantine import QuarantinedReplay
from repro.core.interleavings import (
    GroupingResult,
    Interleaving,
    flatten,
    group_events,
    interleaving_stream,
    unit_order_masks,
    unit_permutation_stream,
)
from repro.core.pruning.base import Pruner, PrunerPipeline
from repro.core.pruning.semantic import DPORPruner
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.core.resources import ResourceMeter, interleaving_footprint

#: The paper's exploration cap.
DEFAULT_CAP = 10_000

#: Rand gives up after this many shuffles in a row that compose an
#: interleaving it has already cached: the space is effectively exhausted.
_MAX_RESHUFFLES = 1_000

#: A commit sink: called once per committed replay with the interleaving and
#: its outcome (the :class:`QuarantinedReplay` when the replay raised);
#: returning True stops the run.
CommitSink = Callable[
    [Interleaving, Union[InterleavingOutcome, QuarantinedReplay]], bool
]


def stream_owner(position: int, workers: int) -> int:
    """The worker slot that replays candidate-stream position ``position``.

    The one ownership rule of a multi-worker hunt: each worker skips the
    positions it assigns elsewhere, and the pool's parent uses it to find an
    abandoned slot's candidates.  Striping by index keeps every worker's
    share within one candidate of every other's.
    """
    return position % workers


@dataclass
class ExplorationResult:
    """Outcome of one exploration run (one bar of Figure 8a/8b)."""

    mode: str
    found: bool
    explored: int
    elapsed_s: float
    crashed: bool = False
    crash_reason: Optional[str] = None
    violating: Optional[InterleavingOutcome] = None
    pruning_stats: Dict[str, int] = field(default_factory=dict)
    #: Filled in by callers that ran the soundness sanitizer
    #: (a :class:`repro.core.sanitizer.SanitizerReport`).
    sanitizer: Optional[object] = None
    #: Replays the quarantine path captured (unexpected subject exception
    #: or watchdog timeout) instead of completing.
    quarantined: List[QuarantinedReplay] = field(default_factory=list)
    #: How many fault events (crash/recover/partition/heal) were in play.
    fault_events: int = 0
    #: Committed per-interleaving verdicts ("ok" / "violation" /
    #: "quarantine") keyed by interleaving id, in commit order.  Filled by
    #: the process-backed parallel explorer, whose shard merge is easiest to
    #: audit through exactly this map; serial explorers leave it ``None``.
    verdicts: Optional[Dict[str, str]] = None
    #: Coordination summary (hunt id, per-slot incarnation log, re-leases,
    #: abandoned shards, resumed commits, journal path), filled by every
    #: :class:`~repro.core.procpool.ProcessParallelExplorer` run.
    coordination: Optional[Dict[str, object]] = None
    #: Per-worker-slot stats from a process-backed run: stream positions
    #: enumerated (``yields``), owned candidates actually materialised
    #: (``materialized`` — under sharded enumeration a worker flattens only
    #: its own shards), and verdict-pipe bytes shipped (``ipc_bytes``).
    #: Serial explorers leave it ``None``.
    worker_stats: Optional[Dict[int, Dict[str, int]]] = None

    @property
    def capped(self) -> bool:
        return not self.found and not self.crashed


class Explorer(abc.ABC):
    """Shared explore loop; subclasses provide the candidate stream."""

    mode = "explorer"

    def __init__(self, events: Sequence[Event], meter: Optional[ResourceMeter] = None) -> None:
        self.events: Tuple[Event, ...] = tuple(events)
        self.meter = meter or ResourceMeter()
        #: (before_id, after_id) validity constraints — schedules violating
        #: one (e.g. a recover before its crash) are *invalid*, not merely
        #: equivalent: they never reach a pruner and are never replayed.
        #: Set by fault-aware callers (see repro.faults.plan.FaultPlan).
        self.order_constraints: Tuple[Tuple[str, str], ...] = ()
        #: Human-readable fault-plan description, attached to quarantines.
        self.fault_plan_description: Optional[str] = None
        #: The fault events the compiled plan added, in plan order.
        self.fault_events: Tuple[Event, ...] = ()
        #: Observability (see repro.obs): ``None`` unless an observed run
        #: attaches a tracer and a registry.  ``progress`` may hold a
        #: :class:`~repro.obs.progress.ProgressLine` for live hunts.
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None
        self.progress: Optional[object] = None

    @abc.abstractmethod
    def candidates(self) -> Iterator[Interleaving]:
        """A lazy stream of interleavings to replay, in exploration order."""

    def sharded_candidates(
        self, workers: int, worker_index: int
    ) -> Iterator[Optional[Interleaving]]:
        """The candidate stream as one of ``workers`` workers sees it.

        Yields the interleaving for the stream positions ``worker_index``
        owns (:func:`stream_owner`) and ``None`` for foreign positions.
        Every position — owned or not — produces exactly one yield, so a
        worker's candidate *indices* stay identical to the full stream's;
        only the materialisation differs.

        The default implementation generates the full stream and filters;
        subclasses that can skip flattening foreign positions override it.
        """
        for position, interleaving in enumerate(self.candidates()):
            if stream_owner(position, workers) == worker_index:
                yield interleaving
            else:
                yield None

    def _quarantine(self, interleaving: Interleaving, exc: BaseException) -> QuarantinedReplay:
        return QuarantinedReplay(
            interleaving=tuple(event.event_id for event in interleaving),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
            fault_plan=self.fault_plan_description,
        )

    def explore(
        self,
        engine: ReplayEngine,
        assertions: Sequence[Assertion],
        cap: int = DEFAULT_CAP,
        stop_on_violation: bool = True,
        on_commit: Optional[CommitSink] = None,
    ) -> ExplorationResult:
        """Replay candidates until a violation (with ``stop_on_violation``),
        the ``cap``, an exhausted stream or a resource crash.

        A replay that raises is quarantined and the run goes on.
        ``on_commit(interleaving, outcome)`` sees every committed replay in
        commit order, after the engine is back at its checkpoint for a
        quarantine; returning True ends the run after that commit.
        """
        tracer = self.tracer
        metrics = self.metrics
        progress = self.progress
        started = time.perf_counter()
        explored = 0
        violating: Optional[InterleavingOutcome] = None
        crashed = False
        crash_reason: Optional[str] = None
        quarantined: List[QuarantinedReplay] = []
        root = tracer.begin("explore") if tracer is not None else None
        self.bind_semantic((engine,), assertions)
        candidates = self.candidates()
        try:
            # The cap is checked *before* pulling the next candidate, so a
            # capped run never generates (or meter-charges) an interleaving
            # it will not replay — keeping the observability identity
            # ``generated == pruned + replayed + quarantined + discarded``
            # exact.
            while explored < cap:
                if tracer is not None:
                    gspan = tracer.begin("generate")
                    try:
                        interleaving = next(candidates, None)
                    except BaseException as exc:
                        tracer.end(gspan, error=type(exc).__name__)
                        raise
                    tracer.end(gspan, exhausted=interleaving is None)
                else:
                    interleaving = next(candidates, None)
                if interleaving is None:
                    break
                try:
                    outcome = engine.replay(interleaving, assertions)
                except ResourceExhausted:
                    raise
                except Exception as exc:
                    # Quarantine: an injected fault wedged or blew up the
                    # subject (watchdog timeout, unexpected exception).
                    # Capture the wreckage and keep hunting.
                    qspan = tracer.begin("quarantine") if tracer is not None else None
                    quarantine = self._quarantine(interleaving, exc)
                    if qspan is not None:
                        tracer.end(qspan, error_type=type(exc).__name__)
                    quarantined.append(quarantine)
                    if metrics is not None:
                        metrics.inc("interleavings.quarantined")
                    explored += 1
                    if progress is not None:
                        progress.tick(metrics)
                    engine.restore()
                    if on_commit is not None and on_commit(interleaving, quarantine):
                        break
                    continue
                explored += 1
                if metrics is not None:
                    metrics.inc("interleavings.replayed")
                if progress is not None:
                    progress.tick(metrics)
                # Sinks, and the result's violating outcome, outlive the
                # next replay's restore, so their states are read now.
                stop = on_commit is not None and on_commit(
                    interleaving, outcome.keep_states()
                )
                if outcome.violated:
                    violating = outcome.keep_states()
                    stop = stop or stop_on_violation
                if stop:
                    break
        except ResourceExhausted as exc:
            crashed = True
            crash_reason = str(exc)
        finally:
            self._finish_observation(root, explored)
        elapsed = time.perf_counter() - started
        return ExplorationResult(
            mode=self.mode,
            found=violating is not None,
            explored=explored,
            elapsed_s=elapsed,
            crashed=crashed,
            crash_reason=crash_reason,
            violating=violating,
            pruning_stats=self._pruning_stats(),
            quarantined=quarantined,
            fault_events=sum(1 for event in self.events if event.is_fault),
        )

    def _pruning_stats(self) -> Dict[str, int]:
        return {}

    def bind_semantic(
        self, engines: Sequence[ReplayEngine], assertions: Sequence[Assertion]
    ) -> None:
        """Bind semantic pruners (DPOR) to the replay engines.

        A no-op for explorers without a pruning pipeline.  Sound-or-off:
        each pruner decides for itself whether the engines support it.
        """

    def _finish_observation(
        self,
        root_span: Optional[object],
        explored: int,
        mode: Optional[str] = None,
    ) -> None:
        """End-of-run observability: gauges, the final progress repaint, and
        the root ``explore`` span.  A no-op when nothing observes the run."""
        metrics = self.metrics
        if metrics is not None:
            for category, nbytes in self.meter.by_category.items():
                metrics.set_gauge("resource.bytes." + category, nbytes)
        progress = self.progress
        if progress is not None:
            progress.close(metrics)
        if root_span is not None:
            self.tracer.end(root_span, mode=mode or self.mode, explored=explored)


class DFSExplorer(Explorer):
    """Lexicographic DFS over raw-event permutations (no reduction)."""

    mode = "dfs"

    def candidates(self) -> Iterator[Interleaving]:
        metrics = self.metrics
        units = tuple((event,) for event in self.events)
        masks = unit_order_masks(units, self.order_constraints)
        for interleaving in interleaving_stream(units, "lexicographic", masks=masks):
            # The checker server persists every explored interleaving.
            self.meter.charge("dfs_ledger", interleaving_footprint(len(self.events)))
            if metrics is not None:
                metrics.inc("interleavings.generated")
            yield interleaving


class RandomExplorer(Explorer):
    """Shuffle-and-cache exploration (the paper's Rand mode)."""

    mode = "rand"

    def __init__(
        self,
        events: Sequence[Event],
        meter: Optional[ResourceMeter] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(events, meter)
        self.seed = seed
        self.reshuffles = 0

    def candidates(self) -> Iterator[Interleaving]:
        rng = random.Random(self.seed)
        cache: set = set()
        order = list(self.events)
        while True:
            attempts = 0
            while True:
                rng.shuffle(order)
                key = tuple(event.event_id for event in order)
                if key not in cache:
                    break
                attempts += 1
                self.reshuffles += 1
                # Re-shuffling is not free: the composer burns time (visible
                # in Figure 8b) and scratch space finding a fresh ordering.
                self.meter.charge("rand_reshuffle", 8)
                if attempts >= _MAX_RESHUFFLES:
                    return  # space effectively exhausted for this seed
            cache.add(key)
            self.meter.charge("rand_cache", interleaving_footprint(len(self.events)))
            candidate = tuple(order)
            # Rand composes flat event orders, so it checks them flat.
            if not satisfies_order_constraints(candidate, self.order_constraints):
                if self.metrics is not None:
                    self.metrics.inc("interleavings.invalid")
                continue
            if self.metrics is not None:
                self.metrics.inc("interleavings.generated")
            yield candidate


class ERPiExplorer(Explorer):
    """ER-pi: grouping + minimal-change enumeration + pruning pipeline."""

    mode = "erpi"

    def __init__(
        self,
        events: Sequence[Event],
        meter: Optional[ResourceMeter] = None,
        spec_groups: Optional[Sequence[Tuple[str, str]]] = None,
        pruners: Optional[Iterable[Pruner]] = None,
        order: str = "relocation",
    ) -> None:
        super().__init__(events, meter)
        self.spec_groups = tuple(spec_groups or ())
        self.pipeline = PrunerPipeline(pruners or [])
        self.order = order
        self.grouping: GroupingResult = group_events(self.events, self.spec_groups)
        #: Observers evaluated on *every* generated candidate (pruned or not)
        #: without affecting which candidates are yielded — the soundness
        #: sanitizer's grouping auditor hooks in here.
        self.audit_pruners: List[Pruner] = []

    def candidates(self) -> Iterator[Interleaving]:
        return self._stream(1, 0)

    def sharded_candidates(
        self, workers: int, worker_index: int
    ) -> Iterator[Optional[Interleaving]]:
        """:meth:`candidates`' loop, yielding ``None`` for other workers'
        survivors; pruning and accounting match it at every position."""
        if "candidates" in self.__dict__:
            # Instance-level candidates() instrumentation (crash-injection
            # wrappers, tracing shims) must keep seeing the stream.
            return super().sharded_candidates(workers, worker_index)
        return self._stream(workers, worker_index)

    def _stream(self, workers: int, worker_index: int) -> Iterator[Optional[Interleaving]]:
        """The one ER-pi loop: a candidate stays unit indices until judged, and
        its events are built once, if read or owned by ``worker_index``."""
        # The pipeline traces/counts through the explorer's observability
        # objects (prune:<algorithm> spans, pruned.<algorithm> counters).
        pipeline = self.pipeline
        pipeline.tracer = self.tracer
        pipeline.metrics = metrics = self.metrics
        audits = self.audit_pruners
        for pruner in audits:
            pruner.reset()
        units = self.grouping.units

        @functools.lru_cache(maxsize=1)  # one build per candidate, however many readers
        def events_of(perm: Tuple[int, ...]) -> Interleaving:
            return flatten([units[i] for i in perm])

        eager = pipeline.start_stream(units, events_of) or bool(audits)
        footprint = interleaving_footprint(len(self.events))
        position = 0
        # Masks are compiled per stream: callers set the constraints after
        # construction.  The stream drops an invalid schedule (a recover
        # before its crash) before any pruner sees it; as a class's seen
        # representative it would mask the valid members pruned in its favour.
        for perm in unit_permutation_stream(
            units,
            order=self.order,
            meter=self.meter,
            on_degrade=self._enumeration_degraded,
            masks=unit_order_masks(units, self.order_constraints),
        ):
            interleaving = events_of(perm) if eager else None
            for pruner in audits:
                pruner.is_redundant(interleaving)
            if pipeline.is_redundant(interleaving, perm):
                # Pruned: never replayed, but the seen-set entry costs memory.
                self.meter.charge("erpi_seen", 16)
                # Counted as generated *after* the charge, so a budget crash
                # mid-charge does not break the exploration identity.
                if metrics is not None:
                    metrics.inc("interleavings.generated")
                    metrics.inc("interleavings.pruned")
                continue
            self.meter.charge("erpi_seen", footprint)
            if metrics is not None:
                metrics.inc("interleavings.generated")
            owned = stream_owner(position, workers) == worker_index
            position += 1
            yield events_of(perm) if owned else None

    def bind_semantic(
        self, engines: Sequence[ReplayEngine], assertions: Sequence[Assertion]
    ) -> None:
        for pruner in self.pipeline.pruners:
            bind = getattr(pruner, "bind", None)
            if callable(bind):
                bind(engines, assertions, meter=self.meter)

    def _enumeration_degraded(self, reason: str) -> None:
        """The relocation order's dedup set ran out of budget and the stream
        fell back to exact SJT minimal-change order — loud, not silent."""
        if self.metrics is not None:
            self.metrics.inc("enumeration.degraded")
        if self.tracer is not None:
            self.tracer.end(
                self.tracer.begin("enumeration-degraded"), reason=reason
            )

    def _pruning_stats(self) -> Dict[str, int]:
        stats: Dict[str, int] = {
            "event_grouping": self.grouping.raw_space - self.grouping.grouped_space
        }
        for name, pstats in self.pipeline.stats().items():
            stats[name] = pstats.pruned
        return stats


def build_explorer(
    events: Sequence[Event],
    mode: str = "erpi",
    *,
    spec_groups: Sequence[Tuple[str, str]] = (),
    pruners: Iterable[Pruner] = (),
    faults: Optional[FaultPlan] = None,
    dpor: bool = False,
    sanitizer: Optional[Any] = None,
    seed: int = 0,
    meter: Optional[ResourceMeter] = None,
    tracer: Optional[Any] = None,
    metrics: Optional[Any] = None,
) -> Explorer:
    """Assemble the exploration stack over recorded ``events``.

    The one place a hunt (:func:`repro.bench.harness.hunt` and its process
    workers) and an :class:`~repro.core.session.ErPi` session are put
    together, so the same inputs give the same explorer either way:

    * ``faults`` is compiled against ``events`` (traced as
      ``fault-compile``): its fault events join the schedule, its order
      constraints make schedules that break them invalid, and its
      description is attached to quarantines.  An empty plan changes
      nothing.
    * ``mode`` picks the explorer.  ER-pi takes ``spec_groups`` and
      ``pruners``, plus the DPOR pruner with ``dpor``, and enumerates in
      the relocation order.  DFS and Rand (seeded by ``seed``) are the
      paper's unpruned baselines: they ignore those two and refuse
      ``dpor``.
    * ``tracer`` and ``metrics`` are attached.
    * ``sanitizer`` (a :class:`~repro.core.sanitizer.Sanitizer`) watches
      the explorer's pruning classes.
    """
    schedule = tuple(events)
    compiled = None
    if faults is not None and not faults.is_empty():
        span = tracer.begin("fault-compile") if tracer is not None else None
        compiled = faults.compile(schedule)
        if span is not None:
            tracer.end(span, fault_events=len(compiled.fault_events))
        schedule = compiled.events
    explorer: Explorer
    if mode == "erpi":
        pipeline = list(pruners)
        if dpor:
            pipeline.append(DPORPruner())
        explorer = ERPiExplorer(
            schedule,
            meter=meter,
            spec_groups=spec_groups,
            pruners=pipeline,
        )
    elif dpor:
        raise ValueError(f"--dpor requires the erpi mode, not {mode!r}")
    elif mode == "dfs":
        explorer = DFSExplorer(schedule, meter=meter)
    elif mode == "rand":
        explorer = RandomExplorer(schedule, meter=meter, seed=seed)
    else:
        raise ValueError(f"unknown exploration mode {mode!r}")
    if compiled is not None:
        explorer.order_constraints = compiled.order_constraints
        explorer.fault_events = compiled.fault_events
        explorer.fault_plan_description = faults.describe()
    explorer.tracer = tracer
    explorer.metrics = metrics
    if sanitizer is not None:
        sanitizer.watch(explorer)
    return explorer
