"""Checkpointed hunt coordination with slot respawn (the fault-tolerant hunt).

:class:`~repro.core.procpool.ProcessParallelExplorer` already survives a
worker crash — by quarantining the dead worker's shards and ending the hunt
``crashed``.  :class:`CoordinatedHuntExplorer` turns that same shared-nothing
pool into a hunt that recovers:

* a worker that dies — it reports an error, or a SIGKILL surfaces as EOF on
  its slot's pipe — is **respawned**: a replacement takes the same slot,
  and so the same stream positions, after an exponential backoff, with
  bounded retries.  Each slot's incarnations are logged as ``lease``
  records (``acquired`` / ``expired`` / ``re-leased`` / ``quarantined``)
  in the journal, the ``coordinator.leases.*`` metrics and the Datalog
  facts;
* committed verdicts are checkpointed to a durable
  :class:`~repro.core.journal.HuntJournal` *as they commit*, so a killed
  parent can ``hunt --resume`` the journal: committed verdicts are replayed
  from the checkpoint, workers skip the committed prefix, and the hunt
  continues to the same final verdict map as an uninterrupted run;
* a slot that keeps dying past its retry budget → **the shard is
  quarantined, not the hunt** (the coordinator enumerates the dead slot's
  candidates itself and commits ``quarantine`` verdicts for them, letting
  every other slot finish).

Soundness of respawned commits: candidate enumeration is a deterministic
function of the recorded events, and position ``i`` belongs to slot
``i % workers`` (:func:`~repro.core.explorers.stream_owner`) for every
incarnation of every slot and for the parent's abandoned-shard stream
alike.  The parent still commits strictly in global candidate order,
deduplicating re-delivered results by candidate index (first delivery wins;
replays are deterministic, so duplicates are byte-identical).  A hunt whose
worker was SIGKILLed mid-batch therefore terminates with a verdict map
bit-for-bit equal to an uninterrupted serial hunt's.
"""

from __future__ import annotations

import pickle
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ResourceExhausted
from repro.core.explorers import (
    DEFAULT_CAP,
    ExplorationResult,
    Explorer,
    stream_owner,
)
from repro.core.journal import HuntJournal, JournaledOutcome
from repro.core.procpool import (
    ProcessParallelExplorer,
    QuietWorkerDetector,
    WorkerTask,
)
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.obs.metrics import MetricsRegistry


class CoordinatedHuntExplorer(ProcessParallelExplorer):
    """A process-pool hunt with durable checkpoints and slot respawn.

    Construction mirrors :class:`ProcessParallelExplorer` plus the
    coordination knobs; ``journal`` (a :class:`HuntJournal`) makes commits
    durable and, when the journal already holds commits, turns the run into
    a resume."""

    def __init__(
        self,
        base: Explorer,
        task: WorkerTask,
        workers: int = 2,
        journal: Optional[HuntJournal] = None,
        max_releases: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        hunt_id: Optional[str] = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(base, task, workers=workers, **kwargs)
        self.journal = journal
        self.max_releases = max(0, max_releases)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        if hunt_id is None and journal is not None:
            hunt_id = journal.header.get("hunt", {}).get("hunt_id")
        self.hunt_id = hunt_id or uuid.uuid4().hex[:12]
        self.mode = f"{base.mode}+coord{workers}"
        # Respawn state.
        self._attempts: Dict[int, int] = {w: 1 for w in range(workers)}
        self._respawn_at: Dict[int, float] = {}
        self._abandoned: Set[int] = set()
        self._abandon_reasons: Dict[int, str] = {}
        self._lease_log: List[Tuple[int, int, str]] = []
        self._watermark = 0  # committed candidate indices below this
        # Parent-side candidate stream (built lazily, only for abandoned
        # slots): the event ids of every position it has enumerated.
        self._owner_candidates = None
        self._owner_keys: List[Tuple[str, ...]] = []
        self._owner_exhausted = False
        self._owner_metrics: Optional[MetricsRegistry] = None
        # Resume state (filled from the journal's committed prefix).
        self._resumed: List[Dict[str, Any]] = (
            list(journal.commits) if journal is not None else []
        )

    # -------------------------------------------------------- incarnations

    def _metric(self, name: str, value: int = 1) -> None:
        metrics = self.base.metrics
        if metrics.enabled:
            metrics.inc(name, value)

    def _record_lease(self, slot: int, status: str) -> None:
        """Log one step of a slot's incarnation history."""
        attempt = self._attempts[slot]
        self._lease_log.append((slot, attempt, status))
        if self.journal is not None:
            self.journal.lease(slot, attempt, status)
        self._metric(f"coordinator.leases.{status}")

    def _on_ready(self, widx: int) -> None:
        # A replacement worker finished bootstrapping mid-run (the first
        # incarnations' readiness is consumed by prestart).
        self._record_lease(widx, "re-leased")

    # -------------------------------------------------- crash & respawn

    def _schedule_release(self, widx: int, reason: str) -> None:
        """Retire a dead slot's incarnation and queue its respawn (with
        backoff), or abandon the shard once the retry budget is spent."""
        if widx in self._abandoned or widx in self._respawn_at:
            return
        proc = self._procs[widx]
        if proc.is_alive():
            proc.terminate()  # never two incarnations of one slot at once
        self._record_lease(widx, "expired")
        attempt = self._attempts[widx]
        if attempt > self.max_releases:
            self._abandon(widx, reason)
            return
        backoff = min(
            self.backoff_base_s * (2 ** (attempt - 1)), self.backoff_cap_s
        )
        self._attempts[widx] = attempt + 1
        self._respawn_at[widx] = self.clock() + backoff

    def _respawn_due(self) -> None:
        for widx in [
            w for w, at in self._respawn_at.items() if self.clock() >= at
        ]:
            del self._respawn_at[widx]
            tracer = self.base.tracer
            span = tracer.begin("re-lease") if tracer.enabled else None
            self._procs[widx] = self._spawn_worker(
                widx, skip_below=self._watermark, attempt=self._attempts[widx]
            )
            self._metric("coordinator.releases")
            if span is not None:
                tracer.end(
                    span,
                    slot=widx,
                    attempt=self._attempts[widx],
                    skip_below=self._watermark,
                )

    def _abandon(self, widx: int, reason: str) -> None:
        self._abandoned.add(widx)
        self._abandon_reasons[widx] = reason
        self._record_lease(widx, "quarantined")
        self._metric("coordinator.shards.quarantined")

    def _dead_worker_index(self, finals, errors) -> Optional[int]:
        # Same EOF test as the base pool, but a slot that has already been
        # abandoned or is awaiting its backoff respawn is not "dead" — its
        # recovery is already in flight.
        for widx in sorted(self._eof):
            if (
                widx in finals
                or widx in errors
                or widx in self._abandoned
                or widx in self._respawn_at
            ):
                continue
            return widx
        return None

    # ------------------------------------------------- parent owner stream

    def _ensure_owner_stream(self) -> None:
        if self._owner_candidates is not None:
            return
        explorer, engine, assertions = self.task.build()
        # The owner stream must make byte-identical pruning decisions to the
        # workers' streams, so its pruners are bound the same way (the DPOR
        # pruner is a deterministic function of the schedule).
        explorer.bind_semantic((engine,), assertions)
        if self.base.metrics.enabled:
            self._owner_metrics = MetricsRegistry()
            explorer.metrics = self._owner_metrics
        self._owner_candidates = explorer.candidates()

    def _abandoned_candidate(self, index: int) -> Optional[Tuple[str, ...]]:
        """Event ids of candidate ``index`` when an abandoned slot owns it;
        None when a live slot owns it or the stream (or the cap) ends
        first."""
        owner = stream_owner(index, self.workers)
        if owner not in self._abandoned or index >= self._cap:
            return None
        self._ensure_owner_stream()
        while len(self._owner_keys) <= index and not self._owner_exhausted:
            try:
                interleaving = next(self._owner_candidates, None)
            except ResourceExhausted:
                interleaving = None
            if interleaving is None:
                self._owner_exhausted = True
                break
            self._owner_keys.append(
                tuple(event.event_id for event in interleaving)
            )
        if index < len(self._owner_keys):
            return self._owner_keys[index]
        return None

    # ------------------------------------------------------------- explore

    def explore(
        self,
        engine: ReplayEngine,
        assertions: Sequence[Assertion],
        cap: int = DEFAULT_CAP,
        stop_on_violation: bool = True,
    ) -> ExplorationResult:
        started = time.perf_counter()
        tracer = self.base.tracer
        metrics = self.base.metrics
        progress = self.base.progress

        verdicts: Dict[str, str] = {}
        quarantined: List[QuarantinedReplay] = []
        violating: Optional[InterleavingOutcome] = None
        violation_messages: List[str] = []
        explored = 0
        next_index = 0

        # ---- replay the journal's committed prefix (resume) -------------
        for record in self._resumed:
            verdict = record["verdict"]
            il_key = record["il"]
            next_index += 1
            verdicts[il_key] = verdict
            explored += 1
            if metrics.enabled:
                metrics.inc("coordinator.commits.resumed")
                if verdict == "quarantine":
                    metrics.inc("interleavings.quarantined")
                else:
                    metrics.inc("interleavings.replayed")
            if verdict == "quarantine":
                quarantined.append(
                    QuarantinedReplay(
                        interleaving=tuple(il_key.split("|")) if il_key else (),
                        error_type=record.get("error", "unknown"),
                        message="(resumed from journal)",
                        traceback="",
                        fault_plan=self.base.fault_plan_description,
                    )
                )
            elif verdict == "violation":
                violating = JournaledOutcome(
                    tuple(il_key.split("|")) if il_key else (),
                    record.get("messages", ["(violation resumed from journal)"]),
                )
        self._watermark = next_index

        journal = self.journal
        if journal is not None:
            journal.reopen()

        if violating is not None and stop_on_violation:
            # The previous incarnation already found the bug; nothing to do.
            return self._finish(
                verdicts, quarantined, violating, explored, started,
                crashed=False, crash_reason=None, finals={},
            )

        if not self._started:
            self.prestart(cap=cap, stop_on_violation=stop_on_violation)
        elif cap != self._cap or stop_on_violation != self._stop_on_violation:
            raise ValueError(
                "prestarted pool was configured with different cap/stop settings"
            )
        for widx in range(self.workers):
            self._record_lease(widx, "acquired")

        root = tracer.begin("explore") if tracer.enabled else None
        pending: Dict[int, Tuple[int, str, Any]] = {}
        finals: Dict[int, Dict[str, Any]] = {}
        errors: Dict[int, str] = {}
        crashed = False
        crash_reason: Optional[str] = None

        self._go.set()
        detector = QuietWorkerDetector(
            grace_s=self.dead_worker_grace_s, clock=self.clock
        )
        try:
            done = False
            while not done:
                message = self._next_message(timeout=0.05)
                idle = message is None
                while message is not None:
                    self._dispatch(message, pending, finals, errors)
                    message = self._next_message(timeout=0.0)
                self._respawn_due()
                # ---- commit strictly in candidate order -----------------
                while True:
                    if next_index in pending:
                        index, kind, payload = pending.pop(next_index)
                    else:
                        payload = self._abandoned_candidate(next_index)
                        if payload is None:
                            break
                        kind = "shard-quarantine"
                    next_index += 1
                    self._watermark = next_index
                    if kind == "crashed":
                        # A generation-side budget crash is deterministic:
                        # every incarnation would hit it at the same stream
                        # position, so respawning cannot help.
                        crashed = True
                        crash_reason = payload
                        done = True
                        break
                    explored += 1
                    if kind == "quarantine":
                        quarantined.append(payload)
                        il_key = "|".join(payload.interleaving)
                        verdicts[il_key] = "quarantine"
                        if journal is not None:
                            journal.commit(
                                index=next_index - 1,
                                verdict="quarantine",
                                il_key=il_key,
                                error_type=payload.error_type,
                            )
                        if metrics.enabled:
                            metrics.inc("interleavings.quarantined")
                    elif kind == "shard-quarantine":
                        slot = stream_owner(next_index - 1, self.workers)
                        il_key = "|".join(payload)
                        record = QuarantinedReplay(
                            interleaving=payload,
                            error_type="ShardAbandoned",
                            message=self._abandon_reasons.get(
                                slot, f"shard slot {slot} abandoned"
                            ),
                            traceback="",
                            fault_plan=self.base.fault_plan_description,
                            shard=slot,
                        )
                        quarantined.append(record)
                        verdicts[il_key] = "quarantine"
                        if journal is not None:
                            journal.commit(
                                index=next_index - 1,
                                verdict="quarantine",
                                il_key=il_key,
                                error_type="ShardAbandoned",
                            )
                        if metrics.enabled:
                            metrics.inc("interleavings.quarantined")
                    elif kind == "ok":
                        il_key = "|".join(payload)
                        verdicts[il_key] = "ok"
                        if journal is not None:
                            journal.commit(
                                index=next_index - 1, verdict="ok", il_key=il_key
                            )
                        if metrics.enabled:
                            metrics.inc("interleavings.replayed")
                    else:  # violation
                        il_ids, outcome = payload
                        if isinstance(outcome, (bytes, bytearray)):
                            # Columnar frames defer outcome deserialisation
                            # to the committed index — here.
                            outcome = pickle.loads(outcome)
                        il_key = "|".join(il_ids)
                        verdicts[il_key] = "violation"
                        violating = outcome
                        violation_messages = list(outcome.violations)
                        if journal is not None:
                            journal.commit(
                                index=next_index - 1,
                                verdict="violation",
                                il_key=il_key,
                                messages=tuple(violation_messages),
                            )
                        if metrics.enabled:
                            metrics.inc("interleavings.replayed")
                        if stop_on_violation:
                            done = True
                    if progress is not None and kind != "crashed":
                        progress.tick(metrics)
                    if done:
                        break
                if done:
                    break
                # ---- failure handling -----------------------------------
                for widx in sorted(errors):
                    # A raising worker flushes a partial final before its
                    # error frame; that final must not count as the slot
                    # finishing (its replay-side metrics still merge).
                    stale = finals.pop(widx, None)
                    if stale is not None:
                        self._stale_finals.append(stale)
                    self._schedule_release(
                        widx, f"worker {widx} raised:\n{errors.pop(widx)}"
                    )
                live = [
                    w for w in range(self.workers) if w not in self._abandoned
                ]
                if (
                    all(self._finished(w, finals) for w in live)
                    and not self._respawn_at
                ):
                    # Nothing more can arrive.  Only abandoned-shard commits
                    # can remain; they drain through the commit loop until
                    # a live slot's position or the stream's end stops it.
                    if self._abandoned_candidate(next_index) is None:
                        break
                    continue
                if not idle:
                    detector.activity()
                else:
                    widx = self._dead_worker_index(finals, errors)
                    if widx is None:
                        detector.clear()
                    elif detector.suspect(widx):
                        detector.clear()
                        self._schedule_release(
                            widx,
                            f"worker {widx} died without reporting "
                            f"(exit code {self._procs[widx].exitcode})",
                        )
        finally:
            self._shutdown(drain_finals=finals)
            if metrics.enabled:
                self._merge_metrics(metrics, finals, explored)
            self.base._finish_observation(root, explored, mode=self.mode)
        self._merge_sanitizer(finals)
        if violating is None and not crashed:
            for flush in finals.values():
                if flush["crash_reason"]:
                    crashed = True
                    crash_reason = flush["crash_reason"]
                    break
        if violating is not None and stop_on_violation:
            crashed = False
            crash_reason = None
        return self._finish(
            verdicts, quarantined, violating, explored, started,
            crashed=crashed, crash_reason=crash_reason, finals=finals,
            commit_point=next_index if done else None,
        )

    # ------------------------------------------------------------- finish

    def coordination_summary(self) -> Dict[str, Any]:
        return {
            "hunt_id": self.hunt_id,
            "lease_events": list(self._lease_log),
            "releases": sum(
                1 for _, _, status in self._lease_log if status == "re-leased"
            ),
            "abandoned_shards": sorted(self._abandoned),
            "resumed_commits": len(self._resumed),
            "journal": self.journal.path if self.journal is not None else None,
        }

    def _finish(
        self,
        verdicts: Dict[str, str],
        quarantined: List[QuarantinedReplay],
        violating: Optional[InterleavingOutcome],
        explored: int,
        started: float,
        crashed: bool,
        crash_reason: Optional[str],
        finals: Dict[int, Dict[str, Any]],
        commit_point: Optional[int] = None,
    ) -> ExplorationResult:
        journal = self.journal
        if journal is not None:
            journal.final(
                found=violating is not None,
                explored=explored,
                crashed=crashed,
                crash_reason=crash_reason,
            )
            journal.close()
        canonical = self._canonical_flush(finals)
        pruning_stats = self._pruning_stats_at(finals, commit_point)
        elapsed = time.perf_counter() - started
        result = ExplorationResult(
            mode=self.mode,
            found=violating is not None,
            explored=explored,
            elapsed_s=elapsed,
            crashed=crashed,
            crash_reason=crash_reason,
            violating=violating,
            pruning_stats=pruning_stats,
            quarantined=quarantined,
            fault_events=canonical["fault_events"] if canonical else 0,
            verdicts=verdicts,
            worker_stats=self._worker_stats(finals),
        )
        result.coordination = self.coordination_summary()
        return result

    # --------------------------------------------------------------- merge

    def _merge_metrics(self, metrics, finals, committed: int) -> None:
        canonical = self._canonical_flush(finals)
        parent_enumerated = (
            len(self._owner_keys) if self._owner_metrics is not None else None
        )
        if canonical is not None and (
            parent_enumerated is None or canonical["yields"] >= parent_enumerated
        ):
            super()._merge_metrics(metrics, finals, committed)
            return
        # The parent's own enumeration (for abandoned-shard commits) went
        # furthest — every live worker died or stopped short — so its
        # stream-side counters are the superset.
        if self._owner_metrics is not None:
            metrics.merge_payload(self._owner_metrics.to_payload())
        for flush in list(finals.values()) + self._stale_finals:
            if flush["replay"] is not None:
                metrics.merge_payload(flush["replay"])
        discarded = (parent_enumerated or 0) - committed
        if discarded > 0:
            metrics.inc("interleavings.discarded", discarded)
