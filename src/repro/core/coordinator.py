"""Checkpointed, lease-based hunt coordination (the fault-tolerant hunt).

:class:`~repro.core.procpool.ProcessParallelExplorer` already survives a
worker crash — by quarantining the dead worker's shards and ending the hunt
``crashed``.  :class:`CoordinatedHuntExplorer` turns that same shared-nothing
pool into a service that survives its *own infrastructure* failing:

* every worker slot holds a **time-bounded shard lease**, acquired through
  the :mod:`repro.redisim` Redlock farm (the paper coordinated replay
  ordering over exactly this kind of lock service).  Workers heartbeat over
  the result queue; the coordinator renews their leases (Redlock
  ``compare-and-expire`` on a quorum, drift-aware per
  :class:`~repro.redisim.lock.DistributedLock`);
* a lease that expires because its worker crashed — or was SIGKILLed
  mid-batch — is **re-leased**: the slot's process is fenced (terminated if
  somehow still alive) and a replacement worker is spawned for the same
  shard set after an exponential backoff, with bounded retries;
* the same fencing machinery powers **work stealing**: once the fastest
  shard finishes, a live worker trailing the lead by ``steal_margin``
  stream positions has its lease stolen — fenced and respawned at the
  commit watermark so the trailing suffix runs at full speed — and
  index-deduplicated commits keep the verdict map bit-for-bit identical;
* committed verdicts are checkpointed to a durable
  :class:`~repro.core.journal.HuntJournal` *as they commit*, so a killed
  parent can ``hunt --resume`` the journal: committed verdicts are replayed
  from the checkpoint, workers skip the committed prefix, and the hunt
  continues to the same final verdict map as an uninterrupted run;
* the degradation ladder: lock farm unreachable (no quorum) → leases fall
  back to an in-process :class:`LocalLeaseTable` with a loud ``degraded``
  Datalog fact and metric; a slot that keeps dying past its re-lease budget
  → **the shard is quarantined, not the hunt** (the coordinator enumerates
  the dead slot's candidates itself and commits ``quarantine`` verdicts for
  them, letting every other shard finish).

Soundness of re-leased commits: candidate enumeration is a deterministic
function of the recorded events, every worker (original or replacement)
derives the identical stream and shard ownership, and the parent still
commits strictly in global candidate order, deduplicating re-delivered
results by candidate index (first delivery wins; replays are deterministic,
so duplicates are byte-identical).  A hunt whose worker was SIGKILLed
mid-batch therefore terminates with a verdict map bit-for-bit equal to an
uninterrupted serial hunt's.
"""

from __future__ import annotations

import pickle
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ResourceExhausted
from repro.core.explorers import DEFAULT_CAP, ExplorationResult, Explorer
from repro.core.journal import HuntJournal, JournaledOutcome
from repro.core.procpool import (
    PrefixShardRouter,
    ProcessParallelExplorer,
    QuietWorkerDetector,
    WorkerTask,
    _stream_width,
    auto_prefix_len,
)
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.obs.metrics import MetricsRegistry
from repro.redisim.farm import RedisimFarm
from repro.redisim.lock import DistributedLock

# ----------------------------------------------------------------- leases


class RedlockLeaseTable:
    """Shard leases as Redlock mutexes over a redisim farm.

    One :class:`~repro.redisim.lock.DistributedLock` per worker slot, keyed
    ``erpi:hunt:<hunt_id>:shard:<slot>``.  Acquisition, renewal and expiry
    all follow the drift-aware Redlock validity rules; ``reachable`` reports
    whether a quorum of lock instances is still up (the degradation
    trigger).
    """

    kind = "redlock"

    def __init__(
        self,
        farm: RedisimFarm,
        hunt_id: str,
        ttl_s: float,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.farm = farm
        self.hunt_id = hunt_id
        self.ttl_ms = max(int(ttl_s * 1000), 1)
        self.clock = clock
        self._locks: Dict[int, DistributedLock] = {}

    def _key(self, slot: int) -> str:
        return f"erpi:hunt:{self.hunt_id}:shard:{slot}"

    def acquire(self, slot: int) -> bool:
        lock = DistributedLock(
            self.farm, self._key(slot), ttl_ms=self.ttl_ms, clock=self.clock
        )
        if lock.try_acquire():
            self._locks[slot] = lock
            return True
        return False

    def renew(self, slot: int) -> bool:
        lock = self._locks.get(slot)
        return lock is not None and lock.held and lock.renew()

    def held(self, slot: int) -> bool:
        lock = self._locks.get(slot)
        return lock is not None and lock.held

    def release(self, slot: int) -> None:
        lock = self._locks.pop(slot, None)
        if lock is not None and lock.held:
            lock.release()

    def release_all(self) -> None:
        for slot in list(self._locks):
            self.release(slot)

    def reachable(self) -> bool:
        return len(self.farm.healthy_instances()) >= self.farm.quorum


class LocalLeaseTable:
    """In-process lease table: the degraded fallback when the lock farm has
    no quorum.  Same interface, plain deadlines on the coordinator's clock —
    still enforces TTL semantics, just without distribution."""

    kind = "local"

    def __init__(
        self, ttl_s: float, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.ttl_s = ttl_s
        self.clock = clock or time.monotonic
        self._deadlines: Dict[int, float] = {}

    def acquire(self, slot: int) -> bool:
        if slot in self._deadlines and self._deadlines[slot] > self.clock():
            return False
        self._deadlines[slot] = self.clock() + self.ttl_s
        return True

    def renew(self, slot: int) -> bool:
        if self.held(slot):
            self._deadlines[slot] = self.clock() + self.ttl_s
            return True
        return False

    def held(self, slot: int) -> bool:
        deadline = self._deadlines.get(slot)
        return deadline is not None and self.clock() < deadline

    def release(self, slot: int) -> None:
        self._deadlines.pop(slot, None)

    def release_all(self) -> None:
        self._deadlines.clear()

    def reachable(self) -> bool:
        return True


# ------------------------------------------------------------ coordinator


class CoordinatedHuntExplorer(ProcessParallelExplorer):
    """A process-pool hunt with durable checkpoints and shard re-leasing.

    Construction mirrors :class:`ProcessParallelExplorer` plus the
    coordination knobs; ``journal`` (a :class:`HuntJournal`) makes commits
    durable and, when the journal already holds commits, turns the run into
    a resume.  ``farm`` supplies the Redlock lease substrate (a private
    3-instance farm is built when omitted)."""

    def __init__(
        self,
        base: Explorer,
        task: WorkerTask,
        workers: int = 2,
        journal: Optional[HuntJournal] = None,
        farm: Optional[RedisimFarm] = None,
        lease_ttl_s: float = 5.0,
        heartbeat_interval_s: Optional[float] = None,
        max_releases: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        checkpoint_every: int = 64,
        hunt_id: Optional[str] = None,
        steal_margin: Optional[int] = 512,
        **kwargs: Any,
    ) -> None:
        super().__init__(
            base,
            task,
            workers=workers,
            heartbeat_interval_s=(
                heartbeat_interval_s
                if heartbeat_interval_s is not None
                else lease_ttl_s / 3.0
            ),
            **kwargs,
        )
        self.journal = journal
        self.lease_ttl_s = lease_ttl_s
        self.max_releases = max(0, max_releases)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.checkpoint_every = max(1, checkpoint_every)
        #: Work stealing: when a live, heartbeating worker trails the lead
        #: (the furthest final flush) by at least this many stream
        #: positions, its lease is stolen — the slot is fenced and respawned
        #: at the commit watermark through the existing re-lease machinery —
        #: so a skewed shard's tail does not serialise the hunt.  ``None``
        #: or 0 disables stealing; each slot is stolen at most once per run.
        self.steal_margin = steal_margin
        if hunt_id is None and journal is not None:
            hunt_id = journal.header.get("hunt", {}).get("hunt_id")
        self.hunt_id = hunt_id or uuid.uuid4().hex[:12]
        self.farm = farm if farm is not None else RedisimFarm(
            3, name_prefix=f"lease-{self.hunt_id}"
        )
        self.mode = f"{base.mode}+coord{workers}"
        # Lease machinery state.
        self._lease_table: Optional[object] = None
        self._leased: Set[int] = set()
        self._attempts: Dict[int, int] = {w: 1 for w in range(workers)}
        self._respawn_at: Dict[int, float] = {}
        self._abandoned: Set[int] = set()
        self._abandon_reasons: Dict[int, str] = {}
        self._degraded_reason: Optional[str] = None
        self._lease_log: List[Tuple[int, int, str]] = []
        self._checkpoint_seq = 0
        # Work-stealing state: last heartbeated stream position per slot,
        # slots already stolen from, and the steal count for the summary.
        self._progress: Dict[int, int] = {}
        self._stolen: Set[int] = set()
        self._steals = 0
        self._watermark = 0  # committed candidate indices below this
        # Parent-side owner stream (built lazily, only for abandoned slots).
        self._owner_candidates = None
        self._owner_router: Optional[PrefixShardRouter] = None
        self._owners: List[Optional[Tuple[int, Tuple[str, ...]]]] = []
        self._owner_exhausted = False
        self._owner_metrics: Optional[MetricsRegistry] = None
        # Resume state (filled from the journal's committed prefix).
        self._resumed: List[Dict[str, Any]] = (
            list(journal.commits) if journal is not None else []
        )

    # ------------------------------------------------------------- leases

    def _metric(self, name: str, value: int = 1) -> None:
        metrics = self.base.metrics
        if metrics.enabled:
            metrics.inc(name, value)

    def _record_lease(self, slot: int, status: str) -> None:
        attempt = self._attempts[slot]
        self._lease_log.append((slot, attempt, status))
        if self.journal is not None:
            self.journal.lease(slot, attempt, status)
        self._metric(f"coordinator.leases.{status}")

    def _degrade(self, component: str, reason: str) -> None:
        if self._degraded_reason is not None:
            return
        self._degraded_reason = f"{component}: {reason}"
        if self.journal is not None:
            self.journal.degraded(component, reason)
        metrics = self.base.metrics
        if metrics.enabled:
            metrics.inc("coordinator.degraded")
        tracer = self.base.tracer
        if tracer.enabled:
            tracer.end(tracer.begin("degraded"), component=component, reason=reason)

    def _make_lease_table(self) -> object:
        table = RedlockLeaseTable(
            self.farm, self.hunt_id, self.lease_ttl_s, clock=self.clock
        )
        if not table.reachable():
            self._degrade(
                "lock-farm",
                "no quorum of lock instances reachable; "
                "leases held in-process",
            )
            return LocalLeaseTable(self.lease_ttl_s, clock=self.clock)
        return table

    def _degrade_to_local(self, reason: str) -> None:
        """Migrate every live lease into the in-process fallback table."""
        self._degrade("lock-farm", reason)
        if isinstance(self._lease_table, LocalLeaseTable):
            return
        local = LocalLeaseTable(self.lease_ttl_s, clock=self.clock)
        for slot in list(self._leased):
            local.acquire(slot)
        self._lease_table = local

    def _arm_lease(self, slot: int, status: str = "acquired") -> None:
        table = self._lease_table
        if table is None:
            return
        tracer = self.base.tracer
        span = tracer.begin("lease") if tracer.enabled else None
        table.release(slot)
        ok = table.acquire(slot)
        if not ok and not table.reachable():
            self._degrade_to_local("lock farm lost quorum during acquisition")
            ok = self._lease_table.acquire(slot)
        if span is not None:
            tracer.end(span, slot=slot, status=status, ok=ok)
        if ok:
            self._leased.add(slot)
            self._record_lease(slot, status)

    def _on_ready(self, widx: int) -> None:
        # A replacement worker finished bootstrapping mid-run: its lease
        # starts now (bootstrap time must not eat the validity window).
        if widx not in self._leased and widx not in self._abandoned:
            self._arm_lease(
                widx, "acquired" if self._attempts[widx] == 1 else "re-leased"
            )

    def _on_heartbeat(self, widx: int, yields: int) -> None:
        self._progress[widx] = yields
        table = self._lease_table
        if table is None or widx not in self._leased:
            return
        tracer = self.base.tracer
        span = tracer.begin("renew") if tracer.enabled else None
        ok = table.renew(widx)
        if span is not None:
            tracer.end(span, slot=widx, ok=ok)
        if ok:
            self._metric("coordinator.leases.renewed")
            return
        if not table.reachable():
            self._degrade_to_local("lock farm lost quorum during renewal")
            self._lease_table.renew(widx)
            return
        # The lease genuinely lapsed (e.g. the coordinator was descheduled
        # past the TTL) but the worker is alive and beating: re-acquire the
        # now-free key rather than fencing a healthy worker.
        self._leased.discard(widx)
        self._arm_lease(widx, "re-acquired")

    # ------------------------------------------------------- crash & re-lease

    def _schedule_release(
        self, widx: int, reason: str, status: str = "expired"
    ) -> None:
        """Fence a dead/expired/stolen slot and queue its re-lease (with
        backoff), or abandon the shard once the retry budget is exhausted."""
        if widx in self._abandoned or widx in self._respawn_at:
            return
        proc = self._procs[widx]
        if proc.is_alive():
            proc.terminate()  # fencing: its lease is gone, so is its right to run
        self._leased.discard(widx)
        if self._lease_table is not None:
            self._lease_table.release(widx)
        self._record_lease(widx, status)
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
        self._leased.discard(widx)
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

    def _check_leases(self) -> None:
        """Expired lease = crashed worker (it stopped heartbeating): fence
        and re-lease.  Only armed leases are checked, so a replacement still
        bootstrapping is never misdeclared."""
        table = self._lease_table
        if table is None:
            return
        for widx in list(self._leased):
            if widx in self._abandoned or widx in self._respawn_at:
                continue
            if not table.held(widx):
                if self._procs[widx].is_alive():
                    # Farm hiccup or a descheduled parent, not a dead worker.
                    self._leased.discard(widx)
                    self._arm_lease(widx, "re-acquired")
                else:
                    self._schedule_release(
                        widx, f"lease expired with worker {widx} dead"
                    )

    def _maybe_steal(self, finals: Dict[int, Dict[str, Any]]) -> None:
        """Steal the lease of a worker trailing the lead past the margin.

        Skew shows up once the fastest shard finishes: its final flush
        fixes the lead position, and a live laggard that has heartbeated at
        least once (no spurious steal before the first beat) and trails by
        ``steal_margin`` stream positions gets fenced and respawned at the
        commit watermark — running the stolen suffix at full speed on a
        fresh process.  Dedup-by-index keeps the verdict map identical no
        matter how the original's in-flight frames interleave with the
        thief's.
        """
        margin = self.steal_margin
        if not margin or not finals:
            return
        lead = max(flush["yields"] for flush in finals.values())
        for widx in range(self.workers):
            if (
                widx in finals
                or widx in self._abandoned
                or widx in self._respawn_at
                or widx in self._stolen
                or widx not in self._leased
            ):
                continue
            progress = self._progress.get(widx)
            if progress is None or lead - progress < margin:
                continue
            self._stolen.add(widx)
            self._steals += 1
            self._metric("coordinator.steals")
            self._schedule_release(
                widx,
                f"worker {widx} trailing the lead by "
                f"{lead - progress} stream positions",
                status="stolen",
            )

    # ------------------------------------------------- parent owner stream

    def _ensure_owner_stream(self) -> None:
        if self._owner_candidates is not None:
            return
        explorer, engine, assertions, _audit = self.task.build()
        # The owner stream must make byte-identical pruning decisions to the
        # workers' streams, so its pruners are bound the same way (the DPOR
        # pruner is a deterministic function of the schedule).
        explorer.bind_semantic((engine,), assertions)
        if self.base.metrics.enabled:
            self._owner_metrics = MetricsRegistry()
            explorer.metrics = self._owner_metrics
        prefix_len = self.prefix_len or auto_prefix_len(
            _stream_width(explorer), self.workers
        )
        self._owner_router = PrefixShardRouter(self.workers, prefix_len)
        self._owner_candidates = explorer.candidates()

    def _owner_of(self, index: int) -> Optional[Tuple[int, Tuple[str, ...]]]:
        """(owner slot, event ids) of global candidate ``index``; None when
        the stream (or the cap) ends first."""
        if index >= (self._cap or 0):
            return None
        self._ensure_owner_stream()
        while len(self._owners) <= index and not self._owner_exhausted:
            if len(self._owners) >= self._cap:
                break
            try:
                interleaving = next(self._owner_candidates, None)
            except ResourceExhausted:
                interleaving = None
            if interleaving is None:
                self._owner_exhausted = True
                break
            self._owners.append(
                (
                    self._owner_router.owner(interleaving),
                    tuple(event.event_id for event in interleaving),
                )
            )
        if index < len(self._owners):
            return self._owners[index]
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
        self._lease_table = self._make_lease_table()
        for widx in range(self.workers):
            self._arm_lease(widx, "acquired")

        root = tracer.begin("explore") if tracer.enabled else None
        pending: Dict[int, Tuple[int, str, Any]] = {}
        finals: Dict[int, Dict[str, Any]] = {}
        errors: Dict[int, str] = {}
        crashed = False
        crash_reason: Optional[str] = None
        commits_since_checkpoint = 0

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
                    elif self._abandoned:
                        owned = self._owner_of(next_index)
                        if owned is not None and owned[0] in self._abandoned:
                            kind, payload = "shard-quarantine", owned
                        else:
                            break
                    else:
                        break
                    next_index += 1
                    self._watermark = next_index
                    if kind == "crashed":
                        # A generation-side budget crash is deterministic:
                        # every incarnation would hit it at the same stream
                        # position, so re-leasing cannot help.
                        crashed = True
                        crash_reason = payload
                        done = True
                        break
                    explored += 1
                    commits_since_checkpoint += 1
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
                        slot, il_ids = payload
                        il_key = "|".join(il_ids)
                        record = QuarantinedReplay(
                            interleaving=il_ids,
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
                    if (
                        journal is not None
                        and commits_since_checkpoint >= self.checkpoint_every
                    ):
                        self._checkpoint(next_index)
                        commits_since_checkpoint = 0
                    if done:
                        break
                if done:
                    break
                # ---- failure handling -----------------------------------
                for widx in sorted(errors):
                    self._schedule_release(
                        widx, f"worker {widx} raised:\n{errors.pop(widx)}"
                    )
                live = [
                    w for w in range(self.workers) if w not in self._abandoned
                ]
                if all(w in finals for w in live) and not self._respawn_at:
                    if not self._abandoned:
                        break
                    # Only abandoned-shard commits can remain; they drain
                    # through the commit loop until the owner stream ends.
                    if self._owner_of(next_index) is None:
                        break
                    continue
                if not idle:
                    detector.activity()
                else:
                    self._check_leases()
                    self._maybe_steal(finals)
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
            if self._lease_table is not None:
                self._lease_table.release_all()
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

    def _checkpoint(self, committed: int) -> None:
        tracer = self.base.tracer
        span = tracer.begin("checkpoint") if tracer.enabled else None
        self._checkpoint_seq += 1
        self.journal.checkpoint(self._checkpoint_seq, committed)
        self._metric("coordinator.checkpoints")
        if span is not None:
            tracer.end(span, seq=self._checkpoint_seq, committed=committed)

    def coordination_summary(self) -> Dict[str, Any]:
        return {
            "hunt_id": self.hunt_id,
            "backend": (
                self._lease_table.kind if self._lease_table is not None else None
            ),
            "degraded": self._degraded_reason is not None,
            "degraded_reason": self._degraded_reason,
            "lease_events": list(self._lease_log),
            "releases": sum(
                1 for _, _, status in self._lease_log if status == "re-leased"
            ),
            "abandoned_shards": sorted(self._abandoned),
            "steals": self._steals,
            "checkpoints": self._checkpoint_seq,
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
            self._checkpoint(explored)  # compact the tail
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
            len(self._owners) if self._owner_metrics is not None else None
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
