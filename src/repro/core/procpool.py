"""Shared-nothing multiprocess exploration with index-striped ownership.

:class:`ProcessParallelExplorer` fans replays out over ``multiprocessing``
workers that share **nothing**: each worker rebuilds its own cluster,
:class:`~repro.core.replay.ReplayEngine`, pruner pipeline and per-worker
metrics registries from a picklable task (a hunt's
:class:`~repro.bench.harness.HuntConfig`), so replays
proceed on separate cores with zero cross-process synchronisation on the
hot path (a thread pool would serialise pure-CPU replays on the GIL).

Determinism is preserved without shipping candidates at all:

* every worker walks the **full** candidate stream's positions locally.
  Candidate generation — grouping, enumeration order, validity filtering
  and the pruner pipeline — is a deterministic function of the recorded
  events, so all workers (and a serial run) agree on every candidate
  index;
* a worker *replays* only the positions it owns: position ``i`` belongs to
  worker ``i % workers`` (:func:`~repro.core.explorers.stream_owner`, the
  same rule the parent uses for an abandoned slot's positions).  Ownership
  follows from the index alone, so every worker's share is within one
  candidate of every other's.
  The ER-pi explorer's *sharded* stream
  (:meth:`~repro.core.explorers.Explorer.sharded_candidates`) skips
  foreign positions and pruned candidates without ever flattening them,
  while stream accounting (meter charges, generated counts, budget-crash
  positions) stays identical to the full stream;
* verdicts stream back as **columnar frames** (:class:`AdaptiveBatcher`):
  event ids are interned as positions into the shared schedule — both
  sides derive the identical table independently — verdict records are
  flat parallel arrays, and only violations/quarantines/crashes carry a
  Python object, with violation outcomes shipped as pickle bytes that the
  parent deserialises lazily at commit time (duplicate deliveries from a
  respawned slot are deduplicated *before* they are ever unpickled).
  Frames size themselves adaptively — start small for low latency, double
  on every full flush up to ``batch_size``, and flush early on an idle
  deadline so a slow worker's verdicts (and the watermark they advance)
  never sit in a half-full buffer.  The parent **commits records strictly
  in candidate order**, so the reported first violation and the explored
  count are bit-for-bit identical to a serial hunt.

Each worker slot gets its **own one-writer pipe** to the parent rather than
a shared ``multiprocessing.Queue``.  The shared queue serialises writers
through one cross-process lock held by a feeder thread — a worker SIGKILLed
mid-flush dies holding it and every surviving (and replacement) worker then
deadlocks on its next send.  With per-slot pipes there is no shared lock to
poison, a dead worker's half-written frame confines the damage to its own
channel, and the kernel closing the write end turns worker death into an
explicit EOF the parent observes instead of a silent hang.  The pool's one
failure policy builds on that EOF: a dead slot is respawned in place, and
abandoned once it has died too often (see :class:`ProcessParallelExplorer`).

The exploration identity ``generated == pruned + replayed + quarantined +
discarded`` survives the shard merge: stream-side counters (generated,
pruned, and invalid, which only Rand counts) are taken from the worker that
enumerated furthest (its stream is a superset of every other worker's, and
of the committed run), replay-side counters are summed across workers, the
parent counts replayed/quarantined itself at commit time, and ``discarded``
is defined as ``furthest_yields - committed`` (non-negative because the
owner of the last committed candidate enumerated at least that far).
Per-pruner prune counts are read at the commit point instead: each worker
ships its counts at every stream position where they changed, so a hunt
that stops on a violation reports the prunes a serial hunt made, not those
of the furthest worker.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection as mp_connection
import pickle
import signal
import time
import traceback
import uuid
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import ResourceExhausted
from repro.core.explorers import (
    DEFAULT_CAP,
    ExplorationResult,
    Explorer,
    stream_owner,
)
from repro.core.journal import HuntJournal, JournaledOutcome
from repro.core.replay import Assertion, ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.obs.metrics import MetricsRegistry

#: How long ``prestart`` waits for every worker to bootstrap (seconds).
_BOOTSTRAP_TIMEOUT_S = 120.0
#: The longest backoff before a dead slot is respawned (seconds).
_BACKOFF_CAP_S = 2.0
#: How many candidates a worker pulls between checks of the shared stop
#: flag (each check is a semaphore acquisition, too hot to pay per
#: candidate).
_STOP_STRIDE = 32


@dataclass(frozen=True)
class CallableWorkerTask:
    """Rebuild from a module-level factory (the bench harness's spec).

    ``factory`` must be importable by reference (a plain module-level
    function), so the task pickles as a name, not as captured state.
    """

    factory: Any
    args: Tuple[Any, ...] = ()

    def build(self) -> Tuple[Explorer, ReplayEngine, Sequence[Assertion]]:
        return self.factory(*self.args)


# ------------------------------------------------------------- columnar IPC

#: Verdict kind codes for columnar frames.  Codes below ``_KIND_VIOLATION``
#: are fully described by (index, kind, event positions); codes at or above
#: it carry exactly one entry in the frame's ``other`` list.
_KIND_OK = 0
_KIND_VIOLATION = 1
_KIND_QUARANTINE = 2
_KIND_CRASHED = 3

#: Distinguishes "stream exhausted" from "foreign position" in the
#: sharded candidate stream, where ``None`` is a legitimate yield.
_EXHAUSTED = object()


def _send_counted(conn, obj: Any) -> int:
    """Send one frame and return its wire size in bytes.

    ``Connection.send`` pickles internally but never reveals the size, so
    frames whose bytes we account (everything a worker ships except the
    final flush) are pickled here and pushed through ``send_bytes`` — the
    receiving ``Connection.recv`` unpickles either form identically.
    """
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(data)
    return len(data)


#: The frame size an :class:`AdaptiveBatcher` starts at (capped at its cap).
_MIN_BATCH = 8


class AdaptiveBatcher:
    """Columnar verdict buffer with adaptive sizing and an idle deadline.

    Records accumulate into flat parallel arrays — candidate indices
    (``array('I')``), kind codes (bytes), concatenated event *positions*
    with per-record lengths (``array('I')`` twice) — plus an ``other`` list
    holding the one payload object of each violation/quarantine/crash.
    A frame of N ok-verdicts therefore pickles as a handful of contiguous
    buffers instead of N tuples of N-string event-id tuples.

    Sizing is adaptive: the batch starts small (low first-verdict latency),
    doubles every time it fills (amortising per-frame cost under load) and
    is capped at the configured ``batch_size``.  ``due()`` reports when a
    partial buffer has waited at least ``idle_flush_s`` since the last
    flush, so trailing verdicts ship promptly even when replays are slow.
    The clock is injectable for deterministic tests.
    """

    __slots__ = ("cap", "size", "idle_flush_s", "_clock", "_last_flush",
                 "indices", "kinds", "ev", "ev_lens", "other")

    def __init__(
        self,
        cap: int,
        idle_flush_s: float = 0.05,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.cap = max(1, cap)
        self.size = min(_MIN_BATCH, self.cap)
        self.idle_flush_s = idle_flush_s
        self._clock = clock or time.monotonic
        self._last_flush = self._clock()
        self._reset()

    def _reset(self) -> None:
        self.indices = array("I")
        self.kinds = bytearray()
        self.ev = array("I")
        self.ev_lens = array("I")
        self.other: List[Any] = []

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def full(self) -> bool:
        return len(self.indices) >= self.size

    def add(self, index: int, kind: int,
            ev_positions: Optional[Iterable[int]], other: Any = None) -> None:
        self.indices.append(index)
        self.kinds.append(kind)
        if ev_positions is not None:
            before = len(self.ev)
            self.ev.extend(ev_positions)
            self.ev_lens.append(len(self.ev) - before)
        else:
            self.ev_lens.append(0)
        if kind >= _KIND_VIOLATION:
            self.other.append(other)

    def due(self) -> bool:
        """True when a non-empty partial buffer has idled past the deadline."""
        if not self.indices:
            return False
        return self._clock() - self._last_flush >= self.idle_flush_s

    def flush(self, grow: bool = False):
        """Detach and return the frame payload (``None`` when empty).

        ``grow=True`` — used when flushing because the buffer filled —
        doubles the target size up to the cap; deadline flushes pass False
        so a slow trickle of verdicts keeps its low-latency small batches.
        """
        self._last_flush = self._clock()
        if not self.indices:
            return None
        frame = (self.indices, bytes(self.kinds), self.ev, self.ev_lens,
                 self.other)
        self._reset()
        if grow:
            self.size = min(self.size * 2, self.cap)
        return frame


# ------------------------------------------------------------ worker process


@dataclass(frozen=True)
class _WorkerConfig:
    worker_index: int
    workers: int
    cap: int
    stop_on_violation: bool
    collect_metrics: bool
    batch_size: int
    #: Candidates below this global index are already committed (a resumed
    #: hunt or a respawned slot): enumerate them for stream determinism,
    #: but skip the replay — the parent already holds their verdicts.
    skip_below: int = 0
    #: Which incarnation of this slot the worker is (1 = original, 2+ =
    #: respawned replacements).  Stamped into the worker's metrics payload
    #: epochs so the parent merges each (slot, attempt) at most once even
    #: when a dead predecessor's partial flush and its replacement's full
    #: flush both reach the merge.
    attempt: int = 1


def _worker_main(task, config, conn, stop_event, go_event) -> None:
    """Entry point of one exploration worker process.

    ``conn`` is this slot's private send-end pipe: all frames — ready,
    batches, the final flush, errors — go through it, and the
    kernel closing it on process exit is the parent's EOF death signal.
    """
    # The parent owns shutdown: a Ctrl-C lands there, which sets the stop
    # flag and drains; workers must not die mid-send from the same SIGINT.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    widx = config.worker_index
    try:
        runtime = _build_worker_runtime(task, config)
        conn.send(("ready", widx))
        go_event.wait()
        _run_worker(runtime, config, conn, stop_event)
    except BaseException:
        try:
            conn.send(("error", widx, traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already torn down
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass


class _WorkerRuntime:
    __slots__ = ("explorer", "engine", "assertions",
                 "stream_metrics", "replay_metrics")

    def __init__(self, explorer, engine, assertions,
                 stream_metrics, replay_metrics) -> None:
        self.explorer = explorer
        self.engine = engine
        self.assertions = assertions
        self.stream_metrics = stream_metrics
        self.replay_metrics = replay_metrics


def _build_worker_runtime(task, config: _WorkerConfig) -> _WorkerRuntime:
    explorer, engine, assertions = task.build()
    stream_metrics = replay_metrics = None
    if config.collect_metrics:
        # Two shards per worker: the explorer writes stream-side counters
        # (generated / pruned; invalid only under Rand), the engine writes
        # replay-side ones (messages, durations).  The parent merges them
        # under different rules — see ProcessParallelExplorer._merge_metrics.
        stream_metrics = MetricsRegistry()
        replay_metrics = MetricsRegistry()
        explorer.metrics = stream_metrics
        engine.metrics = replay_metrics
    # Bind the semantic pruners exactly as a serial explore() would (the
    # worker loop pulls candidates() directly, bypassing explore()).
    explorer.bind_semantic((engine,), assertions)
    return _WorkerRuntime(
        explorer, engine, assertions, stream_metrics, replay_metrics,
    )


def _run_worker(runtime: _WorkerRuntime, config: _WorkerConfig,
                conn, stop_event) -> None:
    widx = config.worker_index
    explorer = runtime.explorer
    engine = runtime.engine
    assertions = runtime.assertions
    # Sharded enumeration: the explorer yields owned candidates and ``None``
    # for foreign stream positions (which still consume an index).  ER-pi
    # flattens only this worker's survivors; the default generates the
    # full stream and filters.
    candidates = explorer.sharded_candidates(config.workers, widx)
    # Event-id interning table: both sides derive positions into the shared
    # schedule independently, so frames carry small ints instead of strings.
    eidx = {event.event_id: pos for pos, event in enumerate(explorer.events)}
    batcher = AdaptiveBatcher(config.batch_size)
    # Per-pruner prune counts as of each stream position, stored flat as
    # (yields, count, count, ...) runs and only when a count changed: the
    # parent reads them at its commit point, so prunes this worker made
    # past that point never reach the result.
    pipeline = getattr(explorer, "pipeline", None)
    pruners = pipeline.pruners if pipeline is not None else ()
    prune_points = array("q")
    last_counts: Tuple[int, ...] = (0,) * len(pruners)
    yields = 0
    materialized = 0
    ipc_bytes = 0
    crash_reason: Optional[str] = None
    stopped_on_own_violation = False

    def ship(grow: bool) -> None:
        nonlocal ipc_bytes
        frame = batcher.flush(grow=grow)
        if frame is not None:
            ipc_bytes += _send_counted(conn, ("cbatch", widx, frame))

    def record(index: int, kind: int,
               positions: Optional[List[int]], other: Any = None) -> None:
        batcher.add(index, kind, positions, other)
        if batcher.full:
            ship(grow=True)

    try:
        # Mirrors the serial loop's check-before-pull cap semantics, so a
        # capped run's stream counters match a capped serial run exactly.
        while yields < config.cap:
            if yields % _STOP_STRIDE == 0:
                if stop_event.is_set():
                    break
                if batcher.due():
                    ship(grow=False)
            try:
                interleaving = next(candidates, _EXHAUSTED)
            except ResourceExhausted as exc:
                crash_reason = str(exc)
                break
            if interleaving is _EXHAUSTED:
                break
            index = yields
            yields += 1
            if pruners:
                counts = tuple([pruner.stats.pruned for pruner in pruners])
                if counts != last_counts:
                    prune_points.append(yields)
                    prune_points.extend(counts)
                    last_counts = counts
            if interleaving is None:
                # Foreign position: it is consumed (indices stay
                # aligned across workers) but nothing was materialised.
                continue
            materialized += 1
            if index < config.skip_below:
                # Already committed by the parent in a previous incarnation
                # of this hunt; re-replaying it would only produce a result
                # the parent will deduplicate away.
                continue
            try:
                outcome = engine.replay(interleaving, assertions)
            except ResourceExhausted as exc:
                record(index, _KIND_CRASHED, None, other=str(exc))
                crash_reason = str(exc)
                break
            except Exception as exc:
                record(index, _KIND_QUARANTINE, None,
                       other=explorer._quarantine(interleaving, exc))
                engine.restore()
            else:
                positions = [eidx[event.event_id] for event in interleaving]
                if outcome.violated:
                    # Shipping the whole outcome keeps the parent's result
                    # identical to a serial run's.  It rides the frame as
                    # pickle bytes the parent defers deserialising until
                    # (unless) this index actually commits.  Pickling reads
                    # its states before the next replay, and never ships
                    # the cluster.
                    record(index, _KIND_VIOLATION, positions,
                           other=pickle.dumps(
                               outcome, protocol=pickle.HIGHEST_PROTOCOL))
                    if config.stop_on_violation:
                        # This worker cannot contribute anything the parent
                        # will commit past its own first violation.
                        stopped_on_own_violation = True
                        break
                else:
                    record(index, _KIND_OK, positions)
            if batcher.due():
                ship(grow=False)
    except BaseException:
        # Anything unexpected (the replay loop's own bugs, a pickling
        # failure, SIGTERM-as-exception) must reach the parent through the
        # final flush: the parent treats "every worker flushed" as run
        # completion, so a silent partial exit would truncate the results
        # instead of failing them.
        if crash_reason is None:
            crash_reason = traceback.format_exc()
        raise
    finally:
        ship(grow=False)
        conn.send(("final", widx, _worker_flush(
            runtime, config, yields, crash_reason, stopped_on_own_violation,
            materialized, ipc_bytes, [pruner.name for pruner in pruners],
            prune_points,
        )))


def _worker_flush(runtime: _WorkerRuntime, config: _WorkerConfig, yields: int,
                  crash_reason: Optional[str], stopped: bool,
                  materialized: int, ipc_bytes: int, pruner_names: List[str],
                  prune_points: array) -> Dict[str, Any]:
    explorer = runtime.explorer
    flush: Dict[str, Any] = {
        "yields": yields,
        "materialized": materialized,
        "ipc_bytes": ipc_bytes,
        "crash_reason": crash_reason,
        "stopped_on_violation": stopped,
        "pruning_stats": explorer._pruning_stats(),
        "pruner_names": pruner_names,
        "prune_points": prune_points,
        "fault_events": sum(1 for event in explorer.events if event.is_fault),
        "meter": dict(explorer.meter.by_category),
        "stream": None,
        "replay": None,
    }
    if runtime.stream_metrics is not None:
        widx = config.worker_index
        flush["stream"] = runtime.stream_metrics.to_payload(
            epoch=("stream", widx, config.attempt)
        )
        flush["replay"] = runtime.replay_metrics.to_payload(
            epoch=("replay", widx, config.attempt)
        )
    return flush


# ------------------------------------------------------------------- parent


class ProcessParallelExplorer:
    """Drive a pool of shared-nothing exploration workers.

    ``base`` (the parent's explorer) supplies the mode label, the schedule
    and the observability objects.  ``explore`` matches the serial
    ``Explorer.explore`` signature and return type, and its committed
    results are bit-for-bit those of a serial run.

    ``task`` is the recipe each worker rebuilds the whole stack from in its
    own process: its ``build()`` returns ``(explorer, engine, assertions)``,
    a fresh explorer over the recorded schedule, a checkpointed
    :class:`ReplayEngine` over a fresh cluster and the scenario's
    assertions.  Everything it needs comes from its own picklable fields,
    never from module-level state, so the bootstrap is safe under the
    ``spawn`` start method as well as ``fork``.  Workers sample no pruning
    classes: a sanitized hunt samples in the parent.

    The one failure policy: a worker slot is *dead* when it sends an error
    frame, or when its pipe reaches EOF without a final flush.  A dead slot
    is respawned in place after an exponential backoff (``backoff_base_s``,
    doubling per attempt, capped), up to ``max_releases`` times; past that
    it is abandoned, and the parent commits a ``ShardAbandoned`` quarantine
    for each position it still owned, letting every other slot finish.
    Each step of a slot's history is a lease event (``acquired`` /
    ``expired`` / ``re-leased`` / ``quarantined``) on
    ``result.coordination``.

    ``journal`` (a :class:`~repro.core.journal.HuntJournal`), when given,
    records every commit and lease event as it happens.  A journal that
    already holds commits turns the run into a resume: the journaled prefix
    is committed from the file, and every worker starts past it.

    ``prestart()`` optionally spawns and bootstraps the pool up front (the
    bench uses it to keep worker startup out of the timed region); otherwise
    ``explore`` bootstraps lazily.  Shutdown is unconditional and bounded:
    the stop flag is set, final flushes are drained with a deadline, and any
    worker still alive afterwards is terminated.
    """

    def __init__(
        self,
        base: Explorer,
        task: Any,
        workers: int = 4,
        batch_size: int = 64,
        start_method: Optional[str] = None,
        shutdown_timeout_s: float = 10.0,
        journal: Optional[HuntJournal] = None,
        max_releases: int = 3,
        backoff_base_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.base = base
        self.task = task
        self.workers = workers
        self.batch_size = max(1, batch_size)
        self.start_method = start_method
        self.shutdown_timeout_s = shutdown_timeout_s
        self.journal = journal
        self.max_releases = max(0, max_releases)
        self.backoff_base_s = backoff_base_s
        self.mode = f"{base.mode}+proc{workers}"
        header = journal.header.get("hunt", {}) if journal is not None else {}
        self.hunt_id = header.get("hunt_id") or uuid.uuid4().hex[:12]
        #: The journal's committed prefix, which a resume commits from the
        #: file, and the watermark: every candidate below it is committed,
        #: so every worker incarnation skips replaying it.
        self._resumed = journal.commits if journal is not None else []
        self._watermark = len(self._resumed)
        #: The columnar-frame interning table: workers ship event positions,
        #: the parent maps them back through the (identically derived)
        #: schedule of the base explorer.
        self._event_ids: Tuple[str, ...] = tuple(
            event.event_id for event in base.events
        )
        self._procs: List[multiprocessing.Process] = []
        self._ctx = None
        #: Per-slot receive pipes (the one-writer channels) and the slots
        #: whose pipe reached EOF — i.e. whose worker process has exited.
        self._conns: Dict[int, Any] = {}
        self._eof: set = set()
        #: Finals superseded by a replacement worker's flush for the same
        #: slot.  Retained (not clobbered) so the dead predecessor's
        #: replay-side work is still merged; payload epochs keep the merge
        #: idempotent per (slot, attempt).
        self._stale_finals: List[Dict[str, Any]] = []
        self._stop = None
        self._go = None
        self._started = False
        self._cap: Optional[int] = None
        self._stop_on_violation: Optional[bool] = None
        #: Slot incarnations: each slot's current attempt, the respawns
        #: waiting out their backoff, the abandoned slots (with why), and
        #: the lease log.
        self._attempts: Dict[int, int] = {w: 1 for w in range(workers)}
        self._respawn_at: Dict[int, float] = {}
        self._abandoned: Dict[int, str] = {}
        self._lease_log: List[Tuple[int, int, str]] = []
        #: The parent's own candidate stream, built only once a slot is
        #: abandoned: the event ids of every position it has enumerated.
        self._owner_stream: Optional[Iterator[Any]] = None
        self._owner_keys: List[Tuple[str, ...]] = []
        self._owner_metrics: Optional[MetricsRegistry] = None

    # ---------------------------------------------------------------- pool

    def prestart(self, cap: int = DEFAULT_CAP, stop_on_violation: bool = True) -> None:
        """Spawn and bootstrap the pool; workers block until ``explore``.

        The cap and stop policy are baked into each worker's config at spawn
        time, so a prestarted pool must be explored with the same values.
        """
        if self._started:
            raise RuntimeError("pool already started")
        ctx = multiprocessing.get_context(self.start_method)
        self._ctx = ctx
        self._conns = {}
        self._eof = set()
        self._stale_finals = []
        self._stop = ctx.Event()
        self._go = ctx.Event()
        self._cap = cap
        self._stop_on_violation = stop_on_violation
        self._procs = []
        for widx in range(self.workers):
            self._procs.append(self._spawn_worker(widx))
        self._started = True
        ready = set()
        deadline = time.monotonic() + _BOOTSTRAP_TIMEOUT_S
        while len(ready) < self.workers:
            message = self._next_message(timeout=0.1)
            if message is not None:
                if message[0] == "ready":
                    ready.add(message[1])
                    continue
                if message[0] == "error":
                    self._shutdown(drain_finals=None)
                    raise RuntimeError(
                        f"worker {message[1]} failed to bootstrap:\n{message[2]}"
                    )
            # A slot whose pipe hit EOF before "ready" died bootstrapping;
            # EOF is definitive (the kernel closed the write end), so no
            # grace period is needed.
            dead = [
                self._procs[widx].name
                for widx in sorted(self._eof)
                if widx not in ready
            ]
            if dead:
                self._shutdown(drain_finals=None)
                raise RuntimeError(f"worker(s) died during bootstrap: {dead}")
            if time.monotonic() > deadline:
                self._shutdown(drain_finals=None)
                raise RuntimeError(
                    f"worker bootstrap exceeded {_BOOTSTRAP_TIMEOUT_S:g}s"
                )

    def _spawn_worker(self, widx: int) -> multiprocessing.Process:
        """Start the current incarnation of one worker slot.

        It skips the committed prefix (``skip_below`` is the watermark), so
        a resumed hunt and a respawned slot both start where the parent's
        commits end.  Each spawn gets a fresh one-writer pipe for its slot.
        The parent closes its copy of the send end immediately after the
        fork so the child holds the **only** write fd — that is what makes
        process death (even SIGKILL) surface as EOF on the receive end.
        """
        stale = self._conns.pop(widx, None)
        if stale is not None:
            # A replacement is superseding a dead predecessor whose pipe was
            # not yet harvested; its undelivered frames are re-derived by the
            # replacement (replays are deterministic) and deduped on commit.
            stale.close()
        config = _WorkerConfig(
            worker_index=widx,
            workers=self.workers,
            cap=self._cap,
            stop_on_violation=self._stop_on_violation,
            collect_metrics=self.base.metrics is not None,
            batch_size=self.batch_size,
            skip_below=self._watermark,
            attempt=self._attempts[widx],
        )
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self.task, config, send_conn, self._stop, self._go),
            name=f"erpi-proc-{widx}",
            daemon=True,
        )
        proc.start()
        send_conn.close()  # the child's copy is now the only write end
        self._conns[widx] = recv_conn
        self._eof.discard(widx)
        return proc

    # -------------------------------------------------------------- explore

    def explore(
        self,
        engine: ReplayEngine,
        assertions: Sequence[Assertion],
        cap: int = DEFAULT_CAP,
        stop_on_violation: bool = True,
    ) -> ExplorationResult:
        started = time.perf_counter()
        result = ExplorationResult(
            mode=self.mode, found=False, explored=0, elapsed_s=0.0, verdicts={}
        )
        for index, record in enumerate(self._resumed):
            self._commit_journaled(result, index, record)
        if self.journal is not None:
            self.journal.reopen()
        if result.violating is not None and stop_on_violation:
            # The previous incarnation of the hunt already found the bug.
            self._shutdown(drain_finals=None)
            return self._finish(result, started, {}, commit_point=None)
        if not self._started:
            self.prestart(cap=cap, stop_on_violation=stop_on_violation)
            # Bootstrap is set-up, as it is when the caller prestarts:
            # ``elapsed_s`` times the exploration alone.
            started = time.perf_counter()
        elif cap != self._cap or stop_on_violation != self._stop_on_violation:
            raise ValueError(
                "prestarted pool was configured with different cap/stop settings"
            )
        for widx in range(self.workers):
            self._record_lease(widx, "acquired")
        tracer = self.base.tracer
        metrics = self.base.metrics
        root = tracer.begin("explore") if tracer is not None else None
        pending: Dict[int, Tuple[int, str, Any]] = {}
        finals: Dict[int, Dict[str, Any]] = {}
        errors: Dict[int, str] = {}
        stopped = False
        self._go.set()
        try:
            while True:
                message = self._next_message(timeout=0.05)
                while message is not None:
                    self._dispatch(message, pending, finals, errors)
                    message = self._next_message(timeout=0.0)
                self._respawn_due()
                stopped = self._commit_ready(result, pending, stop_on_violation)
                if stopped:
                    break
                self._release_dead(finals, errors)
                live = [w for w in range(self.workers) if w not in self._abandoned]
                # Every batch precedes its worker's final on its pipe, so
                # once every live slot has finished nothing more can arrive.
                # An abandoned slot's positions may still be due; the next
                # round commits them.
                if (
                    not self._respawn_at
                    and all(self._finished(w, finals) for w in live)
                    and self._abandoned_candidate(self._watermark) is None
                ):
                    break
        finally:
            self._shutdown(drain_finals=finals)
            if metrics is not None:
                self._merge_metrics(metrics, finals, result.explored)
            self.base._finish_observation(root, result.explored, mode=self.mode)
        if result.violating is None and not result.crashed:
            # A generation-side budget crash aborts a serial run too; any
            # worker that hit it reports the identical stream position.
            for flush in finals.values():
                if flush["crash_reason"]:
                    result.crashed = True
                    result.crash_reason = flush["crash_reason"]
                    break
        # A hunt that stopped early reports the prune counts at its commit
        # point; one that drained every worker's stream, the final counts.
        commit_point = self._watermark if stopped else None
        return self._finish(result, started, finals, commit_point)

    # -------------------------------------------------------------- commits

    def _commit_ready(
        self,
        result: ExplorationResult,
        pending: Dict[int, Tuple[int, str, Any]],
        stop_on_violation: bool,
    ) -> bool:
        """Commit every verdict that is next in candidate order.

        An abandoned slot's positions commit as ``ShardAbandoned``
        quarantines.  True once the run is over: a budget crash committed
        (deterministic, so no incarnation could get past it), or a
        violation that stops the hunt.
        """
        while True:
            index = self._watermark
            record = pending.pop(index, None)
            if record is None:
                ids = self._abandoned_candidate(index)
                if ids is None:
                    return False
                slot = stream_owner(index, self.workers)
                record = (index, "quarantine", QuarantinedReplay(
                    interleaving=ids,
                    error_type="ShardAbandoned",
                    message=self._abandoned[slot],
                    traceback="",
                    fault_plan=self.base.fault_plan_description,
                    shard=slot,
                ))
            _, kind, payload = record
            if kind == "crashed":
                self._watermark = index + 1
                result.crashed = True
                result.crash_reason = payload
                return True
            if kind == "ok":
                self._commit(result, index, "ok", "|".join(payload))
            elif kind == "quarantine":
                self._commit(
                    result, index, "quarantine", "|".join(payload.interleaving),
                    payload,
                )
            else:
                # Violations ship their outcome as pickle bytes: only the
                # committed one pays deserialisation.
                il_ids, outcome = payload
                self._commit(
                    result, index, "violation", "|".join(il_ids),
                    pickle.loads(outcome),
                )
                if stop_on_violation:
                    return True

    def _commit_journaled(
        self, result: ExplorationResult, index: int, record: Dict[str, Any]
    ) -> None:
        """Commit one verdict of the journal a resume started from."""
        verdict = record["verdict"]
        il_key = record["il"]
        ids = tuple(il_key.split("|")) if il_key else ()
        detail: Any = None
        if verdict == "quarantine":
            detail = QuarantinedReplay(
                interleaving=ids,
                error_type=record.get("error", "unknown"),
                message="(resumed from journal)",
                traceback="",
                fault_plan=self.base.fault_plan_description,
            )
        elif verdict == "violation":
            detail = JournaledOutcome(
                ids, record.get("messages", ["(violation resumed from journal)"])
            )
        self._commit(result, index, verdict, il_key, detail, journaled=True)

    def _commit(
        self,
        result: ExplorationResult,
        index: int,
        verdict: str,
        il_key: str,
        detail: Any = None,
        journaled: bool = False,
    ) -> None:
        """Commit the verdict of stream position ``index``: the verdict map,
        the journal, the metrics and the progress line, in one place.

        ``detail`` is the quarantine record of a ``quarantine`` verdict and
        the outcome of a ``violation``.  ``journaled`` verdicts come from
        the journal a resume started from, so they are not written again.
        """
        self._watermark = index + 1
        result.explored += 1
        result.verdicts[il_key] = verdict
        if verdict == "quarantine":
            result.quarantined.append(detail)
        elif verdict == "violation":
            result.violating = detail
        metrics = self.base.metrics
        if metrics is not None:
            if journaled:
                metrics.inc("coordinator.commits.resumed")
            if verdict == "quarantine":
                metrics.inc("interleavings.quarantined")
            else:
                metrics.inc("interleavings.replayed")
        if self.journal is not None and not journaled:
            self.journal.commit(
                index=index,
                verdict=verdict,
                il_key=il_key,
                error_type=detail.error_type if verdict == "quarantine" else None,
                messages=tuple(detail.violations) if verdict == "violation" else (),
            )
        if self.base.progress is not None:
            self.base.progress.tick(metrics)

    def _finish(
        self,
        result: ExplorationResult,
        started: float,
        finals: Dict[int, Dict[str, Any]],
        commit_point: Optional[int],
    ) -> ExplorationResult:
        result.found = result.violating is not None
        if self.journal is not None:
            self.journal.final(
                found=result.found,
                explored=result.explored,
                crashed=result.crashed,
                crash_reason=result.crash_reason,
            )
            self.journal.close()
        canonical = self._canonical_flush(finals)
        result.pruning_stats = self._pruning_stats_at(finals, commit_point)
        result.fault_events = canonical["fault_events"] if canonical else 0
        result.worker_stats = self._worker_stats(finals)
        result.coordination = {
            "hunt_id": self.hunt_id,
            "lease_events": list(self._lease_log),
            "releases": sum(
                1 for _, _, status in self._lease_log if status == "re-leased"
            ),
            "abandoned_shards": sorted(self._abandoned),
            "resumed_commits": len(self._resumed),
            "journal": self.journal.path if self.journal is not None else None,
        }
        result.elapsed_s = time.perf_counter() - started
        return result

    @staticmethod
    def _worker_stats(finals: Dict[int, Dict[str, Any]]) -> Dict[int, Dict[str, int]]:
        return {
            widx: {
                "yields": flush["yields"],
                "materialized": flush.get("materialized", 0),
                "ipc_bytes": flush.get("ipc_bytes", 0),
            }
            for widx, flush in sorted(finals.items())
        }

    # ----------------------------------------------------------- dead slots

    def _metric(self, name: str) -> None:
        metrics = self.base.metrics
        if metrics is not None:
            metrics.inc(name)

    def _record_lease(self, slot: int, status: str) -> None:
        """Log one step of a slot's incarnation history."""
        attempt = self._attempts[slot]
        self._lease_log.append((slot, attempt, status))
        if self.journal is not None:
            self.journal.lease(slot, attempt, status)
        self._metric(f"coordinator.leases.{status}")

    def _release_dead(self, finals, errors) -> None:
        """Respawn or abandon every slot that died since the last look.

        A slot is dead when it sent an error frame, or when its pipe reached
        EOF without a final flush.  EOF comes only after every frame the
        slot sent, so the second test needs no grace period.
        """
        for widx in sorted(errors):
            # A raising worker flushes a partial final before its error
            # frame; that final must not count as the slot finishing (its
            # replay-side metrics still merge).
            stale = finals.pop(widx, None)
            if stale is not None:
                self._stale_finals.append(stale)
            self._release(widx, f"worker {widx} raised:\n{errors.pop(widx)}")
        retired = self._abandoned.keys() | self._respawn_at.keys()
        for widx in sorted(self._eof - finals.keys() - retired):
            self._release(
                widx,
                f"worker {widx} died without reporting "
                f"(exit code {self._procs[widx].exitcode})",
            )

    def _release(self, widx: int, reason: str) -> None:
        """Retire a dead slot's incarnation: queue its respawn after a
        backoff, or abandon the slot once it has died ``max_releases``
        times over."""
        proc = self._procs[widx]
        if proc.is_alive():
            proc.terminate()  # never two incarnations of one slot at once
        self._record_lease(widx, "expired")
        attempt = self._attempts[widx]
        if attempt > self.max_releases:
            self._abandoned[widx] = reason
            self._record_lease(widx, "quarantined")
            self._metric("coordinator.shards.quarantined")
            return
        backoff = min(self.backoff_base_s * 2 ** (attempt - 1), _BACKOFF_CAP_S)
        self._attempts[widx] = attempt + 1
        self._respawn_at[widx] = time.monotonic() + backoff

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for widx in [w for w, at in self._respawn_at.items() if now >= at]:
            del self._respawn_at[widx]
            tracer = self.base.tracer
            span = tracer.begin("re-lease") if tracer is not None else None
            self._procs[widx] = self._spawn_worker(widx)
            self._metric("coordinator.releases")
            if span is not None:
                tracer.end(
                    span,
                    slot=widx,
                    attempt=self._attempts[widx],
                    skip_below=self._watermark,
                )

    def _abandoned_candidate(self, index: int) -> Optional[Tuple[str, ...]]:
        """Event ids of candidate ``index`` when an abandoned slot owns it;
        None when a live slot owns it or the stream (or the cap) ends
        first.  The parent enumerates the stream itself for these."""
        owner = stream_owner(index, self.workers)
        if owner not in self._abandoned or index >= self._cap:
            return None
        if self._owner_stream is None:
            explorer, engine, assertions = self.task.build()
            # The owner stream must make byte-identical pruning decisions to
            # the workers' streams, so its pruners are bound the same way.
            explorer.bind_semantic((engine,), assertions)
            if self.base.metrics is not None:
                self._owner_metrics = MetricsRegistry()
                explorer.metrics = self._owner_metrics
            self._owner_stream = explorer.candidates()
        while len(self._owner_keys) <= index:
            try:
                interleaving = next(self._owner_stream, None)
            except ResourceExhausted:
                interleaving = None
            if interleaving is None:
                return None
            self._owner_keys.append(
                tuple(event.event_id for event in interleaving)
            )
        return self._owner_keys[index]

    # ------------------------------------------------------------- plumbing

    def _next_message(self, timeout: float):
        """Receive one frame from any slot pipe, harvesting EOFs.

        A closed pipe always polls ready, so a dead slot is noticed here —
        its connection is retired and the slot recorded in ``_eof`` — before
        the poll loop can go idle.  Returns ``None`` when no frame arrived
        within ``timeout`` (EOF harvesting alone still returns ``None``: it
        is not a message).
        """
        if not self._conns:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return None
        ready = mp_connection.wait(list(self._conns.values()), timeout=timeout)
        for conn in ready:
            widx = next(w for w, c in self._conns.items() if c is conn)
            try:
                return conn.recv()
            except (EOFError, OSError):
                # The slot's worker exited (clean exit or SIGKILL): the only
                # write fd closed.  A torn frame from a mid-send kill also
                # lands here and is confined to this slot's channel.
                conn.close()
                del self._conns[widx]
                self._eof.add(widx)
        return None

    def _dispatch(self, message, pending, finals, errors) -> None:
        kind = message[0]
        if kind == "cbatch":
            for record in self._decode_cbatch(message[2]):
                # setdefault, not assignment: a respawned replacement worker
                # re-delivers results its predecessor already shipped, and
                # replays are deterministic, so first delivery wins.
                pending.setdefault(record[0], record)
        elif kind == "final":
            self._note_final(finals, message[1], message[2])
        elif kind == "error":
            errors[message[1]] = message[2]
        elif kind == "ready":
            # A replacement worker finished bootstrapping mid-run (initial
            # readiness is consumed by prestart before explore runs).
            self._record_lease(message[1], "re-leased")

    def _decode_cbatch(
        self, frame
    ) -> List[Tuple[int, str, Any]]:
        """Rehydrate one columnar frame into (index, kind, payload) records.

        Event positions are mapped back to ids through the parent's own
        interning table.  Violation payloads stay as pickle bytes here —
        commit-time code deserialises them only for the index that actually
        commits, so duplicate deliveries cost nothing beyond the dedup.
        """
        indices, kinds, ev, ev_lens, other = frame
        event_ids = self._event_ids
        records: List[Tuple[int, str, Any]] = []
        pos = 0
        oidx = 0
        for i, index in enumerate(indices):
            kind = kinds[i]
            count = ev_lens[i]
            il_ids = tuple(event_ids[p] for p in ev[pos:pos + count])
            pos += count
            if kind == _KIND_OK:
                records.append((index, "ok", il_ids))
            elif kind == _KIND_VIOLATION:
                records.append((index, "violation", (il_ids, other[oidx])))
                oidx += 1
            elif kind == _KIND_QUARANTINE:
                records.append((index, "quarantine", other[oidx]))
                oidx += 1
            else:
                records.append((index, "crashed", other[oidx]))
                oidx += 1
        return records

    def _note_final(self, finals, widx: int, flush: Dict[str, Any]) -> None:
        """Record a worker's final flush, retaining any superseded one.

        With respawning, a slot can flush twice — the crashed predecessor's
        partial (sent from its ``finally`` block) and the replacement's full
        flush.  The replacement wins the slot entry (its stream went
        furthest), but the predecessor's flush is kept aside so its
        replay-side counters still merge; the payload epochs make that merge
        idempotent per (slot, attempt) no matter which flush arrives first.
        """
        prior = finals.get(widx)
        if prior is not None:
            self._stale_finals.append(prior)
        finals[widx] = flush

    def _finished(self, widx: int, finals) -> bool:
        """A slot is finished once its final flush is in *and* its pipe has
        reached EOF.  A raising worker sends a partial final before its
        error frame, so the final alone does not prove no error follows."""
        return widx in finals and widx in self._eof

    def _shutdown(self, drain_finals: Optional[Dict[int, Dict[str, Any]]]) -> None:
        """Stop workers, drain their final flushes, reap every process.

        ``drain_finals`` collects late ``final`` messages (the metrics merge
        needs the flush of the worker that enumerated furthest); ``None``
        discards everything (bootstrap failure).  Bounded by the shutdown
        timeout: leftover workers are terminated, never waited on forever.
        """
        if not self._started:
            return
        self._stop.set()
        self._go.set()  # unblock workers still waiting for the go signal
        deadline = time.monotonic() + self.shutdown_timeout_s
        expected = drain_finals if drain_finals is not None else {}
        # Drain until every slot pipe reaches EOF (worker exited) or the
        # deadline lands; each worker closes its pipe on exit, so "all conns
        # gone" is exactly "all workers done sending".
        while self._conns and time.monotonic() < deadline:
            message = self._next_message(timeout=0.05)
            if message is not None and message[0] == "final":
                if drain_finals is not None:
                    self._note_final(expected, message[1], message[2])
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
        # Late frames from terminated workers: drain without blocking.
        while self._conns:
            message = self._next_message(timeout=0.0)
            if message is None and self._conns:
                break  # frames exhausted but a pipe is still open: drop it
            if message is not None and message[0] == "final":
                if drain_finals is not None:
                    self._note_final(expected, message[1], message[2])
        for conn in self._conns.values():
            conn.close()
        self._conns = {}
        self._started = False

    # ---------------------------------------------------------------- merge

    @staticmethod
    def _canonical_flush(finals: Dict[int, Dict[str, Any]]):
        """The flush of the worker that enumerated furthest (ties: lowest
        index).  Its stream is a superset of every worker's committed work:
        the owner of the last committed candidate enumerated through it, so
        ``canonical_yields >= committed`` always holds."""
        if not finals:
            return None
        widx = min(finals, key=lambda w: (-finals[w]["yields"], w))
        return finals[widx]

    @classmethod
    def _pruning_stats_at(
        cls, finals: Dict[int, Dict[str, Any]], committed: Optional[int]
    ) -> Dict[str, int]:
        """Per-pruner prune counts as a serial hunt would report them.

        ``committed`` is the commit point of a hunt that stopped before its
        stream ended: the counts are the canonical worker's after it handed
        out that many stream positions, so prunes it made further on are
        left out.  ``None`` means every worker ran its stream to the end,
        where their final counts agree.
        """
        canonical = cls._canonical_flush(finals)
        if canonical is None:
            return {}
        stats = dict(canonical["pruning_stats"])
        names = canonical["pruner_names"]
        if committed is None or not names or canonical["yields"] < committed:
            return stats
        points = canonical["prune_points"]
        width = len(names) + 1
        counts = [0] * len(names)
        for start in range(0, len(points), width):
            if points[start] > committed:
                break
            counts = points[start + 1:start + width]
        for name, count in zip(names, counts):
            stats[name] = count
        return stats

    def _merge_metrics(self, metrics, finals, committed: int) -> None:
        """Stream-side counters from whichever enumerator went furthest,
        replay-side counters summed over every flush, superseded ones
        included (their epochs merge each incarnation once)."""
        canonical = self._canonical_flush(finals)
        yields = canonical["yields"] if canonical is not None else 0
        if self._owner_metrics is not None and len(self._owner_keys) > yields:
            # The parent's own enumeration (for abandoned-shard commits) went
            # furthest — every live worker died or stopped short — so its
            # stream-side counters are the superset.
            metrics.merge_payload(self._owner_metrics.to_payload())
            yields = len(self._owner_keys)
        elif canonical is not None:
            if canonical["stream"] is not None:
                metrics.merge_payload(canonical["stream"])
            for category, nbytes in canonical["meter"].items():
                metrics.set_gauge("resource.bytes." + category, nbytes)
        for flush in list(finals.values()) + self._stale_finals:
            if flush["replay"] is not None:
                metrics.merge_payload(flush["replay"])
        discarded = yields - committed
        if discarded > 0:
            metrics.inc("interleavings.discarded", discarded)
