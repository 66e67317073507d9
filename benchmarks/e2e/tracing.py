"""The traced run: per-layer time measured from outside the program.

:class:`LayerTrace` installs timing wrappers on each layer's public entry
points and removes them again afterwards; the program itself is unchanged.
Three things would change the program under measurement, so they are
never done here: wrapping ``engine.executor`` (the prefix cache's soundness
gate checks ``type(executor) is SequentialExecutor``), setting
``candidates`` on an explorer instance (that disables sharded enumeration)
and passing ``tracer=`` / ``metrics=`` to ``hunt``.

Spans are kept at the hunt, generate, valid, prune, replay, restore and
assert boundaries.  The hot calls inside a replay (sync, fault, state reads
and subject ops) only bump count + seconds accumulators.  Every wrapper
also feeds a :class:`Tally` kept in an anonymous shared mapping: pool
workers are forked and inherit the class wrappers, so their layer totals
land in the same table instead of being lost with the process.  Workers
record no spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import mmap
import os
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


clock = time.perf_counter

SUBJECTS = ("Roshi", "OrbitDB", "ReplicaDB", "Yorkie")
PRUNERS = ("replica_specific", "event_independence", "failed_ops", "dpor")
_LAYER_KEYS = (
    "generate", "valid", "invalid", "replay", "restore", "sync", "fault",
    "states", "assert", "bootstrap",
)
#: Span kinds a hunt's explore loop hands its time to.
_LOOP_SPANS = frozenset({"generate", "valid", "prune", "replay"})
_EXHAUSTED = object()


class Tally:
    """Per-process call counts, seconds and replay samples in shared memory.

    Slot 0 belongs to the process that built the tally; each forked child
    claims another slot (round robin, so a slot is only reused once its
    previous owner has long exited).  Replay durations go to a per-slot ring
    of ``samples`` cells.
    """

    def __init__(self, keys: Sequence[str], slots: int = 16, samples: int = 1 << 16) -> None:
        self.index = {key: position for position, key in enumerate(keys)}
        self.slots = slots
        self._samples = samples
        self._stride = 2 * len(keys) + 1  # (calls, seconds) per key + sample count
        self._sample_origin = slots * self._stride
        self._map = mmap.mmap(-1, 8 * (self._sample_origin + slots * samples))
        self.cells = memoryview(self._map).cast("d")
        self.claim(0)

    def claim(self, slot: int) -> None:
        """Make ``slot`` this process's: ``mine`` views its (calls, seconds)
        cells, key ``k`` at ``2 * k``; ``ring`` its replay samples."""
        self.slot = slot
        base = slot * self._stride
        self.mine = self.cells[base:base + self._stride]
        ring = self._sample_origin + slot * self._samples
        self.ring = self.cells[ring:ring + self._samples]

    def sample(self, value: float) -> None:
        mine = self.mine
        count = int(mine[-1])
        self.ring[count % self._samples] = value
        mine[-1] = count + 1

    def totals(self, slots: Optional[Iterable[int]] = None) -> Dict[str, Tuple[float, float]]:
        """key -> (calls, seconds), summed over ``slots`` (default: all)."""
        chosen = range(self.slots) if slots is None else slots
        cells = self.cells
        out = {}
        for key, position in self.index.items():
            calls = seconds = 0.0
            for slot in chosen:
                at = slot * self._stride + 2 * position
                calls += cells[at]
                seconds += cells[at + 1]
            out[key] = (calls, seconds)
        return out

    def samples(self) -> List[float]:
        out: List[float] = []
        for slot in range(self.slots):
            count = min(int(self.cells[slot * self._stride + self._stride - 1]), self._samples)
            start = self._sample_origin + slot * self._samples
            out.extend(self.cells[start:start + count])
        return out

    def close(self) -> None:
        self.mine.release()
        self.ring.release()
        self.cells.release()
        self._map.close()


class LayerTrace:
    """Install / remove the layer wrappers; own the tally and the spans.

    Spans are rows ``(span_id, parent_id, name, start_s, end_s)`` with one
    open-span stack: the parent process runs hunts on one thread.  A
    :class:`repro.obs.Tracer` span costs about three times as much (span
    objects, thread-local stacks), enough to distort the per-candidate
    layers it would be timing.
    """

    def __init__(self) -> None:
        keys = list(_LAYER_KEYS)
        keys += [f"prune.{name}" for name in PRUNERS]
        keys += [f"pruned.{name}" for name in PRUNERS]
        keys += [f"rdl.{subject}" for subject in SUBJECTS]
        self.tally = Tally(keys)
        self.rows: List[Tuple[int, int, str, float, float]] = []
        self.hunt_ids: Dict[int, str] = {}
        self._stack = [0]
        self._ids = itertools.count(1)
        #: False in forked workers: their spans would die with them.
        self.spans = True
        #: True while a replay runs and no hot call is being timed.
        self.hot = False
        self.pruning = False
        self._undo: List[Tuple[object, str, bool, object]] = []
        self._forks = 0
        self._child_slot = 0
        os.register_at_fork(before=self._before_fork, after_in_child=self._in_child)

    # ------------------------------------------------------------ fork hooks

    def _before_fork(self) -> None:
        self._forks += 1
        self._child_slot = 1 + (self._forks - 1) % (self.tally.slots - 1)

    def _in_child(self) -> None:
        self.tally.claim(self._child_slot)
        self.spans = False

    # ---------------------------------------------------------------- spans

    def open(self, name: str) -> Tuple[int, int, str, float]:
        """Start a span (for the benchmark's own record / hunt calls)."""
        span_id = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent, name, clock()

    def close(self, token: Tuple[int, int, str, float], hunt: Optional[str] = None) -> None:
        span_id, parent, name, start = token
        self._stack.pop()
        self.rows.append((span_id, parent, name, start, clock()))
        if hunt is not None:
            self.hunt_ids[span_id] = hunt

    def clear_spans(self) -> None:
        self.rows.clear()
        self.hunt_ids.clear()

    # ------------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, wrap: Callable) -> None:
        own = attr in vars(owner)
        saved = vars(owner).get(attr)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, own, saved))
        setattr(owner, attr, functools.wraps(original)(wrap(original)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, saved = self._undo.pop()
            if own:
                setattr(owner, attr, saved)
            else:
                delattr(owner, attr)

    def install(self, scenario_classes: Iterable[type], subject_ops: Dict[type, Tuple[str, Sequence[str]]]) -> None:
        """Wrap every layer.  ``subject_ops`` maps a subject's RDL class to
        (subject name, the op methods the recorded events call)."""
        from repro.core import explorers
        from repro.core.pruning import (
            DPORPruner,
            EventIndependencePruner,
            FailedOpsPruner,
            ReplicaSpecificPruner,
        )
        from repro.core.procpool import ProcessParallelExplorer
        from repro.core.replay import ReplayEngine
        from repro.net.cluster import Cluster

        tally = self.tally
        index = tally.index
        trace = self
        stack, rows, ids = self._stack, self.rows, self._ids
        push, pop, emit = stack.append, stack.pop, rows.append

        # Key ``k``'s cells in ``tally.mine``: calls at 2k, seconds at 2k+1.
        def cell(key: str) -> int:
            return 2 * index[key]

        def spanned(name: str, key: str) -> Callable:
            """A span per call, plus the key's count and seconds."""
            k = cell(key)

            def wrap(fn):
                def timed(*args, **kwargs):
                    t0 = clock()
                    spans = trace.spans
                    if spans:
                        span_id = next(ids)
                        parent = stack[-1]
                        push(span_id)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        if spans:
                            pop()
                        t1 = clock()
                        mine = tally.mine
                        mine[k] += 1
                        mine[k + 1] += t1 - t0
                        if spans:
                            emit((span_id, parent, name, t0, t1))
                return timed
            return wrap

        def hot(key: str) -> Callable:
            """Count and seconds only: calls a replay makes, outermost only."""
            k = cell(key)

            def wrap(fn):
                def timed(*args, **kwargs):
                    if not trace.hot:
                        return fn(*args, **kwargs)
                    trace.hot = False
                    t0 = clock()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        t1 = clock()
                        mine = tally.mine
                        mine[k] += 1
                        mine[k + 1] += t1 - t0
                        trace.hot = True
                return timed
            return wrap

        replay_cell = cell("replay")

        def replay_wrap(fn):
            def replay(engine, interleaving, assertions=()):
                t0 = clock()
                spans = trace.spans
                if spans:
                    span_id = next(ids)
                    parent = stack[-1]
                    push(span_id)
                trace.hot = True
                try:
                    return fn(engine, interleaving, assertions)
                finally:
                    trace.hot = False
                    tally.sample((clock() - t0) * 1e6)
                    if spans:
                        pop()
                    t1 = clock()
                    mine = tally.mine
                    mine[replay_cell] += 1
                    mine[replay_cell + 1] += t1 - t0
                    if spans:
                        emit((span_id, parent, "replay", t0, t1))
            return replay

        def prune_wrap(fn):
            timers = {}

            def is_redundant(pruner, interleaving):
                if trace.pruning:  # only the outermost call is timed
                    return fn(pruner, interleaving)
                name = pruner.name
                timed = timers.get(name)
                if timed is None:
                    timed = timers[name] = spanned("prune:" + name, "prune." + name)(fn)
                trace.pruning = True
                try:
                    verdict = timed(pruner, interleaving)
                finally:
                    trace.pruning = False
                if verdict:
                    tally.mine[cell("pruned." + name)] += 1
                return verdict
            return is_redundant

        generate_cell = cell("generate")

        def stream_wrap(fn):
            def stream(*args, **kwargs):
                inner = iter(fn(*args, **kwargs))
                spans = trace.spans
                try:
                    while True:
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            item = _EXHAUSTED
                        mine = tally.mine
                        if item is not _EXHAUSTED:
                            mine[generate_cell] += 1
                        if spans:
                            span_id = next(ids)
                            parent = stack[-1]
                        t1 = clock()
                        mine[generate_cell + 1] += t1 - t0
                        if spans:
                            emit((span_id, parent, "generate", t0, t1))
                        if item is _EXHAUSTED:
                            return
                        yield item
                finally:
                    close = getattr(inner, "close", None)
                    if close is not None:
                        close()
            return stream

        valid_cell, invalid_cell = cell("valid"), cell("invalid")

        def valid_wrap(fn):
            def satisfies(interleaving, constraints):
                t0 = clock()
                ok = fn(interleaving, constraints)
                mine = tally.mine
                if not ok:
                    mine[invalid_cell] += 1
                spans = trace.spans
                if spans:
                    span_id = next(ids)
                    parent = stack[-1]
                t1 = clock()
                mine[valid_cell] += 1
                mine[valid_cell + 1] += t1 - t0
                if spans:
                    emit((span_id, parent, "valid", t0, t1))
                return ok
            return satisfies

        assert_span = spanned("assert", "assert")

        def assertions_wrap(fn):
            def make_assertions(scenario):
                return [assert_span(check) for check in fn(scenario)]
            return make_assertions

        self._patch(ReplayEngine, "replay", replay_wrap)
        self._patch(Cluster, "restore", spanned("restore", "restore"))
        for method in ("send_sync", "execute_sync"):
            self._patch(Cluster, method, hot("sync"))
        for method in ("crash", "recover", "partition", "heal"):
            self._patch(Cluster, method, hot("fault"))
        self._patch(Cluster, "states", hot("states"))
        for cls in (ReplicaSpecificPruner, EventIndependencePruner, FailedOpsPruner, DPORPruner):
            self._patch(cls, "is_redundant", prune_wrap)
        self._patch(explorers, "interleaving_stream", stream_wrap)
        self._patch(explorers, "unit_permutation_stream", stream_wrap)
        self._patch(explorers, "satisfies_order_constraints", valid_wrap)
        self._patch(ProcessParallelExplorer, "prestart", spanned("bootstrap", "bootstrap"))
        for cls in scenario_classes:
            self._patch(cls, "make_assertions", assertions_wrap)
        for cls, (subject, ops) in subject_ops.items():
            for op in ops:
                self._patch(cls, op, hot(f"rdl.{subject}"))

    # ------------------------------------------------------------- reading

    def hunt_coverage(self, elapsed_s: float) -> float:
        """Share of the explore loops' time (``elapsed_s``, summed) that the
        layer spans directly under a ``hunt`` span account for."""
        hunts = set(self.hunt_ids)
        covered = sum(
            end - start
            for _, parent, name, start, end in self.rows
            if parent in hunts and name.split(":")[0] in _LOOP_SPANS
        )
        return covered / elapsed_s if elapsed_s else 0.0

    def write_spans(self, path: str) -> int:
        """Write the spans as Chrome trace events, one per line, each tagged
        with the hunt it belongs to."""
        parent_of = {row[0]: row[1] for row in self.rows}

        def hunt_of(span_id: int) -> Optional[str]:
            while span_id and span_id not in self.hunt_ids:
                span_id = parent_of.get(span_id, 0)
            return self.hunt_ids.get(span_id)

        with open(path, "w") as handle:
            for span_id, parent, name, start, end in self.rows:
                event = {
                    "name": name,
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {"span_id": span_id, "parent_id": parent, "hunt": hunt_of(span_id)},
                }
                handle.write(json.dumps(event) + "\n")
        return len(self.rows)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(
    trace: LayerTrace,
    traced: Sequence[Sequence[object]],
    untraced_wall: Sequence[float],
    coverages: Sequence[float],
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics, per traced pass.

    ``traced`` holds the hunt records of each traced pass (see
    ``measure.HuntRecord``); ``untraced_wall`` the wall times of the
    untraced passes run alongside, for ``trace.overhead``.
    """
    passes = len(traced)
    records = [record for one_pass in traced for record in one_pass]
    totals = trace.tally.totals()
    parent = trace.tally.totals(slots=[0])
    calls = {key: value[0] for key, value in totals.items()}
    secs = {key: value[1] for key, value in totals.items()}
    elapsed = sum(record.elapsed_s for record in records)
    setup = sum(record.setup_s for record in records)
    bootstrap = parent["bootstrap"][1]
    replay_s = secs["replay"]
    rdl_s = sum(secs[f"rdl.{subject}"] for subject in SUBJECTS)
    rdl_calls = sum(calls[f"rdl.{subject}"] for subject in SUBJECTS)
    pruned = sum(calls[f"pruned.{name}"] for name in PRUNERS)
    prune_s = sum(secs[f"prune.{name}"] for name in PRUNERS)
    # The explore loop's own time, validity filtering included: what the
    # parent's loop spent outside enumeration, pruning and replay.
    delegated = parent["generate"][1] + parent["replay"][1] + sum(
        parent[f"prune.{name}"][1] for name in PRUNERS
    )
    samples = trace.tally.samples()
    process = [record for record in records if record.worker_stats]
    replayed_by_pool = sum(record.replayed for record in process)
    ipc = sum(stats["ipc_bytes"] for record in process for stats in record.worker_stats.values())
    materialized_max = 0.0
    for record in process:
        owned = [stats["materialized"] for stats in record.worker_stats.values()]
        if sum(owned):
            materialized_max = max(materialized_max, max(owned) / sum(owned))
    traced_wall = [sum(record.wall_s for record in one_pass) for one_pass in traced]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: Dict[str, Tuple[float, str]] = {
        "harness.record_s": (sum(r.record_s for r in records) / passes, "s"),
        "harness.assembly_s": ((setup - sum(r.record_s for r in records) - bootstrap) / passes, "s"),
        "interleavings.generated": (calls["generate"] / passes, "count"),
        "interleavings.generate_s": (secs["generate"] / passes, "s"),
        "interleavings.ns_per_candidate": (share(secs["generate"], calls["generate"]) * 1e9, "ns"),
        "explorers.invalid_share": (share(calls["invalid"], calls["generate"]), "fraction"),
        "explorers.loop_self_s": ((elapsed - delegated) / passes, "s"),
    }
    for name in PRUNERS:
        out[f"pruning.{name}.calls"] = (calls[f"prune.{name}"] / passes, "count")
        out[f"pruning.{name}.pruned_share"] = (share(calls[f"pruned.{name}"], calls[f"prune.{name}"]), "fraction")
        out[f"pruning.{name}.time_share"] = (share(secs[f"prune.{name}"], elapsed), "fraction")
    out.update({
        "pruning.time_share": (share(prune_s, elapsed), "fraction"),
        "pruning.replays_avoided_share": (share(pruned, pruned + calls["replay"]), "fraction"),
        "replay.count": (calls["replay"] / passes, "count"),
        "replay.s": (replay_s / passes, "s"),
        "replay.us.p50": (percentile(samples, 50) if samples else 0.0, "us"),
        "replay.us.p99": (percentile(samples, 99) if samples else 0.0, "us"),
        "replay.self_s": (
            (replay_s - sum(secs[key] for key in ("restore", "sync", "fault", "states", "assert")) - rdl_s)
            / passes,
            "s",
        ),
        "cluster.restore.calls": (calls["restore"] / passes, "count"),
        "cluster.restore_s": (secs["restore"] / passes, "s"),
        "cluster.sync.calls": (calls["sync"] / passes, "count"),
        "cluster.sync_s": (secs["sync"] / passes, "s"),
        "cluster.fault.calls": (calls["fault"] / passes, "count"),
        "cluster.fault_share": (share(secs["fault"], replay_s), "fraction"),
        "cluster.states_s": (secs["states"] / passes, "s"),
        "rdl.op.calls": (rdl_calls / passes, "count"),
        "rdl.op_s": (rdl_s / passes, "s"),
    })
    for subject in SUBJECTS:
        key = f"rdl.{subject}"
        out[f"rdl.{subject.lower()}.op.calls"] = (calls[key] / passes, "count")
        out[f"rdl.{subject.lower()}.op_share"] = (share(secs[key], replay_s), "fraction")
    out.update({
        "assertions.calls": (calls["assert"] / passes, "count"),
        "assertions.s": (secs["assert"] / passes, "s"),
        "procpool.bootstrap_share": (share(bootstrap, setup), "fraction"),
        "procpool.ipc_bytes_per_replay": (share(ipc, replayed_by_pool), "B"),
        "procpool.materialized_share.max": (materialized_max, "fraction"),
        "trace.overhead": (share(statistics.median(traced_wall), statistics.median(untraced_wall)), "x"),
        "trace.coverage": (statistics.median(coverages), "fraction"),
    })
    return out
