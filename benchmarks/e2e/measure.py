"""One pass of a workload through the product hunt path, and its checks.

A pass records and hunts every :class:`~workloads.HuntSpec` of a workload
in a seed-shuffled order, timing ``record_scenario`` and ``hunt()``
separately.  The checks run afterwards, outside the timed region.

End-to-end times are reported at a reference host speed.  On a shared VM
the speed of the vCPUs drifts by up to 2x within seconds, the hunts and
plain interpreter work slow by about the same factor, and the process's CPU
time tracks its wall time (the drift is not counted as steal).  So a timed
pass samples the host's speed with a short fixed loop that uses no
repository code (:func:`reference_loop_s`), and scales each hunt by the
reference speed over the median speed sampled around and during it (see
:class:`HostSpeed`): a change to the program moves the scaled time as much
as the raw one, and host drift cancels out.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import resource
import signal
import statistics
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import scenario
from repro.core.events import EventKind

from tracing import LayerTrace, clock
from workloads import HuntSpec

#: Units of the end-to-end metrics (their bounds are in BENCHMARK.json).
END_TO_END_UNITS: Dict[str, str] = {
    "wall_s": "s",
    "interleavings_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The speed every end-to-end time is scaled to: a fixed unit, about what
#: one round of :func:`reference_loop_s` takes on the 2-vCPU Xeon VM
#: (Python 3.11) the baselines come from, where it ranged over
#: 0.3-0.6 ms with host load.
REFERENCE_ROUND_S = 0.0004
#: A calibration point between hunts: this many loops of this many rounds
#: on each CPU it samples.
POINT_LOOPS = 3
POINT_ROUNDS = 7
#: An in-hunt probe: this many rounds, every this many seconds.
PROBE_ROUNDS = 2
PROBE_PERIOD_S = 0.025


@dataclass
class HuntRecord:
    """What one timed hunt cost and concluded."""

    label: str
    record_s: float
    hunt_s: float = 0.0
    elapsed_s: float = 0.0
    replayed: int = 0
    pruned: int = 0
    found: Optional[bool] = None
    error: Optional[str] = None
    worker_stats: Optional[Dict[int, Dict[str, int]]] = None
    #: Reference speed over host speed while the hunt ran (1.0 when the
    #: pass was not calibrated).
    scale: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.record_s + self.hunt_s

    @property
    def setup_s(self) -> float:
        """Recording plus everything ``hunt()`` does outside its explore
        loop: harness assembly, fault compile and pool bootstrap."""
        return self.record_s + self.hunt_s - self.elapsed_s


def run_pass(
    specs: Sequence[HuntSpec],
    seed: int,
    rng: random.Random,
    trace: Optional[LayerTrace] = None,
    pass_id: int = 0,
    calibrate: bool = False,
) -> List[Tuple[HuntSpec, HuntRecord, object]]:
    """Record and hunt every spec once; returns (spec, record, result).

    ``calibrate`` samples the host's speed around and during every hunt,
    leaves the probes' own time out of the hunt's, and sets each record's
    ``scale``.
    """
    order = list(specs)
    rng.shuffle(order)
    out = []
    speed = HostSpeed(any(spec.process_backed for spec in specs)) if calibrate else None
    before = speed.point() if speed is not None else []
    for spec in order:
        token = trace.open("record") if trace is not None else None
        t0 = clock()
        recorded = record_scenario(scenario(spec.scenario), fixed=spec.fixed)
        t1 = clock()
        if token is not None:
            trace.close(token)
        record = HuntRecord(spec.label, record_s=t1 - t0)
        token = trace.open("hunt") if trace is not None else None
        result = None
        # The workers of a process-backed hunt run on every CPU while this
        # process mostly waits, so only the serial hunts are probed.
        probing = speed is not None and not spec.process_backed
        with speed.probing() if probing else contextlib.nullcontext([]) as probes:
            t1 = clock()
            try:
                result = hunt(recorded, "erpi", seed=seed, **spec.kwargs)
            except Exception as exc:  # a failed hunt is counted, not fatal
                record.error = f"{type(exc).__name__}: {exc}"
            t2 = clock()
        probes = [(end, took) for end, took in probes if end <= t2]
        record.hunt_s = t2 - t1 - sum(took for _, took in probes)
        if token is not None:
            trace.close(token, hunt=f"{pass_id}:{spec.label}")
        if speed is not None:
            after = speed.point()
            in_hunt = [took / PROBE_ROUNDS for _, took in probes]
            record.scale = REFERENCE_ROUND_S / statistics.median(before + in_hunt + after)
            before = after
        if result is not None:
            # The explore loop ends the hunt; probes that ended inside it
            # count in ``elapsed_s`` as well.
            loop_start = t2 - result.elapsed_s
            record.elapsed_s = result.elapsed_s - sum(
                took for end, took in probes if end > loop_start
            )
            record.replayed = result.explored
            record.found = result.found
            record.worker_stats = result.worker_stats
            if not spec.process_backed:
                # Workers count prunes past the commit point, so a process
                # hunt's pruning_stats overstate the work; none of the
                # process-backed hunts here has a pruner anyway.
                record.pruned = sum(
                    count
                    for name, count in result.pruning_stats.items()
                    if name != "event_grouping"
                )
        out.append((spec, record, result))
    gc.collect()
    return out


def verdict_digest(verdicts: Dict[str, str]) -> str:
    """A digest of an ordered verdict map (interleaving id -> verdict)."""
    digest = hashlib.sha256()
    for key, verdict in verdicts.items():
        digest.update(f"{key}={verdict}\n".encode())
    return digest.hexdigest()


def serial_verdict_digest(spec: HuntSpec, seed: int) -> str:
    """The verdict map of a serial hunt over ``spec``'s inputs.

    Serial explorers report no verdict map, so this one reference hunt
    (never timed) records each replay's verdict through an instance-level
    ``replay`` wrapper on its own engine.
    """
    recorded = record_scenario(scenario(spec.scenario), fixed=spec.fixed)
    engine = recorded.engine
    replay = engine.replay
    verdicts: Dict[str, str] = {}

    def recording_replay(interleaving, assertions=()):
        outcome = replay(interleaving, assertions)
        key = "|".join(event.event_id for event in interleaving)
        verdicts[key] = "violation" if outcome.violated else "ok"
        return outcome

    engine.replay = recording_replay
    options = spec.kwargs
    options["workers"] = 1
    result = hunt(recorded, "erpi", seed=seed, **options)
    if result.crashed or result.quarantined:
        raise RuntimeError(f"{spec.label}: serial reference hunt did not complete")
    return verdict_digest(verdicts)


def check_hunt(
    spec: HuntSpec,
    record: HuntRecord,
    result: object,
    reference: Optional[str],
) -> Optional[str]:
    """Why this hunt failed, or ``None``.  ``reference`` is the serial
    verdict digest a process-backed hunt must reproduce (``None``: not
    checked here)."""
    if result is None:
        return record.error
    if result.crashed:
        return f"crashed: {result.crash_reason}"
    if result.quarantined:
        return f"{len(result.quarantined)} replay(s) quarantined"
    if result.found != spec.expect_found:
        return f"found={result.found}, expected {spec.expect_found}"
    if spec.expect_found:
        # The witness must violate again from scratch, on a freshly
        # recorded engine with fresh assertions.
        fresh = record_scenario(scenario(spec.scenario), fixed=spec.fixed)
        outcome = fresh.engine.replay_fresh(
            result.violating.interleaving, fresh.scenario.make_assertions()
        )
        if not outcome.violated:
            return "witness did not violate when replayed from scratch"
    if spec.process_backed and reference is not None:
        if result.verdicts is None or verdict_digest(result.verdicts) != reference:
            return "verdict map differs from the serial run"
    return None


def reference_loop_s(rounds: int) -> float:
    """Seconds ``rounds`` rounds of a fixed pure-Python loop take right now.

    Dict, tuple, list and sort work on int keys only, so string-hash
    randomisation cannot change it; the collector is off while it runs, so
    the heap the program left behind cannot either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(rounds):
            table: Dict[Tuple[int, int], int] = {}
            rows = []
            for i in range(400):
                key = (i % 37, i % 53)
                table[key] = table.get(key, 0) + i
                rows.append((key, i))
            rows.sort(key=lambda row: (row[0][1], row[1]))
            hash(tuple(sorted(table.items())))
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples of the host's speed, as seconds per reference-loop round.

    :meth:`point` samples between hunts: on the CPU this process runs on
    or, with ``every_cpu``, on each CPU it may use, pinned to each in turn.
    On a shared host each vCPU's speed drifts on its own, and a
    process-backed hunt's workers run on all of them.  :meth:`probing`
    samples during a serial hunt, from a ``SIGALRM`` interval timer, on the
    CPU the hunt runs on.  A hunt's speed is the median of its probes and
    the points on either side of it.
    """

    def __init__(self, every_cpu: bool) -> None:
        self.every_cpu = every_cpu and hasattr(os, "sched_setaffinity")

    def point(self) -> List[float]:
        def loops() -> List[float]:
            return [
                reference_loop_s(POINT_ROUNDS) / POINT_ROUNDS for _ in range(POINT_LOOPS)
            ]

        if not self.every_cpu:
            return loops()
        allowed = os.sched_getaffinity(0)
        samples: List[float] = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                samples.extend(loops())
        finally:
            os.sched_setaffinity(0, allowed)
        return samples

    @contextlib.contextmanager
    def probing(self) -> Iterator[List[Tuple[float, float]]]:
        """Probe every ``PROBE_PERIOD_S`` while the block runs; yields the
        list the probes' (end time, seconds) pairs are appended to."""
        probes: List[Tuple[float, float]] = []

        def probe(signum: int, frame: object) -> None:
            took = reference_loop_s(PROBE_ROUNDS)
            probes.append((clock(), took))

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield probes
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def pass_metrics(records: Sequence[HuntRecord]) -> Dict[str, float]:
    """The per-pass end-to-end numbers (everything but ``peak_rss_mb``),
    each hunt scaled to the reference speed."""
    hunt_s = sum(record.hunt_s * record.scale for record in records)
    work = sum(record.replayed + record.pruned for record in records)
    return {
        "wall_s": sum(record.wall_s * record.scale for record in records),
        "interleavings_per_s": work / hunt_s if hunt_s else 0.0,
        "setup_s": sum(record.setup_s * record.scale for record in records),
    }


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set in MB: this process, plus the largest waited-for
    child when the workload forks workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def subject_ops(specs: Sequence[HuntSpec]) -> Dict[type, Tuple[str, List[str]]]:
    """The RDL op methods each subject class is called through, read from
    one (untimed) recording of every scenario."""
    ops: Dict[type, Tuple[str, set]] = {}
    for spec in specs:
        recorded = record_scenario(scenario(spec.scenario), fixed=spec.fixed)
        for event in recorded.events:
            if event.kind in (EventKind.UPDATE, EventKind.READ):
                cls = type(recorded.cluster.host(event.replica_id).rdl)
                ops.setdefault(cls, (recorded.scenario.subject, set()))[1].add(event.op_name)
    return {cls: (subject, sorted(names)) for cls, (subject, names) in ops.items()}
