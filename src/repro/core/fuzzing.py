"""Workload fuzzing on top of exhaustive replay (paper §8 future work).

The paper plans to extend ER-pi "for tasks such as resource profiling and
fuzzing".  This module provides the fuzzing half: instead of replaying one
developer-written workload, a :class:`WorkloadFuzzer` *generates* random
workloads from an operation pool, records each one through the normal
proxying pipeline, and hands it to the ER-pi explorer.  Every generated
workload thus gets the full interleaving treatment — the fuzzer searches
the workload space while ER-pi searches the schedule space.

Default invariants are generic and double-layered: per interleaving,
settled replicas must converge; across the interleavings of one workload,
every settled interleaving that also *preserves per-replica program order*
must produce the same final states — a library that loses updates can leave
replicas agreeing on the wrong state, and only the cross-interleaving
comparison exposes that.  (Interleavings that reorder one replica's own ops
are still replayed and checked per-interleaving, but excluded from the
stability digest: an app removing an element it just added is genuinely
order-dependent even on a perfect library.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.assertions import (
    _freeze,
    assert_convergence_when_settled,
    is_settled,
)
from repro.core.explorers import ERPiExplorer
from repro.core.replay import ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.net.cluster import Cluster
from repro.proxy.recorder import EventRecorder

#: An operation generator: (cluster, rng) -> None, performing one app call.
OpGenerator = Callable[[Cluster, random.Random], None]


@dataclass
class FuzzFinding:
    """One violating (workload, interleaving) pair."""

    run_index: int
    events: Tuple[Any, ...]
    violations: List[str]
    interleaving_ids: Tuple[str, ...]

    def describe(self) -> str:
        ops = ", ".join(event.describe() for event in self.events)
        return f"run {self.run_index}: [{ops}] -> {self.violations[0]}"


@dataclass
class FuzzReport:
    """Aggregate result of a fuzzing campaign."""

    runs: int
    total_interleavings: int
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def violating_runs(self) -> int:
        return len({finding.run_index for finding in self.findings})

    def summary(self) -> str:
        return (
            f"{self.runs} fuzzed workloads, {self.total_interleavings} "
            f"interleavings replayed, {self.violating_runs} workloads with "
            f"violations ({len(self.findings)} violating interleavings)"
        )


def crdt_library_op_pool() -> List[OpGenerator]:
    """A default (monotone) op pool for the CRDT-collection subject."""

    items = ["alpha", "beta", "gamma", "delta"]

    def set_add(cluster: Cluster, rng: random.Random) -> None:
        replica = rng.choice(cluster.replica_ids())
        cluster.rdl(replica).set_add("fuzz-set", rng.choice(items))

    def counter_increment(cluster: Cluster, rng: random.Random) -> None:
        replica = rng.choice(cluster.replica_ids())
        cluster.rdl(replica).counter_increment("fuzz-counter", rng.randint(1, 3))

    def flag_enable(cluster: Cluster, rng: random.Random) -> None:
        replica = rng.choice(cluster.replica_ids())
        cluster.rdl(replica).flag_enable("fuzz-flag")

    def sync(cluster: Cluster, rng: random.Random) -> None:
        ids = cluster.replica_ids()
        sender = rng.choice(ids)
        receiver = rng.choice([rid for rid in ids if rid != sender])
        cluster.sync(sender, receiver)

    # Syncs are weighted up so workloads are usually connected enough for
    # the settledness gate to fire.  The default pool is *monotone* on
    # purpose: LWW registers (winner depends on stamp, i.e. on the
    # interleaving) and observed-remove deletes (effect depends on which
    # concurrent adds the remover had seen) are legitimately
    # order-dependent even on a perfect library, so they would trip the
    # cross-interleaving stability check with false positives.  A custom
    # pool must keep that property, because both oracles run on every
    # workload.
    return [set_add, counter_increment, flag_enable, sync, sync]


class WorkloadFuzzer:
    """Generate-record-explore fuzzing loop."""

    def __init__(
        self,
        cluster_factory: Callable[[], Cluster],
        op_pool: Optional[Sequence[OpGenerator]] = None,
        seed: int = 0,
    ) -> None:
        if op_pool is not None and not list(op_pool):
            raise ValueError("op pool must not be empty")
        self.cluster_factory = cluster_factory
        self.op_pool = list(op_pool) if op_pool is not None else crdt_library_op_pool()
        self.seed = seed

    def _generate(self, recorder: EventRecorder, rng: random.Random, ops: int) -> None:
        cluster = recorder.cluster

        def attempt(call: Callable[..., Any], *args: Any) -> None:
            # A call that raises (e.g. removing from an empty set on a strict
            # structure) is skipped with what the recorder logged for it: the
            # fuzzer wants recorded, executable workloads, and a sync request
            # whose execution raised would replay as a different program.
            mark = len(recorder.events)
            try:
                call(*args)
            except Exception:
                del recorder.events[mark:]

        for _ in range(ops):
            attempt(rng.choice(self.op_pool), cluster, rng)
        # End every workload with one full exchange so the settledness gate
        # has a chance to fire.
        ids = cluster.replica_ids()
        for sender in ids:
            for receiver in ids:
                if sender != receiver:
                    attempt(cluster.sync, sender, receiver)

    def run(
        self,
        runs: int = 10,
        ops_per_run: int = 5,
        cap_per_run: int = 200,
    ) -> FuzzReport:
        """Fuzz ``runs`` workloads; explore up to ``cap_per_run`` interleavings
        of each on the shared explore loop; collect every violation.  A
        replay that raises is quarantined and reported as a finding that
        names the error type."""
        report = FuzzReport(runs=runs, total_interleavings=0)
        for run_index in range(runs):
            rng = random.Random((self.seed, run_index).__hash__())
            cluster = self.cluster_factory()
            engine = ReplayEngine(cluster)
            engine.checkpoint()
            recorder = EventRecorder(cluster)
            recorder.start()
            self._generate(recorder, rng, ops_per_run)
            events = tuple(recorder.stop())
            if not events:
                continue
            replica_ids = cluster.replica_ids()
            recorded_order: Dict[str, List[str]] = {}
            for event in events:
                if not event.is_sync:
                    recorded_order.setdefault(event.replica_id, []).append(
                        event.event_id
                    )

            def preserves_program_order(interleaving) -> bool:
                """Each replica's own updates/reads stay in recorded order.

                Sync events move freely (delivery timing is the
                nondeterminism under test); reordering a replica's own
                updates against each other produces a different *program*,
                which may legitimately compute a different state.
                """
                per_replica: Dict[str, List[str]] = {}
                for event in interleaving:
                    if not event.is_sync:
                        per_replica.setdefault(event.replica_id, []).append(
                            event.event_id
                        )
                return per_replica == recorded_order

            violations: List[str] = []
            violating_ids: Tuple[str, ...] = ()
            settled_reference: Optional[Tuple[Any, Tuple[str, ...]]] = None

            def commit(interleaving, outcome) -> bool:
                nonlocal settled_reference, violating_ids
                ids = tuple(e.event_id for e in interleaving)
                if isinstance(outcome, QuarantinedReplay):
                    violations.append(
                        f"replay raised {outcome.error_type}: {outcome.message}"
                    )
                    violating_ids = ids
                    return True
                if outcome.violated:
                    violations.extend(outcome.violations)
                    violating_ids = ids
                    return True
                if is_settled(outcome, replica_ids) and preserves_program_order(
                    interleaving
                ):
                    digest = _freeze(outcome.states)
                    if settled_reference is None:
                        settled_reference = (digest, ids)
                    elif settled_reference[0] != digest:
                        violations.append(
                            "settled interleavings disagree on the final "
                            f"states: {ids} vs {settled_reference[1]}"
                        )
                        violating_ids = ids
                        return True
                return False

            explored = ERPiExplorer(events).explore(
                engine,
                [assert_convergence_when_settled()],
                cap=cap_per_run,
                on_commit=commit,
            ).explored
            report.total_interleavings += explored
            if violations:
                report.findings.append(
                    FuzzFinding(
                        run_index=run_index,
                        events=events,
                        violations=violations,
                        interleaving_ids=violating_ids,
                    )
                )
        return report
