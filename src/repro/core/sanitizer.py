"""Differential soundness sanitizer for pruning.

ER-pi's headline guarantee — every interleaving it *skips* is equivalent to
one it replayed — rests on its pruning algorithms (``repro.core.pruning``),
which merge interleavings into equivalence classes and replay one
representative per class.  They are sound by construction on paper but not
self-checking in code.

This module cross-validates them against ground truth (a from-scratch
replay), in the spirit of MET's model-checked oracle and Replication-Aware
Linearizability's "skipped member ≡ replayed representative" obligation:

* **class sampling** — every pruner records, per equivalence class, its
  representative plus a seeded reservoir sample of up to K skipped members
  (:class:`~repro.core.pruning.base.ClassSampler`); :meth:`Sanitizer.finish`
  replays representative and members fresh and asserts the observables the
  class key promises to preserve are byte-identical (compared via
  :func:`~repro.core.assertions._freeze` digests of the observable states);
* **Datalog facts** — every divergence is recorded as
  ``divergence(class_key, rep_id, member_id, field)`` in an
  :class:`~repro.datalog.store.InterleavingStore`, so violations are
  queryable and exportable alongside the interleavings themselves.

What "observable" means depends on the pruner, because each algorithm
promises a different equivalence:

* replica-specific — the scoped replica's final state, reads and failed ops;
* read-scoped — the scoped replica's observations up to its last READ;
* independence / failed-ops / grouping / DPOR — every replica's final
  state, every READ result, and the set of failed event ids (global
  equivalence).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.assertions import _freeze
from repro.core.events import EventKind
from repro.core.explorers import ERPiExplorer, Explorer
from repro.core.interleavings import Interleaving
from repro.core.pruning import (
    EventGroupPruner,
    Pruner,
    ReadScopedPruner,
    ReplicaSpecificPruner,
)
from repro.core.replay import InterleavingOutcome, ReplayEngine


def interleaving_id(interleaving: Interleaving) -> str:
    """A compact stable identifier: the event ids joined with ``|``."""
    return "|".join(event.event_id for event in interleaving)


def _short_key(class_key: Hashable, limit: int = 120) -> str:
    text = repr(class_key)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# --------------------------------------------------------------- observables


def outcome_observables(outcome: InterleavingOutcome) -> Dict[str, Hashable]:
    """The global observable digest of one replay: every replica's final
    state, every READ result, and the set of failed event ids."""
    fields: Dict[str, Hashable] = {}
    for rid, state in outcome.states.items():
        fields[f"state[{rid}]"] = _freeze(state)
    failed: List[str] = []
    for res in outcome.event_results:
        if res.event.kind is EventKind.READ:
            fields[f"read[{res.event.event_id}]"] = _freeze(res.result)
        if not res.ok:
            failed.append(res.event.event_id)
    fields["failed_ops"] = frozenset(failed)
    return fields


def scoped_observables(
    pruner: Pruner, outcome: InterleavingOutcome
) -> Dict[str, Hashable]:
    """The observables ``pruner``'s equivalence actually promises to preserve."""
    if isinstance(pruner, ReadScopedPruner):
        return _read_scoped_observables(pruner.replica_id, outcome)
    if isinstance(pruner, ReplicaSpecificPruner):
        return _replica_observables(pruner.replica_id, outcome)
    return outcome_observables(outcome)


def _replica_observables(
    replica_id: str, outcome: InterleavingOutcome
) -> Dict[str, Hashable]:
    fields: Dict[str, Hashable] = {
        f"state[{replica_id}]": _freeze(outcome.states.get(replica_id))
    }
    failed: List[str] = []
    for res in outcome.event_results:
        if res.event.replica_id != replica_id:
            continue
        if res.event.kind is EventKind.READ:
            fields[f"read[{res.event.event_id}]"] = _freeze(res.result)
        if not res.ok:
            failed.append(res.event.event_id)
    fields[f"failed_ops[{replica_id}]"] = frozenset(failed)
    return fields


def _read_scoped_observables(
    replica_id: str, outcome: InterleavingOutcome
) -> Dict[str, Hashable]:
    """Observations at ``replica_id`` up to (and including) its last READ.

    The read-scoped class key only constrains the replica's history up to
    its final read — events ordered after it may legitimately differ across
    class members, so the final state is *not* comparable.  Without any READ
    the key falls back to the full observation signature, and the
    replica-specific observables apply.
    """
    last_read = -1
    for position, res in enumerate(outcome.event_results):
        event = res.event
        if event.replica_id == replica_id and event.kind is EventKind.READ:
            last_read = position
    if last_read < 0:
        return _replica_observables(replica_id, outcome)
    fields: Dict[str, Hashable] = {}
    failed: List[str] = []
    for res in outcome.event_results[: last_read + 1]:
        event = res.event
        if event.replica_id != replica_id:
            continue
        if event.kind is EventKind.READ:
            fields[f"read[{event.event_id}]"] = _freeze(res.result)
        if not res.ok:
            failed.append(event.event_id)
    fields[f"failed_ops[{replica_id}]"] = frozenset(failed)
    return fields


def diff_observables(
    expected: Dict[str, Hashable], actual: Dict[str, Hashable]
) -> List[str]:
    """Field names on which the two observable digests disagree."""
    return sorted(
        name
        for name in set(expected) | set(actual)
        if expected.get(name, _MISSING) != actual.get(name, _MISSING)
    )


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return "<missing>"


_MISSING = _Missing()


# --------------------------------------------------------------- divergences


@dataclass(frozen=True)
class Divergence:
    """One broken equivalence: a skipped member whose observables differ
    from its representative's."""

    source: str  # pruner name
    class_key: str
    rep_id: str
    member_id: str
    field: str
    detail: str = ""

    def describe(self) -> str:
        return (
            f"[{self.source}] {self.field} diverged: member {self.member_id} "
            f"!= representative {self.rep_id} (class {self.class_key})"
        )


class DivergenceLog:
    """Thread-safe divergence collector, optionally mirrored into Datalog.

    Every recorded divergence becomes a ``divergence(class_key, rep_id,
    member_id, field)`` fact when a store is attached, so soundness
    violations are queryable (and exportable) like any other relation.
    """

    def __init__(self, store: Optional[Any] = None) -> None:
        self._lock = threading.Lock()
        self._divergences: List[Divergence] = []
        self.store = store

    def record(self, divergence: Divergence) -> None:
        with self._lock:
            self._divergences.append(divergence)
            if self.store is not None:
                self.store.persist_divergence(
                    divergence.class_key,
                    divergence.rep_id,
                    divergence.member_id,
                    divergence.field,
                )

    @property
    def divergences(self) -> List[Divergence]:
        with self._lock:
            return list(self._divergences)

    def __len__(self) -> int:
        with self._lock:
            return len(self._divergences)


@dataclass
class SanitizerReport:
    """Everything one sanitized run learned about its own soundness."""

    divergences: List[Divergence] = field(default_factory=list)
    classes_checked: int = 0
    members_checked: int = 0
    fresh_replays: int = 0
    overhead_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            "sanitizer: "
            + ("OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"),
            f"  classes sampled: {self.classes_checked} "
            f"({self.members_checked} skipped members replayed)",
            f"  fresh replays: {self.fresh_replays}, "
            f"overhead: {self.overhead_s * 1e3:.1f} ms",
        ]
        for divergence in self.divergences[:5]:
            lines.append(f"  {divergence.describe()}")
        if len(self.divergences) > 5:
            lines.append(f"  ... and {len(self.divergences) - 5} more")
        return "\n".join(lines)


# ------------------------------------------------------------- orchestration


class Sanitizer:
    """Owns one run's divergence log and class sampling.

    Usage (what :func:`~repro.core.explorers.build_explorer` and the
    process workers do)::

        sanitizer = Sanitizer(sample_k=2)
        sanitizer.watch(explorer)           # class sampling + grouping audit
        ... explore ...
        report = sanitizer.finish(engine)   # differential class replay
    """

    def __init__(
        self,
        sample_k: int = 2,
        seed: int = 0,
        store: Optional[Any] = None,
    ) -> None:
        self.sample_k = sample_k
        self.seed = seed
        self.log = DivergenceLog(store=store)
        self._watched: List[Pruner] = []

    # ------------------------------------------------------------- wiring

    def watch_pruners(self, pruners: Iterable[Pruner]) -> None:
        """Enable class sampling on ``pruners`` and audit them at finish."""
        for offset, pruner in enumerate(pruners):
            pruner.enable_sampling(
                sample_k=self.sample_k, seed=self.seed + len(self._watched) + offset
            )
            self._watched.append(pruner)

    def watch(self, explorer: Explorer) -> None:
        """Sample ``explorer``'s pruning classes and audit its grouping.

        Its pipeline's pruners are watched first, then an Algorithm-1
        auditor prepared on the schedule the explorer streams (fault events
        included) rides along as an audit pruner.  Explorers without a
        pruning pipeline (DFS, Rand) have nothing to audit.
        """
        if not isinstance(explorer, ERPiExplorer):
            return
        self.watch_pruners(explorer.pipeline.pruners)
        explorer.audit_pruners.append(
            self.grouping_auditor(explorer.events, explorer.spec_groups)
        )

    def grouping_auditor(
        self,
        events: Sequence[Any],
        spec_groups: Sequence[Tuple[str, str]] = (),
    ) -> EventGroupPruner:
        """An Algorithm-1 auditor over the generated candidate stream.

        Grouping acts pre-generation in the production path, so nothing is
        merged post-hoc there; auditing its key over the generated stream
        closes the loop for all four algorithms uniformly (and would catch a
        regression that let scattered sync pairs into the stream).
        """
        auditor = EventGroupPruner(spec_groups=tuple(spec_groups))
        auditor.prepare(tuple(events))
        self.watch_pruners([auditor])
        return auditor

    @property
    def watched_pruners(self) -> List[Pruner]:
        return list(self._watched)

    def reset_pruners(self) -> None:
        """Forget watched pruners (a new Start/End window builds its own)."""
        self._watched = []

    # ------------------------------------------------------------- verdicts

    def finish(self, engine: ReplayEngine) -> SanitizerReport:
        """Differentially replay every sampled class and build the report.

        ``engine`` provides ground truth via
        :meth:`~repro.core.replay.ReplayEngine.replay_fresh`; its checkpoint
        must still be the one the candidates were generated against.

        Observed engines get one ``sanitize`` span wrapping the whole
        differential pass (the fresh replays inside it emit their own
        ``replay:fresh`` child spans) and a ``sanitizer.divergences`` gauge.
        """
        tracer = engine.tracer
        span = tracer.begin("sanitize") if tracer is not None else None
        started = time.perf_counter()
        memo: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        fresh_replays = 0
        classes_checked = 0
        members_checked = 0

        def outcome_of(interleaving: Interleaving) -> InterleavingOutcome:
            nonlocal fresh_replays
            cache_key = tuple(event.event_id for event in interleaving)
            hit = memo.get(cache_key)
            if hit is None:
                fresh_replays += 1
                hit = {"outcome": engine.replay_fresh(interleaving)}
                memo[cache_key] = hit
            return hit["outcome"]

        for pruner in self._watched:
            sampler = pruner.sampler
            if sampler is None:
                continue
            for class_key, representative, members in sampler.classes():
                if not members:
                    continue
                classes_checked += 1
                rep_outcome = outcome_of(representative)
                rep_obs = scoped_observables(pruner, rep_outcome)
                rep_id = interleaving_id(representative)
                for member in members:
                    members_checked += 1
                    member_obs = scoped_observables(pruner, outcome_of(member))
                    for name in diff_observables(rep_obs, member_obs):
                        self.log.record(
                            Divergence(
                                source=pruner.name,
                                class_key=f"{pruner.name}#{_short_key(class_key)}",
                                rep_id=rep_id,
                                member_id=interleaving_id(member),
                                field=name,
                                detail=(
                                    f"rep={rep_obs.get(name, _MISSING)!r} "
                                    f"member={member_obs.get(name, _MISSING)!r}"
                                ),
                            )
                        )
        elapsed = time.perf_counter() - started
        report = SanitizerReport(
            divergences=self.log.divergences,
            classes_checked=classes_checked,
            members_checked=members_checked,
            fresh_replays=fresh_replays,
            overhead_s=elapsed,
        )
        if engine.metrics is not None:
            engine.metrics.set_gauge("sanitizer.divergences", len(report.divergences))
        if span is not None:
            tracer.end(
                span,
                classes=classes_checked,
                members=members_checked,
                divergences=len(report.divergences),
            )
        return report
