"""Common machinery for ER-pi's post-generation pruning algorithms.

Each pruner assigns every interleaving a *canonical class key*; interleavings
with equal keys are guaranteed to be equivalent for the property under test,
so ER-pi replays exactly one representative per class (the paper's "merge
k interleavings into a single one").

Two usage styles:

* batch — ``apply(interleavings)`` dedupes a list, keep-first;
* streaming — an explorer keeps a per-pruner seen-set and calls
  :meth:`Pruner.is_redundant` on each candidate before replaying it, which is
  what makes pruning usable on search spaces too large to materialise.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.interleavings import Interleaving, Unit


@dataclass
class PruneStats:
    """Bookkeeping for one pruner (feeds the Figure-9 benchmark)."""

    name: str
    examined: int = 0
    pruned: int = 0

    @property
    def kept(self) -> int:
        return self.examined - self.pruned


class ClassSampler:
    """Per-class bookkeeping for the differential sanitizer.

    Records, for every equivalence class a pruner sees, the representative
    (the first member — the one the explorer actually replays) and a seeded
    reservoir sample of up to ``sample_k`` *skipped* members, so the
    sanitizer can later replay both sides fresh and assert they agree.
    """

    def __init__(self, sample_k: int = 2, seed: int = 0) -> None:
        if sample_k < 1:
            raise ValueError("sample_k must be >= 1")
        self.sample_k = sample_k
        self._rng = random.Random(f"{seed}:class-sampler")
        self._reps: Dict[Hashable, Interleaving] = {}
        self._samples: Dict[Hashable, List[Interleaving]] = {}
        self._skipped_counts: Dict[Hashable, int] = {}

    def saw_representative(self, class_key: Hashable, interleaving: Interleaving) -> None:
        self._reps[class_key] = interleaving

    def saw_skipped(self, class_key: Hashable, interleaving: Interleaving) -> None:
        count = self._skipped_counts.get(class_key, 0) + 1
        self._skipped_counts[class_key] = count
        bucket = self._samples.setdefault(class_key, [])
        if len(bucket) < self.sample_k:
            bucket.append(interleaving)
        else:
            # Reservoir sampling: every skipped member ends up in the sample
            # with equal probability, however many the class accumulates.
            slot = self._rng.randrange(count)
            if slot < self.sample_k:
                bucket[slot] = interleaving

    def classes(self) -> Iterator[Tuple[Hashable, Interleaving, List[Interleaving]]]:
        """Yield ``(class_key, representative, sampled_skipped_members)`` for
        every class that actually merged at least one interleaving."""
        for class_key, members in self._samples.items():
            yield class_key, self._reps[class_key], list(members)

    @property
    def merged_classes(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._reps.clear()
        self._samples.clear()
        self._skipped_counts.clear()


class Pruner(abc.ABC):
    """One pruning algorithm: a canonical-class-key function plus stats."""

    name: str = "pruner"
    #: True if it keys a stream's unit permutations (DPOR); the rest key events.
    keys_units: bool = False

    def __init__(self) -> None:
        self._seen: Set[Hashable] = set()
        self.stats = PruneStats(name=self.name)
        self.sampler: Optional[ClassSampler] = None
        #: The class key computed by the most recent :meth:`is_redundant`
        #: call (observability: traced pipelines attach it to prune spans).
        self.last_key: Optional[Hashable] = None

    @abc.abstractmethod
    def key(self, interleaving: Interleaving) -> Hashable:
        """The equivalence-class key of ``interleaving`` for this pruner."""

    def enable_sampling(self, sample_k: int = 2, seed: int = 0) -> ClassSampler:
        """Start recording class representatives + sampled skipped members
        (the input to the differential soundness sanitizer)."""
        self.sampler = ClassSampler(sample_k=sample_k, seed=seed)
        return self.sampler

    def is_redundant(self, interleaving: Interleaving) -> bool:
        """Streaming check: True iff an equivalent interleaving was seen.

        Records the key as a side effect, so call it at most once per
        candidate.
        """
        return self._record(self.key(interleaving), interleaving)

    def _record(self, class_key: Hashable, interleaving: Optional[Interleaving]) -> bool:
        """Count and remember ``class_key``; the sampler gets ``interleaving``."""
        self.stats.examined += 1
        self.last_key = class_key
        sampler = self.sampler
        if class_key in self._seen:
            self.stats.pruned += 1
            if sampler is not None:
                sampler.saw_skipped(class_key, interleaving)
            return True
        self._seen.add(class_key)
        if sampler is not None:
            sampler.saw_representative(class_key, interleaving)
        return False

    def reset(self) -> None:
        self._seen.clear()
        self.stats = PruneStats(name=self.name)
        if self.sampler is not None:
            self.sampler.clear()

    def apply(self, interleavings: Sequence[Interleaving]) -> List[Interleaving]:
        """Batch dedupe, keep-first.  Uses a fresh seen-set."""
        self.reset()
        return [il for il in interleavings if not self.is_redundant(il)]


class PrunerPipeline:
    """A set of pruners applied jointly: an interleaving is redundant when
    *any* pruner has already seen its class (greedy union of equivalences).

    ``tracer``/``metrics`` (see :mod:`repro.obs`) are ``None`` until an
    observed explorer hands its own over, after which each pruner verdict
    emits a ``prune:<algorithm>`` span (with the class key as an
    attribute) and each merge bumps ``pruned.<algorithm>``.
    """

    def __init__(self, pruners: Iterable[Pruner]) -> None:
        self.pruners: List[Pruner] = list(pruners)
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None

    def start_stream(self, units: Sequence[Unit], events_of: Callable[..., Interleaving]) -> bool:
        """Reset every pruner for a stream of permutations of ``units``, whose
        events ``events_of`` builds.  True iff some pruner reads events."""
        self.reset()
        for pruner in self.pruners:
            if pruner.keys_units:
                pruner.start_stream(units, events_of)
        return any(not p.keys_units or p.sampler is not None for p in self.pruners)

    def is_redundant(self, interleaving: Optional[Interleaving], perm: Any = None) -> bool:
        """True iff some pruner has seen the candidate's class.  In a stream,
        pruners that key units get its unit permutation ``perm``, the rest
        ``interleaving`` (``None`` when none of them reads events)."""
        # Evaluate every pruner so each one's seen-set and stats stay
        # complete; redundancy is the OR across pruners.
        tracer = self.tracer
        metrics = self.metrics
        redundant = False
        for pruner in self.pruners:
            candidate = perm if perm is not None and pruner.keys_units else interleaving
            if tracer is not None:
                span = tracer.begin("prune:" + pruner.name)
                verdict = pruner.is_redundant(candidate)
                tracer.end(span, pruned=verdict, class_key=repr(pruner.last_key))
            else:
                verdict = pruner.is_redundant(candidate)
            if verdict:
                redundant = True
                if metrics is not None:
                    metrics.inc("pruned." + pruner.name)
        return redundant

    def apply(self, interleavings: Sequence[Interleaving]) -> List[Interleaving]:
        self.reset()
        return [il for il in interleavings if not self.is_redundant(il)]

    def reset(self) -> None:
        for pruner in self.pruners:
            pruner.reset()

    def stats(self) -> Dict[str, PruneStats]:
        return {pruner.name: pruner.stats for pruner in self.pruners}
