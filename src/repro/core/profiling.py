"""Resource profiling across interleavings (paper §8 future work).

The same exhaustive-replay machinery that checks invariants can *measure*:
how long does each interleaving take, how many library operations fail, how
much replicated state accumulates, how chatty is the wire?  A
:class:`ResourceProfiler` replays every surviving interleaving of a recorded
workload and reports the distribution — worst-case interleavings included,
which single-schedule profiling by definition misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.explorers import ERPiExplorer
from repro.core.interleavings import Interleaving
from repro.core.pruning.base import Pruner
from repro.core.replay import ReplayEngine
from repro.core.resources import state_footprint
from repro.faults.quarantine import QuarantinedReplay
from repro.net.cluster import Cluster
from repro.proxy.recorder import EventRecorder


@dataclass
class InterleavingProfile:
    """Resource measurements for one replayed interleaving."""

    index: int
    duration_s: float
    failed_ops: int
    messages_sent: int
    messages_dropped: int
    state_bytes: int
    event_ids: Tuple[str, ...]


@dataclass
class Percentiles:
    minimum: float
    median: float
    p95: float
    maximum: float
    #: Sample size; 0 marks an *empty* distribution, whose all-zero summary
    #: statistics are placeholders, not measurements.
    n: int = 0

    @property
    def empty(self) -> bool:
        return self.n == 0

    @classmethod
    def of(cls, values: Sequence[float]) -> "Percentiles":
        n = len(values)
        if not n:
            return cls(0.0, 0.0, 0.0, 0.0, n=0)
        ordered = sorted(values)

        def pick(fraction: float) -> float:
            # Linear interpolation between the bracketing order statistics
            # (numpy's default): nearest-rank truncation biases the median
            # and p95 downward on small n.
            rank = fraction * (n - 1)
            low = int(rank)
            high = min(low + 1, n - 1)
            return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

        return cls(float(ordered[0]), pick(0.5), pick(0.95), float(ordered[-1]), n=n)


@dataclass
class ProfileReport:
    """Distribution of resource usage across interleavings."""

    profiles: List[InterleavingProfile] = field(default_factory=list)
    #: Replays that raised and were quarantined instead of profiled.
    quarantined: int = 0

    @property
    def replayed(self) -> int:
        return len(self.profiles)

    def duration(self) -> Percentiles:
        return Percentiles.of([p.duration_s for p in self.profiles])

    def state_bytes(self) -> Percentiles:
        return Percentiles.of([float(p.state_bytes) for p in self.profiles])

    def failed_ops(self) -> Percentiles:
        return Percentiles.of([float(p.failed_ops) for p in self.profiles])

    def messages(self) -> Percentiles:
        return Percentiles.of([float(p.messages_sent) for p in self.profiles])

    def worst(self, metric: str = "duration_s", top: int = 3) -> List[InterleavingProfile]:
        """The ``top`` most expensive interleavings by ``metric``."""
        return sorted(
            self.profiles, key=lambda p: getattr(p, metric), reverse=True
        )[:top]

    def summary(self) -> str:
        duration = self.duration()
        state = self.state_bytes()
        failed = self.failed_ops()
        quarantined = (
            [f"quarantined replays: {self.quarantined}"] if self.quarantined else []
        )
        # An empty distribution has no statistics: "0 ms" would be
        # indistinguishable from a real all-zero sample.
        if duration.empty:
            return "\n".join(
                [
                    "interleavings profiled: 0",
                    *quarantined,
                    "replay time   n/a",
                    "state size    n/a",
                    "failed ops    n/a",
                ]
            )
        return "\n".join(
            [
                f"interleavings profiled: {self.replayed}",
                *quarantined,
                (
                    f"replay time   min {duration.minimum * 1e3:.2f} ms  "
                    f"median {duration.median * 1e3:.2f} ms  "
                    f"p95 {duration.p95 * 1e3:.2f} ms  "
                    f"max {duration.maximum * 1e3:.2f} ms"
                ),
                (
                    f"state size    min {state.minimum:.0f} B  "
                    f"median {state.median:.0f} B  max {state.maximum:.0f} B"
                ),
                f"failed ops    median {failed.median:.0f}  max {failed.maximum:.0f}",
            ]
        )


class ResourceProfiler:
    """Replay every (pruned) interleaving of a recorded workload, measuring."""

    def __init__(
        self,
        cluster: Cluster,
        pruners: Optional[Sequence[Pruner]] = None,
        spec_groups: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        self.cluster = cluster
        self.pruners = list(pruners or [])
        self.spec_groups = list(spec_groups or [])
        self._engine = ReplayEngine(cluster)
        self._recorder: Optional[EventRecorder] = None

    def start(self) -> None:
        self._engine.checkpoint()
        self._recorder = EventRecorder(self.cluster)
        self._recorder.start()

    def end(self, cap: int = 500) -> ProfileReport:
        if self._recorder is None:
            raise RuntimeError("profiler was not started")
        events = tuple(self._recorder.stop())
        self._recorder = None
        explorer = ERPiExplorer(
            events, spec_groups=self.spec_groups, pruners=self.pruners
        )
        report = ProfileReport()
        engine = self._engine
        cluster = self.cluster

        def profile(interleaving: Interleaving, outcome) -> bool:
            if isinstance(outcome, QuarantinedReplay):
                report.quarantined += 1
                return False
            # Committed straight after its replay: the cluster's counters,
            # zeroed by the replay's restore, are still this replay's.
            report.profiles.append(
                InterleavingProfile(
                    index=len(report.profiles) + report.quarantined,
                    duration_s=outcome.duration_s,
                    failed_ops=len(outcome.failed_ops),
                    messages_sent=cluster.sent_syncs,
                    messages_dropped=len(cluster.suppressed_sends),
                    state_bytes=state_footprint(outcome.states),
                    event_ids=tuple(e.event_id for e in interleaving),
                )
            )
            return False

        explorer.explore(engine, (), cap=cap, on_commit=profile)
        engine.restore()
        return report
