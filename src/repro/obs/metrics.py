"""Named counters, gauges and histograms for the exploration pipeline.

A :class:`MetricsRegistry` is the quantitative side of ``repro.obs``: the
explorers count interleavings generated / pruned-per-algorithm / replayed /
quarantined / discarded, the replay engine counts sync messages sent and
dropped by partitions and observes per-replay durations, and the resource
meter's per-category byte totals land as gauges.  A run that is not
observed holds ``None`` instead of a registry, and every call site checks
``metrics is not None`` before it counts.

The canonical metric names (asserted by the trace-smoke check and queried
in the docs) are:

* counters — ``interleavings.generated``, ``interleavings.invalid`` (only
  Rand counts it: ER-pi and DFS drop invalid schedules inside enumeration),
  ``interleavings.pruned``, ``pruned.<algorithm>``,
  ``interleavings.replayed``, ``interleavings.quarantined``,
  ``interleavings.discarded``, ``messages.sent``, ``messages.dropped``;
* gauges — ``resource.bytes.<category>``, ``sanitizer.divergences``;
* histograms — ``replay.duration_us``.

The exploration identity every run must satisfy (the trace-smoke job's
self-consistency assertion)::

    generated == pruned + replayed + quarantined + discarded

where ``discarded`` counts candidates that were generated (and possibly
dispatched to a parallel worker) but never committed because the run
stopped first.

Concurrency model: one registry instance is **not** locked on the hot
``inc``/``observe`` path — each writer owns its own registry.  Process
workers ship theirs as :meth:`MetricsRegistry.to_payload` snapshots, which
the parent folds in with :meth:`MetricsRegistry.merge_payload`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional


def quantile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated quantile of a pre-sorted non-empty sample
    (numpy's default: nearest-rank truncation biases small samples down)."""
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Histogram:
    """A streaming distribution: count/total/min/max plus a bounded sample.

    The sample keeps the first ``sample_cap`` observations (enough for the
    smoke checks and the bench's percentile summaries without unbounded
    memory on 10k-replay hunts).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "sample", "sample_cap")

    def __init__(self, sample_cap: int = 512) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.sample: List[float] = []
        self.sample_cap = sample_cap

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.sample) < self.sample_cap:
            self.sample.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile of the retained sample (0 if empty)."""
        if not self.sample:
            return 0.0
        return quantile(sorted(self.sample), fraction)

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        room = self.sample_cap - len(self.sample)
        if room > 0:
            self.sample.extend(other.sample[:room])

    def to_payload(self) -> Dict[str, Any]:
        """A plain-dict snapshot safe to pickle across a process boundary."""
        return {
            "count": self.count,
            "total": self.total,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "sample": list(self.sample),
            "sample_cap": self.sample_cap,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Histogram":
        histogram = cls(sample_cap=payload.get("sample_cap", 512))
        histogram.count = payload["count"]
        histogram.total = payload["total"]
        histogram.minimum = payload["minimum"]
        histogram.maximum = payload["maximum"]
        histogram.sample = list(payload["sample"])
        return histogram

    def describe(self) -> str:
        if not self.count:
            return "n/a"
        return (
            f"n={self.count} mean={self.mean:.1f} "
            f"p95={self.percentile(0.95):.1f} max={self.maximum:.1f}"
        )


class MetricsRegistry:
    """Counters, gauges and histograms; shardable for parallel writers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._merge_lock = threading.Lock()
        self._merged_epochs: set = set()

    # ------------------------------------------------------------- recording

    def inc(self, name: str, value: int = 1) -> None:
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # --------------------------------------------------------------- reading

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self.gauges.get(name)

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def consistent(self) -> bool:
        """The exploration identity: generated == pruned + replayed +
        quarantined + discarded (vacuously true before any exploration)."""
        return self.counter("interleavings.generated") == (
            self.counter("interleavings.pruned")
            + self.counter("interleavings.replayed")
            + self.counter("interleavings.quarantined")
            + self.counter("interleavings.discarded")
        )

    # -------------------------------------------------------------- sharding

    # A registry itself is not picklable (it owns a lock), so process-backed
    # exploration ships shards across the IPC boundary as plain dicts.

    def to_payload(self, epoch: Any = None) -> Dict[str, Any]:
        """A picklable snapshot of this registry (for IPC result batches).

        ``epoch`` optionally tags the snapshot with a hashable identity —
        procpool uses ``(slot, attempt)`` so a *cumulative* snapshot can be
        re-sent (e.g. a dead worker's last partial batch followed by the
        replacement's full totals for the same shard attempt) and merged at
        most once.  Untagged payloads always sum.
        """
        payload: Dict[str, Any] = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_payload()
                for name, histogram in self.histograms.items()
            },
        }
        if epoch is not None:
            payload["epoch"] = epoch
        return payload

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold a :meth:`to_payload` snapshot into this registry.

        Epoch-tagged payloads are idempotent per epoch: the first snapshot
        for an epoch wins and later ones (a crashed worker's stale partial
        arriving after its replacement already reported the full shard, or
        the same final batch delivered twice through a re-lease) are
        dropped rather than double-counted.
        """
        with self._merge_lock:
            epoch = payload.get("epoch")
            if epoch is not None:
                key = tuple(epoch) if isinstance(epoch, list) else epoch
                if key in self._merged_epochs:
                    return
                self._merged_epochs.add(key)
            for name, value in payload.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(payload.get("gauges", {}))
            for name, histogram_payload in payload.get("histograms", {}).items():
                mine = self.histograms.get(name)
                if mine is None:
                    mine = self.histograms[name] = Histogram(
                        sample_cap=histogram_payload.get("sample_cap", 512)
                    )
                mine.merge(Histogram.from_payload(histogram_payload))

    # --------------------------------------------------------------- exports

    def summary(self) -> str:
        lines = ["metrics:"]
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]:,}")
        for name in sorted(self.gauges):
            lines.append(f"  {name} = {self.gauges[name]:,.0f}")
        for name in sorted(self.histograms):
            lines.append(f"  {name}: {self.histograms[name].describe()}")
        return "\n".join(lines)

    def persist(self, store) -> int:
        """Mirror current totals as ``metric(name, value)`` Datalog facts.

        Values are integers (histograms persist their count, sum, and max);
        returns how many facts were offered to the store.
        """
        added = 0
        for name, value in self.counters.items():
            store.persist_metric(name, int(value))
            added += 1
        for name, value in self.gauges.items():
            store.persist_metric(name, int(value))
            added += 1
        for name, histogram in self.histograms.items():
            store.persist_metric(name + ".count", int(histogram.count))
            store.persist_metric(name + ".sum", int(histogram.total))
            if histogram.count:
                store.persist_metric(name + ".max", int(histogram.maximum))
                added += 1
            added += 2
        return added
