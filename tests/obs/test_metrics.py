"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.datalog.store import InterleavingStore
from repro.obs.metrics import Histogram, MetricsRegistry


class TestHistogram:
    def test_streaming_stats(self):
        histogram = Histogram()
        for value in (10.0, 30.0, 20.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(60.0)
        assert histogram.mean == pytest.approx(20.0)
        assert histogram.minimum == 10.0
        assert histogram.maximum == 30.0

    def test_percentile_interpolates(self):
        histogram = Histogram()
        for value in (10, 20, 30, 40):
            histogram.observe(value)
        assert histogram.percentile(0.5) == pytest.approx(25.0)
        assert histogram.percentile(0.95) == pytest.approx(38.5)

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.mean == 0.0
        assert histogram.percentile(0.5) == 0.0
        assert histogram.describe() == "n/a"

    def test_sample_is_bounded(self):
        histogram = Histogram(sample_cap=4)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert len(histogram.sample) == 4
        assert histogram.maximum == 99.0  # min/max track past the cap

    def test_merge(self):
        left, right = Histogram(), Histogram()
        left.observe(1.0)
        right.observe(9.0)
        right.observe(5.0)
        left.merge(right)
        assert left.count == 3
        assert left.minimum == 1.0
        assert left.maximum == 9.0
        assert left.total == pytest.approx(15.0)


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        metrics = MetricsRegistry()
        metrics.inc("interleavings.replayed")
        metrics.inc("interleavings.replayed", 4)
        metrics.set_gauge("cache.entries", 12)
        assert metrics.counter("interleavings.replayed") == 5
        assert metrics.counter("never.touched") == 0
        assert metrics.gauge("cache.entries") == 12
        assert metrics.gauge("never.touched") is None

    def test_observe_creates_histogram(self):
        metrics = MetricsRegistry()
        assert metrics.histogram("replay.duration_us") is None
        metrics.observe("replay.duration_us", 55.0)
        assert metrics.histogram("replay.duration_us").count == 1

    def test_counters_with_prefix(self):
        metrics = MetricsRegistry()
        metrics.inc("pruned.failed_ops", 3)
        metrics.inc("pruned.replica_specific", 2)
        metrics.inc("interleavings.pruned", 5)
        assert metrics.counters_with_prefix("pruned.") == {
            "pruned.failed_ops": 3,
            "pruned.replica_specific": 2,
        }

    def test_consistency_identity(self):
        metrics = MetricsRegistry()
        assert metrics.consistent()  # vacuously, before any exploration
        metrics.inc("interleavings.generated", 10)
        metrics.inc("interleavings.pruned", 4)
        metrics.inc("interleavings.replayed", 5)
        assert not metrics.consistent()
        metrics.inc("interleavings.quarantined", 1)
        assert metrics.consistent()

    def test_summary_and_as_dict(self):
        metrics = MetricsRegistry()
        metrics.inc("interleavings.replayed", 1234)
        metrics.set_gauge("cache.entries", 5)
        metrics.observe("replay.duration_us", 40.0)
        text = metrics.summary()
        assert "interleavings.replayed = 1,234" in text
        assert "cache.entries = 5" in text
        assert "replay.duration_us" in text
        assert metrics.counter("interleavings.replayed") == 1234
        assert metrics.histogram("replay.duration_us").count == 1

    def test_persist_lands_datalog_facts(self):
        metrics = MetricsRegistry()
        metrics.inc("interleavings.replayed", 9)
        metrics.set_gauge("cache.entries", 3)
        metrics.observe("replay.duration_us", 55.9)
        store = InterleavingStore()
        metrics.persist(store)
        facts = dict(store.metrics())
        assert facts["interleavings.replayed"] == 9
        assert facts["cache.entries"] == 3
        assert facts["replay.duration_us.count"] == 1
        assert facts["replay.duration_us.max"] == 55


class TestEpochIdempotentMerge:
    """Regression: a process-pool re-lease could deliver the same worker
    snapshot twice (the dead incarnation's final surfacing after its
    replacement already reported), double-counting every replay counter and
    breaking the exploration identity.  Epoch-tagged payloads merge once."""

    def snapshot(self, value, epoch):
        worker = MetricsRegistry()
        worker.inc("interleavings.replayed", value)
        return worker.to_payload(epoch=epoch)

    def test_same_epoch_merges_once(self):
        parent = MetricsRegistry()
        payload = self.snapshot(10, ("replay", 1, 1))
        parent.merge_payload(payload)
        parent.merge_payload(payload)  # re-delivered after a re-lease
        assert parent.counter("interleavings.replayed") == 10

    def test_distinct_attempts_both_merge(self):
        parent = MetricsRegistry()
        parent.merge_payload(self.snapshot(10, ("replay", 1, 1)))
        parent.merge_payload(self.snapshot(7, ("replay", 1, 2)))
        assert parent.counter("interleavings.replayed") == 17

    def test_untagged_payloads_always_sum(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        worker.inc("x", 1)
        parent.merge_payload(worker.to_payload())
        parent.merge_payload(worker.to_payload())
        assert parent.counter("x") == 2

    def test_epoch_survives_json_roundtrip(self):
        import json

        parent = MetricsRegistry()
        payload = json.loads(
            json.dumps(self.snapshot(3, ("stream", 0, 1)))
        )
        parent.merge_payload(payload)
        parent.merge_payload(payload)
        assert parent.counter("interleavings.replayed") == 3
