"""Tests for the resource profiler (paper §8 extension)."""

import pytest

from repro.core.profiling import Percentiles, ResourceProfiler
from repro.core.resources import state_footprint as _state_footprint
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def profiled_workload(cluster):
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("s", "x")
    cluster.sync("A", "B")
    b.set_add("s", "y")
    cluster.sync("B", "A")
    a.set_value("s")


class TestPercentiles:
    def test_empty(self):
        p = Percentiles.of([])
        assert (p.minimum, p.median, p.p95, p.maximum) == (0, 0, 0, 0)
        assert p.empty
        assert p.n == 0

    def test_order_statistics(self):
        p = Percentiles.of(list(range(1, 101)))
        assert p.minimum == 1
        # Linear interpolation: the median of 1..100 sits between the 50th
        # and 51st order statistics, not *at* the truncated nearest rank.
        assert p.median == pytest.approx(50.5)
        assert p.p95 == pytest.approx(95.05)
        assert p.maximum == 100
        assert p.n == 100
        assert not p.empty

    def test_small_n_interpolation(self):
        # n=4: rank(0.5) = 1.5 -> midway between the 2nd and 3rd values;
        # the old nearest-rank truncation reported 20 here.
        p = Percentiles.of([10, 20, 30, 40])
        assert p.median == pytest.approx(25.0)
        assert p.p95 == pytest.approx(38.5)

        # n=2: median is the midpoint, p95 sits 90% of the way up.
        p2 = Percentiles.of([0, 100])
        assert p2.median == pytest.approx(50.0)
        assert p2.p95 == pytest.approx(95.0)

        # n=1: every percentile is the single observation.
        p1 = Percentiles.of([7])
        assert (p1.minimum, p1.median, p1.p95, p1.maximum) == (7, 7, 7, 7)

    def test_matches_python_statistics_quantiles(self):
        import statistics

        data = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
        p = Percentiles.of(data)
        expected = statistics.quantiles(data, n=100, method="inclusive")
        assert p.median == pytest.approx(statistics.median(data))
        assert p.p95 == pytest.approx(expected[94])


class TestStateFootprint:
    def test_monotone_in_content(self):
        small = _state_footprint({"a": "x"})
        large = _state_footprint({"a": "x" * 100, "b": list(range(50))})
        assert large > small > 0

    def test_handles_nested_and_frozen(self):
        assert _state_footprint({"k": frozenset({1, 2}), "l": (None, True)}) > 0


class TestResourceProfiler:
    def test_profiles_every_interleaving(self):
        cluster = make_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        profiled_workload(cluster)
        report = profiler.end(cap=200)
        # 7 events, 2 sync pairs -> 5 units -> 120 interleavings.
        assert report.replayed == 120
        assert all(p.duration_s >= 0 for p in report.profiles)
        assert all(p.state_bytes > 0 for p in report.profiles)

    def test_message_accounting(self):
        cluster = make_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        profiled_workload(cluster)
        report = profiler.end(cap=50)
        # Every interleaving sends exactly its two sync requests.
        assert {p.messages_sent for p in report.profiles} == {2}

    def test_worst_ranking(self):
        cluster = make_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        profiled_workload(cluster)
        report = profiler.end(cap=30)
        worst = report.worst("state_bytes", top=3)
        assert len(worst) == 3
        assert worst[0].state_bytes >= worst[1].state_bytes >= worst[2].state_bytes

    def test_summary_text(self):
        cluster = make_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        profiled_workload(cluster)
        report = profiler.end(cap=10)
        text = report.summary()
        assert "interleavings profiled: 10" in text
        assert "replay time" in text

    def test_empty_report_summary_is_na(self):
        from repro.core.profiling import ProfileReport

        text = ProfileReport().summary()
        assert "interleavings profiled: 0" in text
        # Placeholder zeros must not masquerade as measurements.
        assert "n/a" in text
        assert "0.00 ms" not in text

    def test_requires_start(self):
        with pytest.raises(RuntimeError):
            ResourceProfiler(make_cluster()).end()

    def test_cluster_restored_after_profiling(self):
        cluster = make_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        profiled_workload(cluster)
        profiler.end(cap=5)
        assert cluster.rdl("A").value() == {}
