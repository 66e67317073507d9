"""The quarantine path and the per-replay watchdog.

An injected fault can wedge or blow up a subject mid-replay in ways the
engine does not model.  The harness must capture the wreckage and keep
exploring — a hunt never dies to one broken replay.
"""

import copy
import time

import pytest

from repro.core import ErPi, fuzzing
from repro.core.events import EventKind
from repro.core.explorers import ERPiExplorer
from repro.core.fuzzing import WorkloadFuzzer
from repro.core.interleavings import group_events
from repro.core.profiling import ResourceProfiler
from repro.core.replay import ReplayEngine, SequentialExecutor
from repro.faults.errors import ReplayTimeout
from repro.faults.plan import CrashSpec, FaultPlan
from repro.misconceptions.detectors import NOT_DETECTED, detect
from repro.misconceptions.seeds import MisconceptionSeed
from repro.net.cluster import Cluster


class FragileLibrary:
    """Minimal RDL whose ``apply_sync`` explodes on an empty payload.

    The recorded run always ships a non-empty payload (the update precedes
    the sync), so only *permuted* interleavings trigger the RuntimeError —
    exactly the \"unexpected subject exception mid-hunt\" the quarantine
    path exists for.
    """

    def __init__(self, replica_id, slow_s=0.0):
        self.replica_id = replica_id
        self.items = []
        self.slow_s = slow_s

    def add(self, item):
        if self.slow_s:
            time.sleep(self.slow_s)
        self.items.append(item)

    def sync_payload(self, target_replica_id):
        return list(self.items)

    def apply_sync(self, payload, from_replica_id):
        if not payload:
            raise RuntimeError("subject exploded on empty payload")
        for item in payload:
            if item not in self.items:
                self.items.append(item)

    def checkpoint(self):
        return copy.deepcopy(self.items)

    def restore(self, snapshot):
        self.items = copy.deepcopy(snapshot)

    def value(self):
        return sorted(self.items)


def fragile_cluster(slow_s=0.0):
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, FragileLibrary(rid, slow_s=slow_s))
    return cluster


def run_fragile_session(**session_kwargs):
    cluster = fragile_cluster()
    erpi = ErPi(cluster, **session_kwargs)
    erpi.start()
    cluster.rdl("A").add("x")
    cluster.sync("A", "B")
    return erpi.end()


class TestQuarantine:
    def test_unexpected_exception_is_quarantined_not_fatal(self):
        report = run_fragile_session()
        assert report.quarantined, "the empty-payload replay must be captured"
        q = report.quarantined[0]
        assert q.error_type == "RuntimeError"
        assert "empty payload" in q.message
        assert "e1" in q.interleaving or "e2" in q.interleaving
        # The hunt continued: quarantined replays count as explored and the
        # other interleavings completed normally.
        assert report.explored > len(report.quarantined)

    def test_quarantined_replays_persisted_as_datalog_facts(self):
        cluster = fragile_cluster()
        erpi = ErPi(cluster, persist=True)
        erpi.start()
        cluster.rdl("A").add("x")
        cluster.sync("A", "B")
        report = erpi.end()
        assert report.quarantined
        rows = erpi.store.quarantines()
        assert rows and all(error == "RuntimeError" for _, error in rows)
        assert "quarantined" in erpi.export_datalog()

    def test_cluster_restored_after_quarantine(self):
        cluster = fragile_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        cluster.rdl("A").add("x")
        cluster.sync("A", "B")
        erpi.end()
        # end() resets to the pre-workload checkpoint even when some replays
        # blew up mid-way.
        assert cluster.rdl("A").value() == []

    def test_quarantine_carries_fault_plan_description(self):
        cluster = fragile_cluster()
        plan = FaultPlan(crashes=(CrashSpec("B", crash_after="e1"),))
        erpi = ErPi(cluster, faults=plan)
        erpi.start()
        cluster.rdl("A").add("x")
        cluster.sync("A", "B")
        report = erpi.end()
        assert report.quarantined
        assert report.quarantined[0].fault_plan == plan.describe()
        assert len(report.fault_events) == 2

    def test_session_summary_mentions_quarantines(self):
        report = run_fragile_session()
        assert "quarantined replays" in report.summary()


class TestWatchdog:
    def test_sequential_executor_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            SequentialExecutor(timeout_s=0)

    def test_watchdog_raises_replay_timeout(self):
        cluster = Cluster()
        cluster.add_replica("A", FragileLibrary("A", slow_s=0.05))
        engine = ReplayEngine(cluster, SequentialExecutor(timeout_s=0.01))
        engine.checkpoint()
        from repro.core.events import make_update

        events = (make_update("e1", "A", "add", 1), make_update("e2", "A", "add", 2))
        with pytest.raises(ReplayTimeout):
            engine.replay(events)

    def test_timed_out_replay_is_quarantined_in_session(self):
        cluster = fragile_cluster(slow_s=0.05)
        erpi = ErPi(cluster, replay_timeout_s=0.01)
        erpi.start()
        cluster.rdl("A").add("x")
        cluster.rdl("B").add("y")
        report = erpi.end()
        assert report.quarantined
        assert any(q.error_type == "ReplayTimeout" for q in report.quarantined)

    def test_replay_timeout_plumbs_into_executor(self):
        erpi = ErPi(fragile_cluster(), replay_timeout_s=2.5)
        assert isinstance(erpi._engine.executor, SequentialExecutor)
        assert erpi._engine.executor.timeout_s == 2.5


def add_everywhere(cluster, rng):
    """Fuzzer op: every replica adds the same item, so once one has run,
    every sync ships a payload (the run's closing exchange included) and
    permuted replays that sync before it blow up."""
    item = rng.choice(["x", "y"])
    for rid in cluster.replica_ids():
        cluster.rdl(rid).add(item)


def sync_pair(cluster, rng):
    sender = rng.choice(cluster.replica_ids())
    receiver = "B" if sender == "A" else "A"
    cluster.sync(sender, receiver)


def add_one(cluster, rng):
    """Fuzzer op: one random replica adds an item, so a sync from the other
    replica can still ship an empty payload and raise."""
    cluster.rdl(rng.choice(cluster.replica_ids())).add(rng.choice(["x", "y"]))


class FragileSeed(MisconceptionSeed):
    """A one-cell Table-2 seed over the fragile subject."""

    subject = "Fragile"
    misconception = 1

    def build_cluster(self):
        return fragile_cluster()

    def workload(self, cluster):
        cluster.rdl("A").add("x")
        cluster.sync("A", "B")


class TestEverySinkQuarantines:
    """The fuzzer, the profiler and the Table-2 detector run on the shared
    explore loop, so a replay that raises is quarantined, not fatal."""

    def test_fuzzer_reports_the_raising_replay_as_a_finding(self):
        fuzzer = WorkloadFuzzer(fragile_cluster, op_pool=[add_everywhere, sync_pair])
        report = fuzzer.run(runs=2)
        assert report.findings
        assert any(
            "RuntimeError" in message
            for finding in report.findings
            for message in finding.violations
        )

    def test_fuzzer_drops_the_events_of_an_op_that_raised(self, monkeypatch):
        """Regression: a sync whose ``apply_sync`` raised left its sync
        request in the workload with no execution, and a raising sync in
        the closing all-pairs exchange aborted the whole campaign."""
        workloads = []

        class RecordingExplorer(ERPiExplorer):
            def __init__(self, events, *args, **kwargs):
                workloads.append(tuple(events))
                super().__init__(events, *args, **kwargs)

        monkeypatch.setattr(fuzzing, "ERPiExplorer", RecordingExplorer)
        fuzzer = WorkloadFuzzer(fragile_cluster, op_pool=[add_one, sync_pair], seed=0)
        report = fuzzer.run(runs=20)
        assert report.runs == 20
        assert workloads
        for events in workloads:
            paired = {first for first, _ in group_events(events).grouped_pairs}
            requests = [e.event_id for e in events if e.kind == EventKind.SYNC_REQ]
            assert set(requests) <= paired, [e.describe() for e in events]

    def test_profiler_counts_the_quarantined_replay(self):
        cluster = fragile_cluster()
        profiler = ResourceProfiler(cluster)
        profiler.start()
        cluster.rdl("A").add("x")
        cluster.sync("A", "B")
        report = profiler.end()
        assert report.replayed == 1
        assert report.quarantined == 1
        assert "quarantined replays: 1" in report.summary()
        assert cluster.rdl("A").value() == []

    def test_detect_counts_the_quarantined_replay(self):
        result = detect(FragileSeed())
        assert result.verdict == NOT_DETECTED
        assert result.explored == 2
        assert result.quarantined == 1
