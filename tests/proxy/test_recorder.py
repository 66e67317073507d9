"""Tests for the event recorder (workload capture)."""

import pytest

from repro.bench.harness import record_scenario
from repro.bugs.registry import scenario
from repro.core.errors import RecordingError
from repro.core.events import EventKind
from repro.net.cluster import Cluster
from repro.proxy.interceptor import is_instrumented
from repro.proxy.recorder import EventRecorder
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestRecording:
    def test_update_events_captured(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")
        events = recorder.stop()
        assert len(events) == 1
        event = events[0]
        assert event.kind == EventKind.UPDATE
        assert event.replica_id == "A"
        assert event.op_name == "set_add"
        assert event.args == ("s", "x")

    def test_sync_captured_as_two_events(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.sync("A", "B")
        events = recorder.stop()
        assert [e.kind for e in events] == [EventKind.SYNC_REQ, EventKind.EXEC_SYNC]
        assert events[0].replica_id == "A"   # req executes at the sender
        assert events[1].replica_id == "B"   # exec at the receiver
        assert events[0].channel == ("A", "B")

    def test_reads_classified(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")  # pre-workload setup, unrecorded
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_value("s")
        events = recorder.stop()
        assert events[0].kind == EventKind.READ

    def test_event_ids_sequential(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        cluster.rdl("B").set_value("s")
        events = recorder.stop()
        assert [e.event_id for e in events] == ["e1", "e2", "e3", "e4"]

    def test_internal_calls_not_recorded(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")  # internally calls create()
        events = recorder.stop()
        assert [e.op_name for e in events] == ["set_add"]

    def test_stop_removes_proxies(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        recorder.stop()
        cluster.rdl("A").set_add("s", "x")
        assert recorder.events == []

    def test_recovery_does_not_reinstall_proxies(self):
        # Yorkie takes a durable push checkpoint on every sync, including
        # the syncs of the recording run; recovering from one must not
        # bring back the recorder's proxies after the recorder stopped.
        recorded = record_scenario(scenario("Yorkie-1"))
        recorded.cluster.crash("A")
        recorded.cluster.recover("A")
        assert not is_instrumented(recorded.cluster.rdl("A"))

    def test_double_start_rejected(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        with pytest.raises(RecordingError):
            recorder.start()
        recorder.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RecordingError):
            EventRecorder(make_cluster()).stop()

    def test_workload_still_takes_effect_while_recording(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        recorder.stop()
        assert cluster.rdl("B").set_value("s") == frozenset({"x"})

    def test_kwargs_recorded(self):
        cluster = make_cluster()
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").todo_create_safe("t", "x", nonce="n1")
        events = recorder.stop()
        assert events[0].kwargs_dict() == {"nonce": "n1"}
