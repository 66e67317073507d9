"""Integration: subjects under every delivery order and under partitions,
plus recorder edge cases and the auto-grouping suggestion."""

import itertools

from repro.core import ErPi, assert_read_equals, suggest_update_sync_groups
from repro.core.events import EventKind
from repro.net.cluster import Cluster
from repro.proxy.recorder import EventRecorder
from repro.rdl.crdts_lib import CRDTLibrary
from repro.rdl.roshi import RoshiReplica


class TestSubjectsUnderReorderedTransport:
    """Misconception #1's environment: the network does NOT deliver causally.
    Proper CRDT merges shrug it off; the raw-apply seed does not."""

    def results_over_every_delivery_order(self, defects):
        """A's view after B's three payloads arrive, in each of the 6 orders."""
        results = set()
        for order in itertools.permutations(range(3)):
            a = RoshiReplica("A", defects=set(defects))
            b = RoshiReplica("B", defects=set(defects))
            payloads = []
            b.insert("k", "x", 10.0)
            payloads.append(b.sync_payload("A"))
            b.insert("k", "x", 30.0)
            payloads.append(b.sync_payload("A"))
            b.delete("k", "x", 20.0)
            payloads.append(b.sync_payload("A"))
            for index in order:
                a.apply_sync(payloads[index], "B")
            results.add(tuple(a.select("k")))
        return results

    def test_fixed_library_ignores_delivery_order(self):
        # add@30 beats delete@20 in every order.
        assert self.results_over_every_delivery_order(set()) == {("x",)}

    def test_raw_apply_depends_on_delivery_order(self):
        # Order-dependent: the misconception seed.
        results = self.results_over_every_delivery_order({"raw_apply"})
        assert results == {("x",), ()}

    def test_crdt_library_converges_despite_drops_and_retries(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        cluster.rdl("A").set_add("s", "x")
        cluster.rdl("B").set_add("s", "y")
        # A partition drops every send; retrying after the heal converges.
        cluster.partition("A", "B")
        assert not cluster.sync("A", "B")
        assert not cluster.sync("B", "A")
        cluster.heal()
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        assert cluster.converged()


class TestRecorderKwargsAndSyncForms:
    def test_sync_called_with_keywords_recorded(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.send_sync(sender="A", receiver="B")
        cluster.execute_sync(sender="A", receiver="B")
        events = recorder.stop()
        assert events[0].kind == EventKind.SYNC_REQ
        assert events[0].channel == ("A", "B")
        assert events[1].kind == EventKind.EXEC_SYNC
        assert events[1].replica_id == "B"


class TestAutoGroupingSuggestion:
    def record_motivating(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        recorder = EventRecorder(cluster)
        recorder.start()
        a, b = cluster.rdl("A"), cluster.rdl("B")
        a.set_add("problems", "otb")
        cluster.sync("A", "B")
        b.set_add("problems", "ph")
        cluster.sync("B", "A")
        b.set_remove("problems", "otb")
        cluster.sync("B", "A")
        a.set_value("problems")
        return recorder.stop()

    def test_reproduces_motivating_pairs(self):
        suggestion = suggest_update_sync_groups(self.record_motivating())
        assert suggestion.pairs == (("e1", "e2"), ("e4", "e5"), ("e7", "e8"))

    def test_none_when_no_adjacent_pairs(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.rdl("B").set_add("s", "y")  # update, update: no pair
        assert suggest_update_sync_groups(recorder.stop()) is None

    def test_sync_from_other_replica_not_paired(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        recorder = EventRecorder(cluster)
        recorder.start()
        cluster.rdl("A").set_add("s", "x")   # update at A...
        cluster.sync("B", "A")               # ...but B ships next: no pair
        assert suggest_update_sync_groups(recorder.stop()) is None

    def test_suggestion_drives_a_session(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        erpi = ErPi(cluster, replica_scope="A", read_scoped=True)
        erpi.start()
        a, b = cluster.rdl("A"), cluster.rdl("B")
        a.set_add("problems", "otb")
        cluster.sync("A", "B")
        b.set_add("problems", "ph")
        cluster.sync("B", "A")
        b.set_remove("problems", "otb")
        cluster.sync("B", "A")
        a.set_value("problems")
        # The developer does not hand-write the pairs: derive them.
        erpi.add_constraint(suggest_update_sync_groups(erpi.recorded_events))
        report = erpi.end(
            assertions=[assert_read_equals("e10", frozenset({"ph"}))]
        )
        assert report.grouping.unit_count == 4
        assert report.explored == 16
        assert report.violated
