"""Tests for the cluster and the two-phase sync protocol."""

import pytest

from repro.core import ErPi
from repro.net.cluster import Cluster, ClusterError, SuppressedSend
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster(n=2):
    cluster = Cluster()
    for rid in ("A", "B", "C")[:n]:
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestTopology:
    def test_add_and_lookup(self):
        cluster = make_cluster()
        assert cluster.replica_ids() == ["A", "B"]
        assert cluster.rdl("A").replica_id == "A"
        assert len(cluster) == 2

    def test_duplicate_replica_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ClusterError):
            cluster.add_replica("A", CRDTLibrary("A"))

    def test_unknown_replica_rejected(self):
        with pytest.raises(ClusterError):
            make_cluster().host("Z")

    def test_rdl_must_implement_protocol(self):
        cluster = Cluster()
        with pytest.raises(TypeError):
            cluster.add_replica("X", object())


class TestTwoPhaseSync:
    def test_send_then_execute(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")
        assert cluster.send_sync("A", "B") is True
        assert cluster.rdl("B").value() == {}  # not yet applied
        assert cluster.execute_sync("A", "B") is True
        assert cluster.rdl("B").set_value("s") == frozenset({"x"})

    def test_execute_without_send_is_noop(self):
        cluster = make_cluster()
        assert cluster.execute_sync("A", "B") is False

    def test_payload_snapshot_at_send_time(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "early")
        cluster.send_sync("A", "B")
        cluster.rdl("A").set_add("s", "late")
        cluster.execute_sync("A", "B")
        assert cluster.rdl("B").set_value("s") == frozenset({"early"})

    def test_sync_convenience(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")
        assert cluster.sync("A", "B") is True
        assert cluster.converged()

    def test_sync_all_converges_three_replicas(self):
        cluster = make_cluster(3)
        cluster.rdl("A").set_add("s", "a")
        cluster.rdl("B").set_add("s", "b")
        cluster.rdl("C").set_add("s", "c")
        cluster.sync_all(rounds=2)
        assert cluster.converged()
        assert cluster.rdl("A").set_value("s") == frozenset({"a", "b", "c"})

    def test_partitioned_sync_fails(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.rdl("A").set_add("s", "x")
        assert cluster.sync("A", "B") is False

    def test_sync_counters(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        cluster.partition("A", "B")
        cluster.sync("B", "A")
        assert cluster.sent_syncs == 1
        assert cluster.suppressed_sends == [SuppressedSend("B", "A")]


class TestPartitions:
    """Links are cut and healed as unordered pairs. The input checks and the
    heal-everything rule are in ``test_conditions.py``,
    ``test_conditions_edges.py`` and ``test_transport.py``."""

    def test_partition_is_symmetric(self):
        cluster = make_cluster(3)
        cluster.partition("A", "B")
        assert cluster.send_sync("B", "A") is False
        assert cluster.send_sync("A", "B") is False

    def test_partial_heal_keeps_the_other_cut(self):
        cluster = make_cluster(3)
        cluster.partition("A", "B")
        cluster.partition("A", "C")
        cluster.heal("A", "B")
        assert cluster.send_sync("A", "B")
        assert cluster.send_sync("B", "A")
        assert not cluster.send_sync("A", "C")
        assert not cluster.send_sync("C", "A")

    def test_heal_of_an_uncut_pair_is_a_noop(self):
        cluster = make_cluster(3)
        cluster.partition("A", "B")
        cluster.heal("A", "C")
        assert cluster.partitions == {frozenset({"A", "B"})}


class TestLifecycle:
    def test_checkpoint_restore_round_trip(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "before")
        snapshot = cluster.checkpoint()
        cluster.rdl("A").set_add("s", "after")
        cluster.sync("A", "B")
        cluster.restore(snapshot)
        assert cluster.rdl("A").set_value("s") == frozenset({"before"})
        assert cluster.rdl("B").value() == {}

    def test_restore_clears_in_flight_messages(self):
        cluster = make_cluster()
        snapshot = cluster.checkpoint()
        cluster.rdl("A").set_add("s", "x")
        cluster.send_sync("A", "B")
        cluster.restore(snapshot)
        assert cluster.execute_sync("A", "B") is False

    def test_checkpoint_refuses_in_flight_payloads(self):
        # Every restore empties the channels, so a payload in flight at the
        # checkpoint would be lost by every replay.
        cluster = make_cluster(3)
        cluster.rdl("A").set_add("s", "x")
        cluster.send_sync("A", "B")
        cluster.send_sync("C", "B")
        with pytest.raises(ClusterError, match="A->B, C->B"):
            cluster.checkpoint()
        cluster.execute_sync("A", "B")
        cluster.execute_sync("C", "B")
        cluster.checkpoint()

    def test_session_cannot_start_between_send_and_execute(self):
        # The recorded order would replay with the payload already gone:
        # the read below would see nothing in every interleaving.
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")
        cluster.send_sync("A", "B")
        with pytest.raises(ClusterError, match="in flight on A->B"):
            ErPi(cluster).start()

    def test_states_and_converged(self):
        cluster = make_cluster()
        assert cluster.converged()
        cluster.rdl("A").set_add("s", "x")
        assert not cluster.converged()
        assert cluster.states()["A"] == {"s": frozenset({"x"})}
