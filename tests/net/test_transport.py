"""The cluster's channels: FIFO delivery, counters and partitions."""

import pytest

from repro.faults.errors import ReplicaDownError
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B", "C"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestBasicDelivery:
    def test_send_and_deliver_fifo(self):
        cluster = make_cluster()
        a, b = cluster.rdl("A"), cluster.rdl("B")
        a.text_insert("t", 0, "first")
        cluster.send_sync("A", "B")
        a.text_insert("t", 5, " second")
        cluster.send_sync("A", "B")
        cluster.execute_sync("A", "B")
        assert b.text_value("t") == "first"
        cluster.execute_sync("A", "B")
        assert b.text_value("t") == "first second"

    def test_channels_are_directed(self):
        cluster = make_cluster()
        cluster.rdl("A").set_add("s", "x")
        cluster.send_sync("A", "B")
        assert cluster.execute_sync("B", "A") is False
        assert cluster.execute_sync("A", "B") is True

    def test_deliver_on_empty_channel_raises(self):
        # An empty channel returns False to a live receiver and raises for
        # a dead one.
        cluster = make_cluster()
        assert cluster.execute_sync("A", "B") is False
        cluster.crash("B")
        with pytest.raises(ReplicaDownError):
            cluster.execute_sync("A", "B")

    def test_counters(self):
        cluster = make_cluster()
        cluster.send_sync("A", "B")
        cluster.execute_sync("A", "B")
        assert cluster.sent_syncs == 1
        assert cluster.suppressed_sends == []

    def test_reset_clears_queues(self):
        cluster = make_cluster()
        snapshot = cluster.checkpoint()
        cluster.send_sync("A", "B")
        cluster.restore(snapshot)
        assert cluster.execute_sync("A", "B") is False


class TestConditions:
    def test_partition_blocks_send(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        assert cluster.send_sync("A", "B") is False
        assert len(cluster.suppressed_sends) == 1
        cluster.heal("A", "B")
        assert cluster.send_sync("A", "B") is True

    def test_partition_is_symmetric(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        assert cluster.send_sync("B", "A") is False

    def test_heal_everything(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.partition("B", "C")
        cluster.heal()
        assert not cluster.partitions

    def test_heal_one_argument_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.heal("A")
