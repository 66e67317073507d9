"""Partition edge cases on the cluster: heal validation and partial heals."""

import pytest

from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B", "C"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestHealValidation:
    def test_heal_everything_with_no_arguments(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.partition("B", "C")
        cluster.heal()
        assert not cluster.partitions

    def test_heal_with_one_argument_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal("A")
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal(None, "B")

    def test_heal_same_replica_twice_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="distinct"):
            cluster.heal("A", "A")

    def test_heal_unpartitioned_pair_is_a_noop(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.heal("A", "C")
        assert cluster.partitions == {frozenset({"A", "B"})}

    def test_self_partition_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="itself"):
            cluster.partition("A", "A")


class TestPartialHeals:
    def test_is_partitioned_after_partial_heal(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.partition("A", "C")
        cluster.heal("A", "B")
        assert cluster.send_sync("A", "B")
        assert cluster.send_sync("B", "A")  # symmetric
        assert not cluster.send_sync("A", "C")
        assert not cluster.send_sync("C", "A")

    def test_partition_is_order_insensitive(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.heal("B", "A")
        assert not cluster.partitions
