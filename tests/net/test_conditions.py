"""Partition validation on the cluster."""

import pytest

from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B", "C"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestPartitionValidation:
    def test_partition_rejects_self_pair(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.partition("A", "A")
        assert not cluster.partitions

    def test_heal_rejects_self_pair(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        with pytest.raises(ValueError):
            cluster.heal("A", "A")

    def test_heal_rejects_single_argument(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.heal("A")

    def test_heal_pair_and_heal_all(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.partition("B", "C")
        cluster.heal("B", "A")
        assert cluster.partitions == {frozenset({"B", "C"})}
        cluster.heal()
        assert not cluster.partitions
