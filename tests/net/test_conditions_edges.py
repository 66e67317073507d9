"""Partition edge cases on the cluster: heal validation and heal order (a
partial heal and the heal of an uncut pair are in ``test_cluster.py``)."""

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
        cluster.partition("A", "B")
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal("A")
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal(None, "B")
        assert cluster.partitions == {frozenset({"A", "B"})}


class TestPartialHeals:
    def test_partition_is_order_insensitive(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        cluster.heal("B", "A")
        assert not cluster.partitions
