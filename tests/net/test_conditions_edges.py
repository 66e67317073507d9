"""Partition edge cases on the cluster: heal validation (healing a pair
named in reverse and healing everything are in ``test_conditions.py``; a
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
    def test_heal_with_one_argument_rejected(self):
        cluster = make_cluster()
        cluster.partition("A", "B")
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal("A")
        with pytest.raises(ValueError, match="zero or two"):
            cluster.heal(None, "B")
        assert cluster.partitions == {frozenset({"A", "B"})}
