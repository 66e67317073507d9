"""Regression: Cluster.restore() must zero the per-replay counters.

A restore that kept the previous replay's sends would make every replay's
``messages.sent`` and the profiler's message counts cumulative.
"""

from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def test_reset_zeroes_counters():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    snapshot = cluster.checkpoint()
    cluster.sync("A", "B")
    cluster.partition("A", "B")
    cluster.sync("B", "A")
    assert (cluster.sent_syncs, len(cluster.suppressed_sends)) == (1, 1)
    cluster.restore(snapshot)
    assert (cluster.sent_syncs, len(cluster.suppressed_sends)) == (0, 0)
    assert not cluster.partitions
