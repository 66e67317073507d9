"""Suppressed-send reporting: partition drops are visible, not silent."""

from repro.net.cluster import Cluster, SuppressedSend
from repro.rdl.crdts_lib import CRDTLibrary


def build(n=3):
    cluster = Cluster()
    for rid in ("A", "B", "C")[:n]:
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def test_partition_suppression_recorded():
    cluster = build(2)
    cluster.partition("A", "B")
    cluster.rdl("A").set_add("k", 1)
    assert not cluster.sync("A", "B")
    assert cluster.suppressed_sends == [SuppressedSend("A", "B")]


def test_sync_all_returns_summary():
    cluster = build(3)
    cluster.partition("A", "B")
    cluster.rdl("A").set_add("k", 1)
    summary = cluster.sync_all()
    # 3 replicas, full mesh = 6 directed sends; the A<->B pair is cut.
    assert summary.attempted == 6
    assert summary.delivered == 4
    assert {(s.sender, s.receiver) for s in summary.suppressed} == {
        ("A", "B"),
        ("B", "A"),
    }


def test_sync_all_skips_down_replicas():
    cluster = build(3)
    cluster.crash("C")
    summary = cluster.sync_all()
    # Only the A<->B pair is attempted while C is down.
    assert summary.attempted == 2
    assert summary.delivered == 2
    assert summary.suppressed == ()


def test_summary_scoped_to_the_pass():
    cluster = build(2)
    cluster.partition("A", "B")
    cluster.sync_all()
    cluster.heal()
    summary = cluster.sync_all()
    # The second pass reports only its own suppressions (none).
    assert summary.suppressed == ()
    assert len(cluster.suppressed_sends) == 2  # the first pass, both ways
