"""Parameterised workload generators for the scalability bench.

The Table-1 scenarios are hand-crafted; :func:`divergence_workload` builds
a synthetic Roshi-2-like workload of arbitrary size so benches can sweep the
number of events.
"""

from __future__ import annotations

from typing import Tuple

from repro.net.cluster import Cluster
from repro.rdl.roshi import RoshiReplica


def divergence_workload(cluster: Cluster, pairs: int = 1, noise: int = 0) -> None:
    """A Roshi-2-shaped workload: same-timestamp add/delete conflicts first,
    benign trailing traffic after.

    ``pairs`` conflict sections sit at the *front* of the recording (6 events
    each: insert, sync pair, delete, sync pair); ``noise`` appends benign
    insert+sync sections (6 events each) at the end.  Event count:
    ``6*pairs + 6*noise + 1``.  Because the divergence trigger lives in the
    front, growing ``noise`` pushes it further beyond a tail-first explorer's
    horizon without changing the bug.
    """
    a_id, b_id = cluster.replica_ids()[:2]
    a = cluster.rdl(a_id)
    b = cluster.rdl(b_id)
    for index in range(pairs):
        timestamp = float(index + 1)
        a.insert("k", f"x{index}", timestamp)
        cluster.sync(a_id, b_id)
        b.delete("k", f"x{index}", timestamp)
        cluster.sync(b_id, a_id)
    for index in range(noise):
        timestamp = 100.0 + index
        a.insert("k", f"benign{index}", timestamp)
        cluster.sync(a_id, b_id)
        b.insert("k", f"extra{index}", timestamp + 0.5)
        cluster.sync(b_id, a_id)
    a.select("k")


def roshi_cluster(
    replica_ids: Tuple[str, ...] = ("A", "B"), defects: frozenset = frozenset()
) -> Cluster:
    cluster = Cluster()
    for rid in replica_ids:
        cluster.add_replica(rid, RoshiReplica(rid, defects=set(defects)))
    return cluster
