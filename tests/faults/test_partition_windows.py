"""Partition windows through the product path.

No seeded scenario's fault plan opens a partition, so this file brings its
own: a two-replica op store whose defect only a cut link can expose.  Its
hunts go through ``hunt(..., faults=True)`` like the crash-recovery ones,
so the partition and heal events are compiled, permuted and replayed, the
cluster suppresses the sends across the cut, and settledness is decided by
the cut-link branch of the delivery-knowledge model.
"""

from typing import List

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bugs.registry import BugScenario
from repro.core.assertions import assert_convergence_when_settled, is_settled
from repro.core.events import EventKind
from repro.core.replay import Assertion
from repro.faults.plan import FaultPlan, PartitionWindow
from repro.net.cluster import Cluster, SuppressedSend
from repro.rdl.base import RDLReplica


class DeltaStore(RDLReplica):
    """A grow-only op store that ships each peer the ops it has not sent it.

    ``ack_on_send`` marks ops as delivered when the payload is built, not
    when it arrives, so a payload lost to a partition is never sent again.
    The fixed build ships every op it holds.
    """

    KNOWN_DEFECTS = frozenset({"ack_on_send"})

    def __init__(self, replica_id, defects=None):
        super().__init__(replica_id, defects)
        self._ops = {}
        self._sent = {}  # peer -> op ids already shipped to it

    def add(self, op_id, value):
        self._ops[op_id] = value

    def sync_payload(self, target_replica_id):
        if not self.has_defect("ack_on_send"):
            return dict(self._ops)
        sent = self._sent.setdefault(target_replica_id, set())
        delta = {op: value for op, value in self._ops.items() if op not in sent}
        sent.update(delta)
        return delta

    def apply_sync(self, payload, from_replica_id):
        self._ops.update(payload)

    def value(self):
        return sorted(self._ops.items())


class PartitionedDeltaStore(BugScenario):
    name = "DeltaStore-P"
    issue = 0
    subject = "DeltaStore"
    expected_events = 8
    status = "seeded"
    reason = "partition"

    def build_cluster(self, fixed: bool = False) -> Cluster:
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, DeltaStore(rid, set() if fixed else {"ack_on_send"}))
        return cluster

    def workload(self, cluster: Cluster) -> None:
        cluster.rdl("A").add("a1", 1)  # e1
        cluster.sync("A", "B")  # e2, e3
        cluster.rdl("B").add("b1", 2)  # e4
        cluster.sync("B", "A")  # e5, e6
        cluster.sync("A", "B")  # e7, e8

    def fault_plan(self) -> FaultPlan:
        # Cut A-B after e1 and heal before the last sync, so the window can
        # span either of the first two syncs; canonically it spans nothing.
        window = PartitionWindow("A", "B", start_after="e1", stop_before="e7")
        return FaultPlan(partitions=(window,))

    def make_assertions(self) -> List[Assertion]:
        return [assert_convergence_when_settled(["A", "B"])]

    def fixed_defects(self) -> frozenset:
        return frozenset({"ack_on_send"})


def sends_across_the_cut(interleaving):
    """The sync requests issued while their link is cut, which the knowledge
    model counts as carrying nothing."""
    cut, lost = set(), []
    for event in interleaving:
        link = frozenset((event.from_replica, event.to_replica))
        if event.kind is EventKind.PARTITION:
            cut.add(link)
        elif event.kind is EventKind.HEAL:
            cut.discard(link)
        elif event.kind is EventKind.SYNC_REQ and link in cut:
            lost.append(SuppressedSend(event.from_replica, event.to_replica))
    return lost


def test_the_fixed_build_sweeps_clean():
    result = hunt(
        record_scenario(PartitionedDeltaStore(), fixed=True), "erpi",
        cap=10_000, faults=True, stop_on_violation=False,
    )
    assert not result.found, result.violating and result.violating.violations
    assert not result.quarantined
    assert result.fault_events == 2
    # Every valid schedule of the 7 units: e1, f1, f2 and the last sync keep
    # their order, so 7!/4! = 210.
    assert result.explored == 210


def test_the_defect_needs_the_cut():
    recorded = record_scenario(PartitionedDeltaStore())
    assert not hunt(recorded, "erpi", cap=10_000).found
    result = hunt(
        record_scenario(PartitionedDeltaStore()), "erpi",
        cap=10_000, faults=True, stop_on_violation=False,
    )
    assert result.found
    witness = result.violating.interleaving
    assert sends_across_the_cut(witness) == [SuppressedSend("A", "B")]


def test_suppressed_sends_match_the_knowledge_model():
    recorded = record_scenario(PartitionedDeltaStore(), fixed=True)
    explorer = make_explorer(recorded, "erpi", faults=True)
    cluster = recorded.engine.cluster
    seen = {"replays": 0, "cut": 0, "cut_and_settled": 0}

    def check(interleaving, outcome):
        lost = sends_across_the_cut(interleaving)
        assert cluster.suppressed_sends == lost
        assert cluster.sent_syncs == 3 - len(lost)
        seen["replays"] += 1
        if lost:
            seen["cut"] += 1
            seen["cut_and_settled"] += is_settled(outcome, ["A", "B"])
        return False

    result = explorer.explore(
        recorded.engine, recorded.scenario.make_assertions(), cap=10_000,
        stop_on_violation=False, on_commit=check,
    )
    assert not result.found
    assert seen["replays"] == result.explored == 210
    # Some schedules lose a send and still settle (the last sync re-delivers
    # it), and some lose one for good.
    assert 0 < seen["cut_and_settled"] < seen["cut"] < seen["replays"]
