"""Table-1 bug scenarios for Subject 3 (ReplicaDB)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bugs.registry import BugScenario, register
from repro.core.assertions import assert_no_failed_op_matching, assert_predicate
from repro.core.events import EventKind
from repro.core.replay import Assertion, InterleavingOutcome
from repro.net.cluster import Cluster
from repro.rdl.replicadb import ReplicaDBJob

_SYNC_KINDS = frozenset({EventKind.SYNC_REQ, EventKind.EXEC_SYNC})


@register
class ReplicaDB1(BugScenario):
    """Issue #79 — out-of-memory error: the JDBC fetch size silently falls
    back to "stream everything", so a transfer that runs after the upstream
    source has grown past the job's memory budget crashes.
    """

    name = "ReplicaDB-1"
    issue = 79
    subject = "ReplicaDB"
    expected_events = 10
    status = "closed"
    reason = "misuse"
    description = "unbounded fetch loads the whole result set into memory"

    BUDGET_ROWS = 4

    def build_cluster(self, fixed: bool = False) -> Cluster:
        cluster = Cluster()
        cluster.add_replica(
            "A",
            ReplicaDBJob(
                "A",
                defects=set() if fixed else {"unbounded_fetch"},
                fetch_size=2,
                memory_budget_rows=self.BUDGET_ROWS,
            ),
        )
        cluster.add_replica(
            "B",
            ReplicaDBJob(
                "B", fetch_size=2, memory_budget_rows=self.BUDGET_ROWS
            ),
        )
        return cluster

    def fixed_defects(self) -> frozenset:
        return frozenset({"unbounded_fetch"})

    def workload(self, cluster: Cluster) -> None:
        a = cluster.rdl("A")
        b = cluster.rdl("B")
        a.source_insert(1, {"v": "a"})     # e1
        a.source_insert(2, {"v": "b"})     # e2
        a.source_insert(3, {"v": "c"})     # e3
        a.replicate("complete")            # e4   3 rows: within budget
        a.replicate("incremental")         # e5   still 3 rows
        b.source_insert(4, {"v": "d"})     # e6
        b.source_insert(5, {"v": "e"})     # e7
        cluster.sync("B", "A")             # e8, e9   source grows to 5 rows
        a.sink_matches_source()            # e10 READ

    def failed_ops_constraints(self):
        # Once the grown source has synced in (e9), every unbounded transfer
        # blows the memory budget; the doomed transfers' relative order is
        # immaterial (Algorithm 4).
        return [(("e9",), ("e4", "e5"))]

    def make_assertions(self) -> List[Assertion]:
        return [assert_no_failed_op_matching("OutOfMemoryError")]


@register
class ReplicaDB2(BugScenario):
    """Issue #23 — deleted records aren't deleted from the sink: incremental
    mode only upserts, so a transfer that ran before the delete synced in
    leaves the ghost row in the sink forever.

    This is the paper's one case where Rand beats DFS: the trigger is a
    single transposition whose lexicographically-first occurrence sits just
    past DFS's first backtracking block, while a random shuffle hits the
    (common) violating pattern almost immediately.
    """

    name = "ReplicaDB-2"
    issue = 23
    subject = "ReplicaDB"
    expected_events = 14
    status = "closed"
    reason = "misconception"
    description = "incremental replication never deletes sink rows"

    def build_cluster(self, fixed: bool = False) -> Cluster:
        cluster = Cluster()
        defects = set() if fixed else {"no_sink_deletes"}
        for rid in ("A", "B"):
            cluster.add_replica(
                rid, ReplicaDBJob(rid, defects=set(defects), fetch_size=4)
            )
        return cluster

    def fixed_defects(self) -> frozenset:
        return frozenset({"no_sink_deletes"})

    def workload(self, cluster: Cluster) -> None:
        a = cluster.rdl("A")
        b = cluster.rdl("B")
        a.source_insert(1, {"v": "a"})     # e1
        a.source_insert(2, {"v": "b"})     # e2
        cluster.sync("A", "B")             # e3, e4
        b.source_delete(1)                 # e5
        cluster.sync("B", "A")             # e6, e7
        a.replicate("incremental")         # e8   recorded: after the delete arrived
        a.source_insert(3, {"v": "c"})     # e9
        a.replicate("incremental")         # e10
        cluster.sync("A", "B")             # e11, e12
        b.replicate("incremental")         # e13
        a.sink_matches_source()            # e14 READ

    def make_assertions(self) -> List[Assertion]:
        def sink_consistent(outcome: InterleavingOutcome) -> bool:
            # One pass: where the consistency probe (e14) ran and what it
            # read, and A's last transfer and last source change.
            verdict: Optional[bool] = None
            probe = last_transfer = last_source_change = -1
            for index, res in enumerate(outcome.event_results):
                event = res.event
                if event.event_id == "e14":  # the READ probe
                    probe, verdict = index, res.result
                if event.replica_id == "A":
                    name = event.op_name
                    if name == "replicate":
                        last_transfer = index
                    if event.kind in _SYNC_KINDS or name.startswith("source_"):
                        last_source_change = index
            if verdict is None:
                return True  # the consistency probe did not run: vacuous
            # The probe may legitimately report False when it ran before the
            # last transfer; only a False *after* every replicate counts.
            if probe < last_transfer or last_transfer < last_source_change:
                return True  # stale probe or un-replicated source change
            return bool(verdict)

        return [
            assert_predicate(
                sink_consistent,
                "sink retains rows deleted at the source after an incremental "
                "transfer (ReplicaDB issue #23)",
            )
        ]
