"""Crash/recover lifecycle and per-subject durable-vs-volatile contracts."""

import pytest

from repro.faults.errors import FaultError, ReplicaDownError
from repro.net.cluster import Cluster
from repro.rdl.base import RDLError
from repro.rdl.crdts_lib import CRDTLibrary
from repro.rdl.orbitdb import OrbitDBStore
from repro.rdl.replicadb import ReplicaDBJob
from repro.rdl.roshi import RoshiReplica
from repro.rdl.yorkie import YorkieDocument


def crdt_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


class TestHostLifecycle:
    def test_crashed_replica_rejects_syncs(self):
        cluster = crdt_cluster()
        cluster.rdl("A").set_add("k", 1)
        cluster.crash("A")
        with pytest.raises(ReplicaDownError):
            cluster.send_sync("A", "B")
        cluster.recover("A")
        assert cluster.sync("A", "B")

    def test_double_crash_rejected(self):
        cluster = crdt_cluster()
        cluster.crash("A")
        with pytest.raises(FaultError, match="already down"):
            cluster.crash("A")

    def test_recover_of_live_replica_rejected(self):
        cluster = crdt_cluster()
        with pytest.raises(FaultError, match="not down"):
            cluster.recover("A")

    def test_payload_reaching_dead_node_is_lost_not_requeued(self):
        # The message must be consumed before the liveness check: otherwise
        # a later execute on the same channel would pop the *older* payload
        # and silently re-pair sync requests with the wrong executes.
        cluster = crdt_cluster()
        cluster.rdl("A").set_add("k", 1)
        cluster.send_sync("A", "B")
        cluster.crash("B")
        with pytest.raises(ReplicaDownError):
            cluster.execute_sync("A", "B")
        cluster.recover("B")
        # The channel is empty now: the payload died with the node.
        assert not cluster.execute_sync("A", "B")
        assert cluster.rdl("B").value() == {}

    def test_checkpoint_restore_resets_fault_state(self):
        cluster = crdt_cluster()
        snapshot = cluster.checkpoint()
        cluster.crash("A")
        cluster.partition("A", "B")
        cluster.restore(snapshot)
        assert all(cluster.host(rid).up for rid in cluster.replica_ids())
        assert not cluster.partitions
        cluster.rdl("A").set_add("k", 1)  # must not raise
        assert cluster.sync("A", "B")

    def test_checkpoint_restore_reinstates_baseline_partitions(self):
        cluster = crdt_cluster()
        cluster.partition("A", "B")
        snapshot = cluster.checkpoint()
        cluster.heal()
        cluster.restore(snapshot)
        assert cluster.partitions == {frozenset({"A", "B"})}


class TestYorkieDurability:
    def test_unpushed_changes_lost_on_crash(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, YorkieDocument(rid))
        a = cluster.rdl("A")
        a.set(["k"], 2)
        cluster.sync("A", "B")  # push advances the durable watermark
        a.set(["k"], 3)         # un-pushed on top of the push
        cluster.crash("A")
        cluster.recover("A")
        assert a.value() == {"k": 2}

    def test_never_pushed_document_rolls_back_to_empty(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, YorkieDocument(rid))
        cluster.rdl("A").set(["k"], 1)
        cluster.crash("A")
        cluster.recover("A")
        assert cluster.rdl("A").value() == {}

    @staticmethod
    def _move_restart_resync(defects):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, YorkieDocument(rid, defects=set(defects)))
        a, b = cluster.rdl("A"), cluster.rdl("B")
        a.set(["items"], ["x", "y"])
        cluster.sync("A", "B")
        b.move_after(["items"], 1, None)
        cluster.sync("B", "A")
        assert a.value() == {"items": ["y", "x"]}
        cluster.crash("A")
        cluster.recover("A")
        # Document rolled back to the push watermark in both builds.
        assert a.value() == {"items": ["x", "y"]}
        cluster.sync("B", "A")  # the peer re-delivers the move
        return a.value(), b.value()

    def test_durable_seen_cache_defect_dedupes_rolled_back_move(self):
        a_state, b_state = self._move_restart_resync(
            {"nonconvergent_move", "durable_seen_cache"}
        )
        assert a_state == {"items": ["x", "y"]}  # re-delivery wrongly skipped
        assert b_state == {"items": ["y", "x"]}

    def test_fixed_library_reconverges_after_redelivery(self):
        a_state, b_state = self._move_restart_resync(set())
        assert a_state == b_state == {"items": ["y", "x"]}


class TestOrbitDBDurability:
    @staticmethod
    def _pair(defects):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, OrbitDBStore(rid, defects=set(defects)))
        for rid in ("A", "B"):
            for other in ("A", "B"):
                cluster.rdl(rid).grant_access(other)
        return cluster

    def test_lock_leak_defect_blocks_recovery_while_open(self):
        cluster = self._pair({"crash_lock_leak"})
        cluster.rdl("A").append("a1")
        cluster.crash("A")  # store was open: the lock file survives
        with pytest.raises(RDLError, match="repo folder"):
            cluster.recover("A")
        assert not cluster.host("A").up

    def test_lock_released_when_crashed_while_closed(self):
        cluster = self._pair({"crash_lock_leak"})
        a = cluster.rdl("A")
        a.append("a1")
        a.close_store()
        cluster.crash("A")
        cluster.recover("A")
        a.open_store()
        assert a.log_order() == ["a1"] or len(a.log_order()) == 1

    def test_fixed_recovery_reloads_persisted_log(self):
        cluster = self._pair(set())
        a = cluster.rdl("A")
        a.append("a1")
        cluster.crash("A")
        cluster.recover("A")
        assert len(a.log_order()) == 1


class TestReplicaDBDurability:
    @staticmethod
    def _resurrection(defects):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, ReplicaDBJob(rid, defects=set(defects)))
        a = cluster.rdl("A")
        a.source_insert("r1", {"v": 1})
        cluster.sync("A", "B")      # the peer holds the row
        a.source_delete("r1")       # tombstone at A
        cluster.crash("A")
        cluster.recover("A")
        cluster.sync("B", "A")      # stale peer syncs the row back
        return a.value()["source"]

    def test_volatile_tombstones_defect_resurrects_deleted_row(self):
        assert "r1" in self._resurrection({"volatile_tombstones"})

    def test_fixed_tombstones_survive_the_crash(self):
        assert self._resurrection(set()) == {}


class TestRoshiDurability:
    def test_farm_survives_crash(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, RoshiReplica(rid))
        cluster.rdl("A").insert("feed", "m1", 5.0)
        cluster.crash("A")
        cluster.recover("A")
        assert cluster.rdl("A").value() == {"feed": ("m1",)}

    @staticmethod
    def _tie_after_restart(defects):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, RoshiReplica(rid, defects=set(defects)))
        for rid in ("A", "B"):
            cluster.rdl(rid).insert("feed", "m1", 5.0)
        cluster.rdl("B").delete("feed", "m1", 5.0)  # ties with the add
        cluster.sync("B", "A")
        cluster.crash("A")
        cluster.recover("A")
        cluster.sync("B", "A")
        return cluster.rdl("A").value(), cluster.rdl("B").value()

    def test_arrival_amnesia_flips_the_tie_break(self):
        # Defective build: arrival order decides the tie, so the delete won
        # everywhere pre-crash — and the restart forgets that it did.
        a_state, b_state = self._tie_after_restart({"no_tie_break"})
        assert a_state == {"feed": ("m1",)}
        assert b_state == {"feed": ()}

    def test_fixed_tie_break_is_crash_lossless(self):
        a_state, b_state = self._tie_after_restart(set())
        assert a_state == b_state
