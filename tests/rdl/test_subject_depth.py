"""Deeper subject behaviours: fault tolerance, edge cases, three-replica
topologies — coverage beyond the bug-scenario happy paths."""

import pytest

from repro.net.cluster import Cluster
from repro.rdl.base import RDLError
from repro.rdl.crdts_lib import CRDTLibrary
from repro.rdl.orbitdb import OrbitDBStore
from repro.rdl.replicadb import ReplicaDBJob
from repro.rdl.roshi import RoshiReplica
from repro.rdl.yorkie import YorkieDocument


class TestRoshiFarmFaults:
    def test_write_survives_instance_failure(self):
        roshi = RoshiReplica("A", farm_size=3)
        roshi.farm.partition([2])
        roshi.insert("k", "x", 1.0)
        assert roshi.select("k") == ["x"]

    def test_read_repair_heals_lagging_instance(self):
        roshi = RoshiReplica("A", farm_size=2)
        roshi.insert("k", "x", 1.0)
        # Instance 1 loses the write (simulated lag).
        roshi.farm[1].zrem("k+", "x")
        assert roshi.farm[1].zscore("k+", "x") is None
        roshi.select("k")  # select triggers read repair
        assert roshi.farm[1].zscore("k+", "x") == 1.0

    def test_healed_instance_catches_up_via_repair(self):
        roshi = RoshiReplica("A", farm_size=2)
        roshi.farm.partition([1])
        roshi.insert("k", "x", 1.0)
        roshi.farm.heal()
        assert roshi.farm[1].zscore("k+", "x") is None
        roshi.select("k")
        assert roshi.farm[1].zscore("k+", "x") == 1.0

    def test_three_replica_convergence(self):
        cluster = Cluster()
        for rid in ("A", "B", "C"):
            cluster.add_replica(rid, RoshiReplica(rid))
        cluster.rdl("A").insert("k", "a", 1.0)
        cluster.rdl("B").insert("k", "b", 2.0)
        cluster.rdl("C").delete("k", "a", 3.0)
        cluster.sync_all(rounds=2)
        assert cluster.converged()
        assert cluster.rdl("A").select("k") == ["b"]

    def test_select_offset_beyond_members(self):
        roshi = RoshiReplica("A")
        roshi.insert("k", "x", 1.0)
        assert roshi.select("k", offset=5) == []

    def test_value_covers_all_keys(self):
        roshi = RoshiReplica("A")
        roshi.insert("k1", "x", 1.0)
        roshi.insert("k2", "y", 2.0)
        assert roshi.value() == {"k1": ("x",), "k2": ("y",)}


class TestOrbitDBAccessControl:
    def make_pair(self):
        cluster = Cluster()
        a = OrbitDBStore("A")
        b = OrbitDBStore("B")
        cluster.add_replica("A", a)
        cluster.add_replica("B", b)
        a.grant_access("B")
        b.grant_access("A")
        return cluster, a, b

    def test_revoked_writer_rejected_locally(self):
        _, a, _ = self.make_pair()
        a.grant_access("guest")
        a.append("ok", identity="guest")
        a.revoke_access("guest")
        with pytest.raises(RDLError):
            a.append("nope", identity="guest")

    def test_can_write_reflects_acl(self):
        _, a, _ = self.make_pair()
        assert a.can_write() is True
        assert a.can_write("mallory") is False
        a.grant_access("mallory")
        assert a.can_write("mallory") is True

    def test_closed_store_rejects_grant(self):
        _, a, _ = self.make_pair()
        a.close_store()
        with pytest.raises(RDLError):
            a.grant_access("x")

    def test_three_store_relay(self):
        cluster = Cluster()
        stores = {}
        for rid in ("A", "B", "C"):
            stores[rid] = OrbitDBStore(rid)
            cluster.add_replica(rid, stores[rid])
        for rid in ("A", "B", "C"):
            for other in ("A", "B", "C"):
                stores[rid].grant_access(other)
        stores["A"].append("origin")
        cluster.sync("A", "B")
        cluster.sync("B", "C")  # C learns A's entry via B
        assert stores["C"].value() == ["origin"]

    def test_log_order_stable_under_resync(self):
        cluster, a, b = self.make_pair()
        a.append("1")
        b.append("2")
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        order = a.log_order()
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        assert a.log_order() == order == b.log_order()


class TestReplicaDBModes:
    def test_complete_atomic_equivalent_to_complete(self):
        job = ReplicaDBJob("A")
        job.source_insert(1, {"v": "a"})
        job.replicate("complete-atomic")
        assert job.sink_matches_source()

    def test_incremental_preserves_unrelated_sink_rows(self):
        # A sink row originating outside the source survives upserts (and is
        # NOT deleted by the delete pass, which only honours tombstones).
        job = ReplicaDBJob("A")
        job._sink["external"] = {"v": "kept"}
        job.source_insert(1, {"v": "a"})
        job.replicate("incremental")
        assert job.sink_rows()["external"] == {"v": "kept"}

    def test_complete_drops_unrelated_sink_rows(self):
        job = ReplicaDBJob("A")
        job._sink["external"] = {"v": "gone"}
        job.source_insert(1, {"v": "a"})
        job.replicate("complete")
        assert "external" not in job.sink_rows()

    def test_version_counter_monotone_across_sync(self):
        cluster = Cluster()
        a, b = ReplicaDBJob("A"), ReplicaDBJob("B")
        cluster.add_replica("A", a)
        cluster.add_replica("B", b)
        a.source_insert(1, {"v": "x"})
        cluster.sync("A", "B")
        b.source_update(1, {"v": "y"})       # must out-version A's row
        cluster.sync("B", "A")
        assert a.source_rows()[1]["v"] == "y"

    def test_delete_then_reinsert_round_trip(self):
        cluster = Cluster()
        a, b = ReplicaDBJob("A"), ReplicaDBJob("B")
        cluster.add_replica("A", a)
        cluster.add_replica("B", b)
        a.source_insert(1, {"v": "first"})
        cluster.sync("A", "B")
        a.source_delete(1)
        cluster.sync("A", "B")
        a.source_insert(1, {"v": "second"})
        cluster.sync("A", "B")
        assert b.source_rows() == {1: {"v": "second"}}


class TestYorkieDepth:
    def test_nested_array_of_objects(self):
        doc = YorkieDocument("A")
        doc.set(["tasks"], [{"title": "one"}, {"title": "two"}])
        assert doc.get(["tasks", 1, "title"]) == "two"

    def test_delete_nested_key(self):
        doc = YorkieDocument("A")
        doc.set(["cfg"], {"a": 1, "b": 2})
        doc.delete(["cfg", "a"])
        assert doc.get(["cfg"]) == {"b": 2}

    def test_three_replica_move_convergence(self):
        cluster = Cluster()
        docs = {}
        for rid in ("A", "B", "C"):
            docs[rid] = YorkieDocument(rid)
            cluster.add_replica(rid, docs[rid])
        docs["A"].set(["items"], ["a", "b", "c", "d"])
        cluster.sync_all()
        docs["A"].move_after(["items"], 0, 3)
        docs["B"].move_after(["items"], 1, 2)
        docs["C"].move_after(["items"], 3, 0)
        cluster.sync_all(rounds=3)
        values = {rid: tuple(docs[rid].array_value(["items"])) for rid in docs}
        assert len(set(values.values())) == 1, values

    def test_checkpoint_covers_move_log(self):
        doc = YorkieDocument("A")
        doc.set(["items"], ["a", "b"])
        snapshot = doc.checkpoint()
        doc.move_after(["items"], 0, 1)
        doc.restore(snapshot)
        assert doc.array_value(["items"]) == ["a", "b"]
        assert doc._move_log == []


class TestCRDTLibraryDepth:
    def test_value_projection_spans_structures(self):
        library = CRDTLibrary("A")
        library.set_add("s", "x")
        library.counter_increment("c", 2)
        library.map_put("m", "k", 1)
        library.flag_enable("f")
        library.text_insert("t", 0, "hi")
        snapshot = library.value()
        assert snapshot["s"] == frozenset({"x"})
        assert snapshot["c"] == 2
        assert snapshot["m"] == {"k": 1}
        assert snapshot["f"] is True
        assert snapshot["t"] == "hi"

    def test_partitioned_then_healed_convergence(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        cluster.partition("A", "B")
        cluster.rdl("A").set_add("s", "during-partition-a")
        cluster.rdl("B").set_add("s", "during-partition-b")
        assert cluster.sync("A", "B") is False
        cluster.heal()
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        assert cluster.converged()
        assert cluster.rdl("A").set_value("s") == frozenset(
            {"during-partition-a", "during-partition-b"}
        )

    def test_text_delete_range(self):
        library = CRDTLibrary("A")
        library.text_insert("t", 0, "abcdef")
        library.text_delete("t", 1, 3)
        assert library.text_value("t") == "aef"

    def test_flag_roundtrip_replication(self):
        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        cluster.rdl("A").flag_enable("f")
        cluster.sync("A", "B")
        assert cluster.rdl("B").flag_value("f") is True
        cluster.rdl("B").flag_disable("f")
        cluster.sync("B", "A")
        assert cluster.rdl("A").flag_value("f") is False
