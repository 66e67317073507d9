"""Duplicate delivery: every subject's ``apply_sync`` is idempotent.

A duplicated delivery hands the receiver the same payload object twice,
so each test applies one ``sync_payload`` twice through ``apply_sync``.
"""

from repro.rdl.crdts_lib import CRDTLibrary
from repro.rdl.orbitdb import OrbitDBStore
from repro.rdl.replicadb import ReplicaDBJob


def deliver_twice(sender, receiver):
    payload = sender.sync_payload(receiver.replica_id)
    receiver.apply_sync(payload, sender.replica_id)
    receiver.apply_sync(payload, sender.replica_id)


class TestIdempotence:
    def test_crdt_library_tolerates_duplicates(self):
        a, b = CRDTLibrary("A"), CRDTLibrary("B")
        a.set_add("s", "x")
        a.counter_increment("c", 5)
        deliver_twice(a, b)
        assert b.set_value("s") == frozenset({"x"})
        assert b.structure("c").value() == 5

    def test_orbitdb_tolerates_duplicates(self):
        a, b = OrbitDBStore("A"), OrbitDBStore("B")
        a.grant_access("B")
        b.grant_access("A")
        a.append("entry-1")
        deliver_twice(a, b)
        assert b.value() == ["entry-1"]

    def test_replicadb_tolerates_duplicates(self):
        a, b = ReplicaDBJob("A"), ReplicaDBJob("B")
        a.source_insert(1, {"v": "x"})
        deliver_twice(a, b)
        assert b.source_rows() == {1: {"v": "x"}}
