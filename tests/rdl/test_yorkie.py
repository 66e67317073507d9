"""Tests for the Yorkie subject (replicated JSON documents)."""

import pytest

from repro.net.cluster import Cluster
from repro.rdl.base import RDLError
from repro.rdl.yorkie import YorkieDocument


def pair(defects=frozenset()):
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, YorkieDocument(rid, defects=set(defects)))
    return cluster, cluster.rdl("A"), cluster.rdl("B")


class TestDocumentEditing:
    def test_set_get(self):
        _, a, _ = pair()
        a.set(["title"], "doc")
        assert a.get(["title"]) == "doc"

    def test_nested_set(self):
        _, a, _ = pair()
        a.set(["user", "name"], "alice")
        assert a.value() == {"user": {"name": "alice"}}

    def test_delete(self):
        _, a, _ = pair()
        a.set(["x"], 1)
        a.delete(["x"])
        assert a.value() == {}

    def test_update_requires_existing_parent(self):
        _, a, _ = pair()
        with pytest.raises((RDLError, KeyError)):
            a.update(["cfg", "y"], 2)
        a.set(["cfg"], {"base": 1})
        a.update(["cfg", "y"], 2)
        assert a.get(["cfg"]) == {"base": 1, "y": 2}

    def test_array_operations(self):
        _, a, _ = pair()
        a.set(["items"], ["x"])
        a.array_append(["items"], "z")
        a.array_insert(["items"], 1, "y")
        assert a.array_value(["items"]) == ["x", "y", "z"]
        a.array_delete(["items"], 0)
        assert a.array_value(["items"]) == ["y", "z"]

    def test_array_value_on_non_array(self):
        _, a, _ = pair()
        a.set(["x"], 1)
        with pytest.raises(RDLError):
            a.array_value(["x"])

    def test_move_after(self):
        _, a, _ = pair()
        a.set(["items"], ["a", "b", "c"])
        a.move_after(["items"], 0, 2)
        assert a.array_value(["items"]) == ["b", "c", "a"]

    def test_move_after_to_front(self):
        _, a, _ = pair()
        a.set(["items"], ["a", "b", "c"])
        a.move_after(["items"], 2, None)
        assert a.array_value(["items"]) == ["c", "a", "b"]


class TestReplication:
    def test_sync_converges(self):
        cluster, a, b = pair()
        a.set(["x"], 1)
        b.set(["y"], 2)
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        cluster.sync("A", "B")
        assert a.value() == b.value() == {"x": 1, "y": 2}

    def test_doc_key_mismatch_rejected(self):
        a = YorkieDocument("A", doc_key="doc1")
        b = YorkieDocument("B", doc_key="doc2")
        with pytest.raises(RDLError):
            b.apply_sync(a.sync_payload("B"), "A")

    def test_concurrent_moves_converge_when_fixed(self):
        cluster, a, b = pair()
        a.set(["items"], ["a", "b", "c"])
        cluster.sync("A", "B")
        a.move_after(["items"], 0, 2)
        b.move_after(["items"], 0, 1)
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        cluster.sync("A", "B")
        assert a.array_value(["items"]) == b.array_value(["items"])

    def test_checkpoint_restore(self):
        _, a, _ = pair()
        a.set(["x"], 1)
        snapshot = a.checkpoint()
        a.set(["x"], 2)
        a.restore(snapshot)
        assert a.get(["x"]) == 1

    def test_deep_nested_merge(self):
        cluster, a, b = pair()
        a.set(["cfg"], {"base": 1})
        cluster.sync("A", "B")
        a.set(["cfg", "y"], 2)
        b.set(["cfg", "z"], 3)
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        cluster.sync("A", "B")
        assert a.get(["cfg"]) == b.get(["cfg"]) == {"base": 1, "y": 2, "z": 3}

    def test_writes_inside_a_shared_array_element_merge(self):
        """Regression: an array merge united the two replicas' elements but
        never their contents, so each replica kept only its own write
        inside the element both held."""
        cluster, a, b = pair()
        a.set(["tasks"], [{"title": "t"}])
        cluster.sync("A", "B")
        a.set(["tasks", 0, "done"], True)
        b.set(["tasks", 0, "owner"], "bob")
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        expected = {"done": True, "owner": "bob", "title": "t"}
        assert a.get(["tasks", 0]) == b.get(["tasks", 0]) == expected


class TestDefects:
    def test_nonconvergent_move_diverges(self):
        cluster, a, b = pair({"nonconvergent_move"})
        a.set(["items"], ["a", "b", "c"])
        cluster.sync("A", "B")
        a.move_after(["items"], 0, 2)
        b.move_after(["items"], 0, 1)
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        assert a.array_value(["items"]) != b.array_value(["items"])

    def test_shallow_set_clobbers_concurrent_sibling(self):
        cluster, a, b = pair({"shallow_set"})
        a.set(["cfg"], {"base": 1})
        cluster.sync("A", "B")
        a.set(["cfg", "y"], 2)
        b.set(["cfg", "z"], 3)
        cluster.sync("A", "B")
        cluster.sync("B", "A")
        cluster.sync("A", "B")
        cfg = a.get(["cfg"])
        assert cfg == b.get(["cfg"])
        assert not ("y" in cfg and "z" in cfg)

    def test_last_sync_wins_drops_local_state(self):
        cluster, a, b = pair({"last_sync_wins"})
        a.set(["local"], "precious")
        b.set(["remote"], "incoming")
        cluster.sync("B", "A")
        assert a.value() == {"remote": "incoming"}  # local state clobbered
