"""Coverage for smaller surfaces: rehome, session enumeration orders,
explorer options, replica hosts."""

import pytest

from repro.core import ErPi, assert_read_equals
from repro.core.explorers import ERPiExplorer, RandomExplorer
from repro.core.events import make_read, make_sync_pair, make_update
from repro.crdt.base import rehome
from repro.crdt.ormap import ORMap
from repro.crdt.orset import ORSet
from repro.net.cluster import Cluster
from repro.net.replica import ReplicaHost
from repro.rdl.crdts_lib import CRDTLibrary


class TestRehome:
    def test_rehomes_nested_structures(self):
        ormap = ORMap("origin")
        ormap.put("k", 1)
        rehome(ormap, "adopter")
        assert ormap.replica_id == "adopter"
        assert ormap._keys.replica_id == "adopter"          # nested ORSet
        assert ormap._values["k"].replica_id == "adopter"   # nested register

    def test_handles_cycles(self):
        orset = ORSet("origin")
        orset.cycle = orset  # self-reference must not loop forever
        rehome(orset, "adopter")
        assert orset.replica_id == "adopter"

    def test_skips_primitives(self):
        rehome({"a": [1, "x", (True, None)]}, "adopter")  # must not raise


class TestReplicaHost:
    def test_rejects_incomplete_protocol(self):
        class Partial:
            def sync_payload(self, target):
                return None

        with pytest.raises(TypeError):
            ReplicaHost("A", Partial())

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            ReplicaHost("", CRDTLibrary("A"))

    def test_state_and_counters(self):
        host = ReplicaHost("A", CRDTLibrary("A"))
        assert host.state() == {}
        assert "ReplicaHost" in repr(host)


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def small_workload(cluster):
    cluster.rdl("A").set_add("s", "x")
    cluster.sync("A", "B")
    cluster.rdl("B").set_value("s")


class TestSessionEnumerationOrders:
    @pytest.mark.parametrize("order", ["relocation", "sjt", "lexicographic"])
    def test_all_orders_cover_the_space(self, order):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        small_workload(cluster)
        report = erpi.end(
            assertions=[assert_read_equals("e4", frozenset({"x"}))],
            order=order,
        )
        assert report.explored == 6
        assert report.violated

    def test_orders_agree_on_violation_count(self):
        counts = set()
        for order in ("relocation", "sjt", "lexicographic"):
            cluster = make_cluster()
            erpi = ErPi(cluster)
            erpi.start()
            small_workload(cluster)
            report = erpi.end(
                assertions=[assert_read_equals("e4", frozenset({"x"}))],
                order=order,
            )
            counts.add(len(report.violations))
        assert len(counts) == 1

    def test_keep_outcomes_false_retains_violators_only(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        small_workload(cluster)
        report = erpi.end(
            assertions=[assert_read_equals("e4", frozenset({"x"}))],
            keep_outcomes=False,
        )
        assert report.explored == 6
        assert all(outcome.violated for outcome in report.outcomes)

    def test_cap_limits_session(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        small_workload(cluster)
        report = erpi.end(cap=3)
        assert report.explored == 3


class TestExplorerOptions:
    def events(self):
        return (
            make_update("e1", "A", "set_add", "s", "x"),
            *make_sync_pair("e2", "e3", "A", "B"),
            make_read("e4", "B", "set_value", "s"),
        )

    def test_erpi_order_parameter(self):
        for order in ("relocation", "sjt", "lexicographic"):
            explorer = ERPiExplorer(self.events(), order=order)
            assert len(list(explorer.candidates())) == 6

    def test_random_max_reshuffles_bounds_termination(self):
        explorer = RandomExplorer(self.events()[:2], max_reshuffles=3, seed=0)
        out = list(explorer.candidates())
        assert len(out) == 2            # the whole 2! space, then it gives up
        assert explorer.reshuffles >= 3  # the final exhaustion round
