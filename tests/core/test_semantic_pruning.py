"""Semantic pruning: canonical state digests and DPOR.

The layer's contract is *sound-or-off*: a sleep-set prune may only ever
skip replays whose outcome is provably identical to one already replayed —
and when that proof is unavailable (no checkpoint, or the lock-stepped
executor) the pruner disables itself instead of guessing.  These tests pin
the digest algebra the subjects' ``canonical_state()`` feeds, the footprint
model, and the end-to-end bug-finding behaviour across the serial and
process backends.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.core.events import (
    Event,
    EventKind,
    make_crash,
    make_partition,
    make_read,
    make_sync_pair,
    make_update,
)
from repro.core import ErPi, GroupConstraint, assert_read_equals
from repro.core.explorers import ERPiExplorer
from repro.core.pruning import DPORPruner, event_footprint, trace_normal_form
from repro.core.pruning.semantic import footprints_conflict
from repro.core.replay import LockSteppedExecutor, ReplayEngine
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary
from repro.statehash import canonical_repr, combine_digests, state_digest

CR_SCENARIOS = ("Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR")


def crdt_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def town_reports(cluster):
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("problems", "otb")
    cluster.sync("A", "B")
    b.set_add("problems", "ph")
    cluster.sync("B", "A")
    b.set_remove("problems", "otb")
    cluster.sync("B", "A")
    a.set_value("problems")


class _OpaqueLibrary(CRDTLibrary):
    """A subject that opts out of canonical state (digest unavailable)."""

    def canonical_state(self):
        return None


def cluster_digest(cluster):
    """One digest of every replica's canonical state, or ``None`` when a
    subject declares none."""
    parts = []
    for rid in cluster.replica_ids():
        state = cluster.rdl(rid).canonical_state()
        if state is None:
            return None
        parts.append((rid, state_digest(state)))
    return combine_digests(parts)


def local(event_id, replica, op="set_add"):
    return Event(event_id=event_id, replica_id=replica, kind=EventKind.UPDATE, op_name=op)


# ------------------------------------------------------------- statehash


class TestStateHash:
    def test_dict_insertion_order_is_irrelevant(self):
        left = {"a": 1, "b": [2, {"c": 3}]}
        right = {"b": [2, {"c": 3}], "a": 1}
        assert state_digest(left) == state_digest(right)
        assert canonical_repr(left) == canonical_repr(right)

    def test_value_change_changes_digest(self):
        assert state_digest({"a": 1}) != state_digest({"a": 2})
        assert state_digest([1, 2]) != state_digest([2, 1])  # lists are ordered

    def test_digest_is_deterministic_across_calls(self):
        value = {"k": frozenset({"x", "y"}), "n": (1, 2.5, None, True)}
        assert state_digest(value) == state_digest(value)

    def test_cycles_do_not_recurse_forever(self):
        loop = {}
        loop["self"] = loop
        assert isinstance(state_digest(loop), str)

    def test_combine_digests_is_order_independent(self):
        pairs = [("A", state_digest(1)), ("B", state_digest(2))]
        assert combine_digests(pairs) == combine_digests(list(reversed(pairs)))
        assert combine_digests(pairs) != combine_digests(
            [("A", state_digest(2)), ("B", state_digest(1))]
        )


class TestClusterDigest:
    def test_identical_workloads_hash_equal(self):
        one, two = crdt_cluster(), crdt_cluster()
        town_reports(one)
        town_reports(two)
        assert cluster_digest(one) == cluster_digest(two)

    def test_divergent_state_hashes_differently(self):
        one, two = crdt_cluster(), crdt_cluster()
        town_reports(one)
        town_reports(two)
        two.rdl("A").set_add("problems", "extra")
        assert cluster_digest(one) != cluster_digest(two)

    def test_digest_none_when_subject_is_opaque(self):
        cluster = Cluster()
        cluster.add_replica("A", CRDTLibrary("A"))
        cluster.add_replica("B", _OpaqueLibrary("B"))
        assert cluster_digest(cluster) is None


# ------------------------------------------------------ footprints / DPOR


class TestFootprintModel:
    def test_local_events_on_distinct_replicas_are_independent(self):
        assert not footprints_conflict(
            event_footprint(local("e1", "A")), event_footprint(local("e2", "B"))
        )

    def test_same_replica_conflicts(self):
        assert footprints_conflict(
            event_footprint(local("e1", "A")), event_footprint(local("e2", "A"))
        )

    def test_fault_events_are_barriers(self):
        crash = Event(
            event_id="f1", replica_id="A", kind=EventKind.CRASH, op_name="crash"
        )
        assert footprints_conflict(
            event_footprint(crash), event_footprint(local("e9", "Z"))
        )

    def test_normal_form_invariant_under_independent_swap(self):
        a, b = local("e1", "A"), local("e2", "B")
        assert trace_normal_form((a, b)) == trace_normal_form((b, a))

    def test_normal_form_distinguishes_conflicting_orders(self):
        a1, a2 = local("e1", "A"), local("e2", "A")
        assert trace_normal_form((a1, a2)) != trace_normal_form((a2, a1))


class TestDPORPruner:
    def test_unbound_pruner_never_prunes(self):
        pruner = DPORPruner()
        assert not pruner.is_redundant((local("e1", "A"), local("e2", "B")))
        assert pruner.disabled_reason is not None

    def test_prunes_independent_reorderings_once_bound(self):
        recorded = record_scenario(scenario("Roshi-1"))
        pruner = DPORPruner()
        pruner.bind((recorded.engine,), ())
        assert pruner.enabled, pruner.disabled_reason
        a, b = local("e1", "A"), local("e2", "B")
        assert not pruner.is_redundant((a, b))
        assert pruner.is_redundant((b, a))
        assert pruner.prune_log  # the prune is logged for Datalog export

    def test_key_is_deterministic_across_instances(self):
        il = (local("e1", "A"), local("e2", "B"), local("e3", "A"))
        assert DPORPruner().key(il) == DPORPruner().key(il)

    def test_disarms_on_the_lock_stepped_executor(self):
        engine = ReplayEngine(crdt_cluster(), LockSteppedExecutor())
        engine.checkpoint()
        pruner = DPORPruner()
        pruner.bind((engine,), ())
        assert pruner.enabled is False
        assert "LockSteppedExecutor" in pruner.disabled_reason

    def test_lock_stepped_session_explores_as_without_dpor(self):
        def session(**options):
            cluster = crdt_cluster()
            erpi = ErPi(cluster, **options)
            erpi.start()
            a, b = cluster.rdl("A"), cluster.rdl("B")
            a.set_add("s", "x")
            b.set_add("t", "y")  # independent of e1: DPOR can reorder them
            cluster.sync("A", "B")
            b.set_value("s")
            report = erpi.end(
                assertions=[assert_read_equals("e5", frozenset({"x"}))], cap=40
            )
            verdicts = [
                ([event.event_id for event in outcome.interleaving], outcome.violated)
                for outcome in report.outcomes
            ]
            return verdicts, report.pruning_stats.get("dpor", 0)

        # Armed on the sequential executor, DPOR prunes this workload...
        assert session(dpor=True)[1] > 0
        # ...but on the lock-stepped one it stays off and changes nothing.
        plain = session(lock_stepped=True)
        armed = session(lock_stepped=True, dpor=True)
        assert any(violated for _, violated in plain[0])
        assert armed == plain


# ------------------------------------------- DPOR key vs the normal form


def candidate_stream(name, fixed, limit):
    """The first ``limit`` valid candidates of a hunt's stream, unpruned.

    Crash-recovery scenarios get their fault plan compiled, exactly as
    ``hunt(faults=True)`` does."""
    sc = scenario(name)
    recorded = record_scenario(sc, fixed=fixed)
    events = recorded.events
    constraints = ()
    if name in CR_SCENARIOS:
        compiled = sc.fault_plan().compile(recorded.events)
        events = compiled.events
        constraints = compiled.order_constraints
    explorer = ERPiExplorer(events, spec_groups=sc.spec_groups())
    explorer.order_constraints = constraints
    return list(itertools.islice(explorer.candidates(), limit))


def assert_same_partition(pruner, candidates):
    """The pruner's keys and the trace normal forms induce one partition."""
    by_key = {}
    by_form = {}
    for interleaving in candidates:
        key = pruner.key(interleaving)
        form = trace_normal_form(interleaving)
        assert by_key.setdefault(key, form) == form
        assert by_form.setdefault(form, key) == key


class TestDPORKeyMatchesNormalForm:
    """The bitmask key must split candidates into exactly the classes the
    lexicographic normal form does: same prunes, same replays."""

    @pytest.mark.parametrize("name", scenario_names() + fault_scenario_names())
    def test_registered_scenarios(self, name):
        for fixed in (False, True):
            candidates = candidate_stream(name, fixed, 1000)
            assert candidates
            assert_same_partition(DPORPruner(), candidates)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_schedules(self, data):
        replicas = ("A", "B", "C")[: data.draw(st.integers(2, 3))]
        replica = st.sampled_from(replicas)
        events = []
        for shape in data.draw(
            st.lists(st.sampled_from(("update", "read", "sync", "crash",
                                      "partition")), min_size=1, max_size=5)
        ):
            eid = f"e{len(events) + 1}"
            if shape == "update":
                events.append(make_update(eid, data.draw(replica), "set_add"))
            elif shape == "read":
                events.append(make_read(eid, data.draw(replica), "set_value"))
            elif shape == "sync":
                src, dst = data.draw(st.permutations(replicas))[:2]
                events += make_sync_pair(eid, eid + "s", src, dst)
            elif shape == "crash":
                events.append(make_crash(eid, data.draw(replica)))
            else:
                src, dst = data.draw(st.permutations(replicas))[:2]
                events.append(make_partition(eid, src, dst))
        orders = data.draw(
            st.lists(st.permutations(events), min_size=2, max_size=8)
        )
        assert_same_partition(DPORPruner(), [tuple(o) for o in orders])

    def test_interning_order_does_not_change_prunes(self):
        recorded = record_scenario(scenario("OrbitDB-4"))
        candidates = candidate_stream("OrbitDB-4", False, 1500)
        forward, backward = DPORPruner(), DPORPruner()
        for pruner in (forward, backward):
            pruner.bind((recorded.engine,), ())
        # Intern the events back to front before the stream starts.
        backward.key(tuple(reversed(candidates[-1])))
        pruned = [
            [i for i, il in enumerate(candidates) if pruner.is_redundant(il)]
            for pruner in (forward, backward)
        ]
        assert pruned[0] and pruned[0] == pruned[1]

    def test_feed_order_does_not_change_classes(self):
        candidates = candidate_stream("ReplicaDB-2", False, 1500)
        shuffled = list(candidates)
        random.Random(7).shuffle(shuffled)

        def classes(stream):
            pruner = DPORPruner()
            members = {}
            for il in stream:
                members.setdefault(pruner.key(il), set()).add(
                    tuple(e.event_id for e in il)
                )
            return {frozenset(group) for group in members.values()}

        assert classes(candidates) == classes(shuffled)


#: The benchmark's ``dpor`` hunts as the normal-form key ran them: replays,
#: DPOR prunes and the witness each hunt stops on.  The bitmask key must
#: reproduce all three.
DPOR_HUNTS = {
    "OrbitDB-4": (866, 2946, "e12|e1|e2|e3|e4|e5|e6|e7|e9|e8|e10|e11|e13"
                  "|e14|e15|e16|e17|e18"),
    "ReplicaDB-2": (1632, 1131, "e1|e2|e3|e4|e5|e8|e6|e7|e9|e11|e12|e10"
                    "|e13|e14"),
    "OrbitDB-5": (36, 50, "e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e13|e11|e12|e14"
                  "|e15|e16|e17|e18|e19|e20|e21|e22|e23|e24"),
    "Yorkie-1": (46, 6, "e1|e2|e3|e4|e5|e6|e7|e8|e10|e11|e9|e12|e13|e14"
                 "|e15|e16|e17"),
    "Yorkie-2": (24, 22, "e1|e2|e3|e4|e5|e7|e8|e9|e10|e11|e12|e13|e14|e15"
                 "|e16|e6|e17|e18|e19|e20|e21|e22"),
}


def witness_ids(result):
    return "|".join(event.event_id for event in result.violating.interleaving)


@pytest.mark.parametrize("name", sorted(DPOR_HUNTS))
def test_dpor_hunt_keeps_replays_prunes_and_witness(name):
    replayed, pruned, witness = DPOR_HUNTS[name]
    result = hunt(record_scenario(scenario(name)), "erpi", dpor=True)
    assert result.found
    assert result.explored == replayed
    assert result.pruning_stats["dpor"] == pruned
    assert witness_ids(result) == witness


def serial_hunt_with_verdicts(name, **options):
    """A serial hunt plus the verdict map serial explorers do not report."""
    recorded = record_scenario(scenario(name))
    replay = recorded.engine.replay
    verdicts = {}

    def recording_replay(interleaving, assertions=()):
        outcome = replay(interleaving, assertions)
        key = "|".join(event.event_id for event in interleaving)
        verdicts[key] = "violation" if outcome.violated else "ok"
        return outcome

    recorded.engine.replay = recording_replay
    return hunt(recorded, "erpi", **options), verdicts


class TestProcessPruningStats:
    """Regression: process hunts reported the prunes of the worker that
    enumerated furthest, past the commit point (OrbitDB-4: 4,345 DPOR
    prunes against 2,946 serial)."""

    @pytest.mark.parametrize("name", ("OrbitDB-4", "ReplicaDB-2"))
    def test_stopped_hunt_matches_serial(self, name):
        serial, verdicts = serial_hunt_with_verdicts(name, dpor=True)
        pooled = hunt(
            record_scenario(scenario(name)), "erpi", dpor=True,
            workers=2, parallel_backend="process",
        )
        assert pooled.pruning_stats == serial.pruning_stats
        assert pooled.verdicts == verdicts
        assert pooled.explored == serial.explored
        assert witness_ids(pooled) == witness_ids(serial)

    def test_coordinated_hunt_matches_serial(self, tmp_path):
        serial, verdicts = serial_hunt_with_verdicts("OrbitDB-4", dpor=True)
        coordinated = hunt(
            record_scenario(scenario("OrbitDB-4")), "erpi", dpor=True,
            workers=2, journal=str(tmp_path / "hunt.jsonl"),
        )
        assert coordinated.coordination is not None
        assert coordinated.pruning_stats == serial.pruning_stats
        assert coordinated.verdicts == verdicts

    def test_drained_sweep_matches_serial(self):
        options = dict(dpor=True, cap=300, stop_on_violation=False)
        serial, verdicts = serial_hunt_with_verdicts("ReplicaDB-2", **options)
        pooled = hunt(
            record_scenario(scenario("ReplicaDB-2")), "erpi",
            workers=2, parallel_backend="process", **options,
        )
        assert pooled.pruning_stats == serial.pruning_stats
        assert pooled.verdicts == verdicts


# --------------------------------------------------------- hunt behaviour


class TestSemanticHunts:
    def test_dpor_hunt_replays_fewer_same_bug(self):
        baseline = hunt(
            record_scenario(scenario("OrbitDB-2")), "erpi", cap=500,
            stop_on_violation=False,
        )
        pruned = hunt(
            record_scenario(scenario("OrbitDB-2")), "erpi", cap=500,
            dpor=True, stop_on_violation=False,
        )
        assert baseline.found and pruned.found
        assert pruned.explored < baseline.explored
        assert pruned.pruning_stats.get("dpor", 0) > 0

    def test_dpor_hunt_is_sanitizer_clean(self):
        result = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=300,
            dpor=True, sanitize=True, stop_on_violation=False,
        )
        assert result.found
        assert result.sanitizer is not None and result.sanitizer.ok

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backends_find_the_same_violation(self, backend):
        kwargs = {}
        if backend == "process":
            kwargs = {"workers": 2, "parallel_backend": "process"}
        result = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=120,
            dpor=True, **kwargs,
        )
        assert result.found
        assert result.violating is not None
        ids = tuple(e.event_id for e in result.violating.interleaving)
        expected = hunt(
            record_scenario(scenario("Roshi-1")), "erpi", cap=120
        ).violating.interleaving
        assert ids == tuple(e.event_id for e in expected)

    def test_process_verdict_maps_identical_across_worker_counts(self):
        results = {}
        for workers in (2, 3):
            results[workers] = hunt(
                record_scenario(scenario("Roshi-1")), "erpi", cap=120,
                workers=workers, parallel_backend="process",
                dpor=True, stop_on_violation=False,
            )
        assert results[2].verdicts == results[3].verdicts
        assert results[2].explored == results[3].explored


class TestCrashRecoveryWithSemanticPruning:
    """Satellite: every seeded crash-recovery bug is still found with DPOR
    armed, with zero sanitizer divergences (fault events are barriers, so
    DPOR never reorders across a crash, recover or partition)."""

    @pytest.mark.parametrize("name", CR_SCENARIOS)
    def test_cr_bug_found_with_dpor_faults_sanitized(self, name):
        result = hunt(
            record_scenario(scenario(name)), "erpi", cap=2000,
            dpor=True, faults=True, sanitize=True,
        )
        assert result.found, name
        assert not result.quarantined
        assert result.sanitizer is not None and result.sanitizer.ok


class TestSessionAndDatalogPersistence:
    def run_session(self):
        from repro.core import ErPi, GroupConstraint, assert_read_equals

        cluster = crdt_cluster()
        erpi = ErPi(cluster, persist=True, dpor=True)
        erpi.start()
        town_reports(cluster)
        erpi.add_constraint(
            GroupConstraint(pairs=(("e1", "e2"), ("e4", "e5"), ("e7", "e8")))
        )
        report = erpi.end(
            assertions=[assert_read_equals("e10", frozenset({"ph"}))], cap=200
        )
        return erpi, report

    def test_footprint_facts_describe_dpor_prunes(self):
        erpi, report = self.run_session()
        dpor_pruned = erpi.store.pruned_ids("dpor")
        assert len(dpor_pruned) == report.pruning_stats["dpor"]
        for il_id, event_id, mode, key in erpi.store.footprints():
            assert il_id in dpor_pruned
            assert mode in ("r", "w", "b")
            assert key.startswith(("replica:", "chan:", "*"))

    def test_export_renders_new_relations(self):
        erpi, report = self.run_session()
        text = erpi.export_datalog()
        assert "// .decl footprint(" in text
        if erpi.store.footprints():
            assert "\nfootprint(" in text
