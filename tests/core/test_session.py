"""End-to-end tests for the ErPi session facade (paper Figure 7 workflow)."""

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.core import (
    ErPi,
    FailedOpsConstraint,
    GroupConstraint,
    IndependenceConstraint,
    RecordingError,
    StableReadAcrossInterleavings,
    assert_read_equals,
)
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def town_reports_workload(cluster):
    """The motivating example (paper section 2.3)."""
    a, b = cluster.rdl("A"), cluster.rdl("B")
    a.set_add("problems", "otb")          # e1
    cluster.sync("A", "B")                # e2, e3
    b.set_add("problems", "ph")           # e4
    cluster.sync("B", "A")                # e5, e6
    b.set_remove("problems", "otb")       # e7
    cluster.sync("B", "A")                # e8, e9
    return a.set_value("problems")        # e10


MOTIVATING_GROUPS = GroupConstraint(
    pairs=(("e1", "e2"), ("e4", "e5"), ("e7", "e8"))
)


class TestSessionLifecycle:
    def test_end_without_start_rejected(self):
        with pytest.raises(RecordingError):
            ErPi(make_cluster()).end()

    def test_double_start_rejected(self):
        erpi = ErPi(make_cluster())
        erpi.start()
        with pytest.raises(RecordingError):
            erpi.start()

    def test_cluster_reset_after_end(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        erpi.end()
        assert cluster.rdl("A").value() == {}


class TestMotivatingExample:
    def run_session(self, **session_kwargs):
        cluster = make_cluster()
        erpi = ErPi(cluster, **session_kwargs)
        erpi.start()
        transmitted = town_reports_workload(cluster)
        assert transmitted == frozenset({"ph"})
        erpi.add_constraint(MOTIVATING_GROUPS)
        return erpi.end(
            assertions=[assert_read_equals("e10", frozenset({"ph"}))]
        )

    def test_records_ten_events(self):
        report = self.run_session()
        assert len(report.events) == 10
        assert report.raw_space == 3_628_800

    def test_grouping_to_four_units(self):
        report = self.run_session()
        assert report.grouping.unit_count == 4
        assert report.grouping.grouped_space == 24

    def test_finds_the_design_flaw(self):
        report = self.run_session()
        assert report.violated
        messages = [message for _, message in report.violations]
        assert any("otb" in message for message in messages)

    def test_read_scoped_pruning_replays_16(self):
        report = self.run_session(replica_scope="A", read_scoped=True)
        assert report.explored == 16
        assert report.violated

    def test_replica_scoped_pruning_still_finds_bug(self):
        report = self.run_session(replica_scope="A")
        assert report.explored <= 24
        assert report.violated

    def test_stop_on_violation(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        town_reports_workload(cluster)
        erpi.add_constraint(MOTIVATING_GROUPS)
        report = erpi.end(
            assertions=[assert_read_equals("e10", frozenset({"ph"}))],
            stop_on_violation=True,
        )
        assert report.violated
        assert report.explored < 24

    def test_summary_mentions_pruning(self):
        report = self.run_session()
        text = report.summary()
        assert "pruned by event_grouping" in text
        assert "interleavings replayed: " in text


class TestPersistence:
    def test_interleavings_mirrored_to_datalog_store(self):
        cluster = make_cluster()
        erpi = ErPi(cluster, persist=True)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        report = erpi.end()
        assert erpi.store is not None
        assert erpi.store.count() == report.explored
        assert erpi.store.event_ids() == ["e1", "e2", "e3"]
        # Grouped sync pair persisted as a fact.
        assert erpi.store.db.rows("sync_pair") == frozenset({("e2", "e3")})

    def test_violations_marked_in_store(self):
        cluster = make_cluster()
        erpi = ErPi(cluster, persist=True)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        cluster.rdl("B").set_value("s")
        report = erpi.end(
            assertions=[assert_read_equals("e4", frozenset({"x"}))]
        )
        assert report.violated
        assert erpi.store.violations()


class TestConstraintsDirectory:
    def test_json_constraints_applied(self, tmp_path):
        import json

        (tmp_path / "groups.json").write_text(
            json.dumps({"type": "group", "pairs": [["e1", "e2"]]})
        )
        cluster = make_cluster()
        erpi = ErPi(cluster, constraints_dir=str(tmp_path))
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        report = erpi.end()
        assert report.grouping.unit_count == 1  # e1+e2 chained with auto pair

    def test_cross_checks_evaluated(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        cluster.rdl("B").set_value("s")   # e4: reads {} or {"x"} by order
        report = erpi.end(
            cross_checks=[StableReadAcrossInterleavings("e4")]
        )
        assert report.cross_violations
        name, message = report.cross_violations[0]
        assert "stable_read" in name


class TestDatalogExport:
    def test_export_requires_persist(self):
        erpi = ErPi(make_cluster())
        with pytest.raises(RecordingError):
            erpi.export_datalog()

    def test_exported_program_replays_the_session(self, tmp_path):
        from repro.datalog.parser import evaluate_text

        cluster = make_cluster()
        erpi = ErPi(cluster, persist=True)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        report = erpi.end()
        path = tmp_path / "session.dl"
        text = erpi.export_datalog(str(path))
        assert path.read_text() == text
        db = evaluate_text(text)
        assert db.size("interleaving") > 0
        assert db.size("explored") == report.explored
        # Replayed interleavings respect grouping, so none is flagged bad.
        assert db.rows("bad") == frozenset()


class TestCustomReadMethods:
    def test_custom_query_methods_classified_as_reads(self):
        import copy as _copy

        class TinyRDL:
            def __init__(self, replica_id):
                self.replica_id = replica_id
                self._items = []

            def push(self, item):
                self._items.append(item)

            def peek_latest(self):
                return self._items[-1] if self._items else None

            def sync_payload(self, target):
                return list(self._items)

            def apply_sync(self, payload, sender):
                for item in payload:
                    if item not in self._items:
                        self._items.append(item)

            def checkpoint(self):
                return _copy.deepcopy(self._items)

            def restore(self, snapshot):
                self._items = _copy.deepcopy(snapshot)

            def value(self):
                return list(self._items)

        cluster = Cluster()
        for rid in ("A", "B"):
            cluster.add_replica(rid, TinyRDL(rid))
        erpi = ErPi(cluster, read_methods=["peek_latest"])
        erpi.start()
        cluster.rdl("A").push("x")
        cluster.sync("A", "B")
        cluster.rdl("B").peek_latest()
        report = erpi.end(
            cross_checks=[StableReadAcrossInterleavings("e4")]
        )
        kinds = {e.event_id: e.kind.value for e in report.events}
        assert kinds["e4"] == "read"
        assert report.cross_violations  # peek depends on sync timing


class TestPersistExploration:
    def test_process_hunt_verdicts_become_datalog_facts(self):
        from repro.bench.harness import hunt, record_scenario
        from repro.bugs.registry import scenario
        from repro.core.session import persist_exploration
        from repro.datalog.store import InterleavingStore
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        result = hunt(
            record_scenario(scenario("Roshi-1")),
            "erpi",
            workers=2,
            parallel_backend="process",
            metrics=metrics,
        )
        store = InterleavingStore()
        counts = persist_exploration(store, result, metrics=metrics)
        assert sum(counts.values()) == len(result.verdicts)
        assert len(store.explored()) == len(result.verdicts)
        assert len(store.violations()) == (1 if result.found else 0)
        # The merged shard metrics land as metric(...) facts too.
        persisted = dict(store.metrics())
        assert persisted["interleavings.generated"] == metrics.counter(
            "interleavings.generated"
        )

    def test_quarantine_verdicts_carry_error_types(self):
        from repro.core.explorers import ExplorationResult
        from repro.core.session import persist_exploration
        from repro.datalog.store import InterleavingStore
        from repro.faults.quarantine import QuarantinedReplay

        result = ExplorationResult(
            mode="erpi+proc2",
            found=False,
            explored=2,
            elapsed_s=0.0,
            quarantined=[
                QuarantinedReplay(
                    interleaving=("e1", "e2"),
                    error_type="ReplayTimeout",
                    message="",
                    traceback="",
                )
            ],
            verdicts={"e1|e2": "quarantine", "e2|e1": "ok"},
        )
        store = InterleavingStore()
        counts = persist_exploration(store, result)
        assert counts == {"ok": 1, "violation": 0, "quarantined": 1}
        assert store.quarantines() == [(0, "ReplayTimeout")]
        assert store.explored() == {0: "quarantined", 1: "ok"}


def _session_like_hunt(sc, faults, dpor_and_sanitize):
    """An ``ErPi`` session over ``sc`` built from the scenario's constraints
    (replica scope, groups, independence, failed ops), as a developer would
    write them."""
    cluster = sc.build_cluster()
    erpi = ErPi(
        cluster,
        replica_scope=sc.replica_scope,
        dpor=dpor_and_sanitize,
        sanitize=dpor_and_sanitize,
        faults=sc.fault_plan() if faults else None,
    )
    if sc.spec_groups():
        erpi.add_constraint(GroupConstraint(pairs=tuple(sc.spec_groups())))
    for events in sc.independence_constraints():
        erpi.add_constraint(IndependenceConstraint(events=tuple(events)))
    for predecessors, successors in sc.failed_ops_constraints():
        erpi.add_constraint(
            FailedOpsConstraint(
                predecessors=tuple(predecessors), successors=tuple(successors)
            )
        )
    erpi.start()
    sc.workload(cluster)
    return erpi.end(
        assertions=sc.make_assertions(), stop_on_violation=True, keep_outcomes=False
    )


def _sanitizer_view(report):
    if report is None:
        return None
    return (
        report.classes_checked,
        report.members_checked,
        report.fresh_replays,
        report.divergences,
    )


def _hunt_cases():
    cases = [(name, False) for name in scenario_names()]
    cases += [(name, True) for name in fault_scenario_names()]
    return cases


class TestHuntAndSessionAreOneHunt:
    """``hunt()`` and an ``ErPi`` session over the same inputs assemble the
    same explorer, so they replay, prune, quarantine and sanitize alike."""

    @pytest.mark.parametrize(
        "dpor_and_sanitize", [False, True], ids=["plain", "dpor-sanitize"]
    )
    @pytest.mark.parametrize("name,faults", _hunt_cases())
    def test_same_hunt(self, name, faults, dpor_and_sanitize):
        sc = scenario(name)
        result = hunt(
            record_scenario(sc),
            "erpi",
            faults=faults,
            dpor=dpor_and_sanitize,
            sanitize=dpor_and_sanitize,
        )
        report = _session_like_hunt(sc, faults, dpor_and_sanitize)

        assert report.explored == result.explored
        assert bool(report.violations) == result.found
        if result.found:
            witness = report.outcomes[report.violations[0][0]]
            assert [e.event_id for e in witness.interleaving] == [
                e.event_id for e in result.violating.interleaving
            ]
        assert report.pruning_stats == result.pruning_stats
        assert len(report.quarantined) == len(result.quarantined)
        assert _sanitizer_view(report.sanitizer) == _sanitizer_view(result.sanitizer)
