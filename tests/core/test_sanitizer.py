"""Differential soundness sanitizer: class sampling and wiring.

The sanitizer exists to catch a pruner whose class key merges
interleavings that are NOT observably equivalent before it silently skips a
buggy schedule.  These tests exercise both directions — clean setups must
report OK, seeded unsoundness must surface as divergences.
"""

import random

import pytest

from repro.bench.harness import hunt, record_scenario, scenario_pruners
from repro.bugs import all_scenarios, scenario
from repro.core.events import make_sync_pair, make_update
from repro.core.explorers import build_explorer
from repro.core.pruning import (
    EventIndependencePruner,
    Pruner,
    ReadScopedPruner,
    ReplicaSpecificPruner,
)
from repro.core.pruning.base import ClassSampler
from repro.core.replay import ReplayEngine
from repro.core.sanitizer import Divergence, DivergenceLog, Sanitizer
from repro.core.session import ErPi
from repro.datalog.export import export_program
from repro.datalog.store import InterleavingStore
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster(replicas=("A", "B")):
    cluster = Cluster()
    for rid in replicas:
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def make_engine(replicas=("A", "B")):
    engine = ReplayEngine(make_cluster(replicas))
    engine.checkpoint()
    return engine


def sanitize(events, pruners, engine, spec_groups=(), cap=300, **sanitizer_kwargs):
    """A sanitized lexicographic explore of ``events``, as a sanitized hunt
    runs it: the sanitizer watches the explorer's pruning classes (plus an
    Algorithm-1 grouping auditor) and differentially replays them."""
    sanitizer = Sanitizer(**sanitizer_kwargs)
    explorer = build_explorer(
        events,
        spec_groups=spec_groups,
        pruners=pruners,
        sanitizer=sanitizer,
        order="lexicographic",
    )
    explorer.explore(engine, (), cap=cap)
    return sanitizer.finish(engine)


class FrozensetPruner(Pruner):
    """Deliberately unsound: merges every permutation of the same events."""

    name = "unsound_frozenset"

    def key(self, interleaving):
        return frozenset(event.event_id for event in interleaving)


class TestClassSampler:
    def test_reservoir_keeps_at_most_k(self):
        sampler = ClassSampler(sample_k=2, seed=0)
        sampler.saw_representative("k", ("rep",))
        for index in range(10):
            sampler.saw_skipped("k", (f"m{index}",))
        classes = list(sampler.classes())
        assert len(classes) == 1
        _, representative, members = classes[0]
        assert representative == ("rep",)
        assert len(members) == 2

    def test_only_merged_classes_yielded(self):
        sampler = ClassSampler()
        sampler.saw_representative("lonely", ("rep",))
        assert list(sampler.classes()) == []

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            ClassSampler(sample_k=0)


class TestOfflineSanitize:
    def test_sound_pruner_reports_ok(self):
        events = [
            make_update("e1", "A", "set_add", "s1", "x"),
            make_update("e2", "B", "set_add", "s2", "y"),
            make_update("e3", "A", "set_add", "s1", "z"),
        ]
        report = sanitize(
            events, [EventIndependencePruner(["e1", "e2"])], make_engine()
        )
        assert report.ok
        assert report.classes_checked >= 1
        assert report.members_checked >= 1
        assert report.fresh_replays >= 2
        assert "OK" in report.summary()

    def test_unsound_pruner_yields_divergence(self):
        # Same-structure inserts at position 0 do not commute: the order
        # decides the final text, so frozenset-merging them is unsound.
        events = [
            make_update("e1", "A", "text_insert", "t", 0, "a"),
            make_update("e2", "A", "text_insert", "t", 0, "b"),
        ]
        report = sanitize(events, [FrozensetPruner()], make_engine())
        assert not report.ok
        divergence = report.divergences[0]
        assert divergence.source == "unsound_frozenset"
        assert divergence.field == "state[A]"
        assert "DIVERGENCE" in report.summary()

    def test_divergences_become_datalog_facts(self):
        events = [
            make_update("e1", "A", "text_insert", "t", 0, "a"),
            make_update("e2", "A", "text_insert", "t", 0, "b"),
        ]
        store = InterleavingStore()
        report = sanitize(events, [FrozensetPruner()], make_engine(), store=store)
        assert not report.ok
        facts = store.divergences()
        assert facts and facts[0][3] == "state[A]"
        assert "divergence(" in export_program(store)

    def test_grouping_auditor_is_a_sound_noop_on_grouped_stream(self):
        events = [
            make_update("e1", "A", "set_add", "s", "x"),
            *make_sync_pair("e2", "e3", "A", "B"),
        ]
        report = sanitize(events, [], make_engine())
        assert report.ok

    def test_scoped_pruners_compared_on_scoped_observables_only(self):
        # e1/e3 race at A while B only ever sees what syncs carry; the
        # replica-specific class for B must tolerate A-side differences
        # without reporting a divergence.
        events = [
            make_update("e1", "A", "text_insert", "t", 0, "a"),
            make_update("e2", "B", "set_add", "s", "y"),
            make_update("e3", "A", "text_insert", "t", 0, "b"),
        ]
        report = sanitize(
            events,
            [ReplicaSpecificPruner("B"), ReadScopedPruner("B")],
            make_engine(),
            sample_k=4,
        )
        assert report.ok
        assert report.classes_checked >= 1


class TestDivergenceLog:
    def test_log_is_shared_and_thread_safe_container(self):
        log = DivergenceLog()
        log.record(Divergence("src", "k", "r", "m", "f"))
        assert len(log) == 1
        assert log.divergences[0].describe().startswith("[src]")


class TestSessionWiring:
    def _motivating_report(self, **kwargs):
        cluster = make_cluster()
        erpi = ErPi(cluster, **kwargs)
        erpi.start()
        a, b = cluster.rdl("A"), cluster.rdl("B")
        a.set_add("problems", "otb")
        cluster.sync("A", "B")
        b.set_add("problems", "ph")
        cluster.sync("B", "A")
        return erpi.end(cap=60)

    def test_session_report_carries_sanitizer(self):
        report = self._motivating_report(sanitize=True, persist=True)
        assert report.sanitizer is not None
        assert report.sanitizer.ok
        assert "sanitizer:" in report.summary()

    def test_session_without_sanitize_has_none(self):
        report = self._motivating_report()
        assert report.sanitizer is None
        assert "sanitizer:" not in report.summary()

    def test_persisted_session_has_no_divergence_facts(self):
        cluster = make_cluster()
        erpi = ErPi(cluster, sanitize=True, persist=True)
        erpi.start()
        cluster.rdl("A").set_add("s", "x")
        cluster.sync("A", "B")
        report = erpi.end(cap=40)
        assert report.sanitizer is not None and report.sanitizer.ok
        assert erpi.store.divergences() == []


SUBJECT_SCENARIOS = ("Roshi-3", "OrbitDB-2", "ReplicaDB-1", "Yorkie-1")


@pytest.mark.parametrize("name", SUBJECT_SCENARIOS)
def test_property_same_key_means_same_observables(name):
    """Property (seeded stdlib random): for every pruner, interleavings that
    share a class key must produce identical scoped observables — checked
    here on one scenario per RDL subject."""
    rng = random.Random(f"sanitize-property:{name}")
    sc = scenario(name)
    recorded = record_scenario(sc)
    pruners = scenario_pruners(sc)
    scope = sc.replica_scope or recorded.events[0].replica_id
    pruners.append(ReplicaSpecificPruner(scope))
    pruners.append(ReadScopedPruner(scope))
    report = sanitize(
        recorded.events,
        pruners,
        recorded.engine,
        spec_groups=sc.spec_groups(),
        cap=rng.randrange(40, 80),
        sample_k=3,
        seed=rng.randrange(1_000),
    )
    assert report.ok, report.summary()


def test_all_seeded_bugs_sanitize_clean():
    """Acceptance: every Table-1 scenario sanitizes with zero divergences —
    the pruners are sound on the very workloads that trigger the seeded
    bugs."""
    for sc in all_scenarios():
        result = hunt(record_scenario(sc), "erpi", cap=15, sanitize=True)
        report = result.sanitizer
        assert report is not None
        assert report.ok, f"{sc.name}: {report.summary()}"
