"""Ablations of ER-pi's design choices (DESIGN.md section 6).

1. Grouping before generation vs. generate-then-filter.
2. Observation-signature replica pruning vs. no replica pruning.
3. Sequential replay cost (the Redis mutex it replaces is not reproduced).
4. Datalog-backed pruning queries vs. the direct fast path.
"""

import time
from itertools import islice

import pytest

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bench.reporting import format_table
from repro.bugs import scenario
from repro.core.events import make_sync_pair, make_update
from repro.core.explorers import ERPiExplorer
from repro.core.interleavings import group_events, interleaving_stream
from repro.core.pruning import EventGroupPruner, ReplicaSpecificPruner
from repro.datalog.queries import grouping_violations
from repro.datalog.store import InterleavingStore


def small_events():
    return [
        make_update("e1", "A", "set_add", "s", "x"),
        *make_sync_pair("e2", "e3", "A", "B"),
        make_update("e4", "B", "set_add", "s", "y"),
        *make_sync_pair("e5", "e6", "B", "A"),
    ]


class TestAblationGrouping:
    """Pre-generation grouping enumerates u! candidates; the naive pipeline
    generates all n! raw permutations and filters — same surviving set,
    factorially more work."""

    def test_same_survivors_far_fewer_candidates(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        events = small_events()
        grouping = group_events(events)
        grouped_candidates = list(interleaving_stream(grouping.units))
        pruner = EventGroupPruner()
        pruner.prepare(events)
        raw_units = tuple((event,) for event in events)
        filtered = [
            il
            for il in interleaving_stream(raw_units, order="lexicographic")
            if not pruner.is_redundant(il)
        ]
        # Surviving class keys agree.
        keys_grouped = {pruner.key(il) for il in grouped_candidates}
        keys_filtered = {pruner.key(il) for il in filtered}
        assert keys_grouped == keys_filtered
        assert len(grouped_candidates) == 24            # 4! units
        assert pruner.stats.examined == 720             # filtered all 6!
        print(
            f"\ngrouping-first: {len(grouped_candidates)} candidates; "
            f"generate-then-filter examined {pruner.stats.examined}"
        )

    def test_timing(self, benchmark):
        events = small_events()

        def grouped():
            grouping = group_events(events)
            return sum(1 for _ in interleaving_stream(grouping.units))

        assert benchmark.pedantic(grouped, rounds=3, iterations=1) == 24


class TestAblationReplicaPruning:
    """Replica-specific pruning shrinks the replayed set on scoped hunts."""

    def test_replayed_counts(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        with_pruner = record_scenario(scenario("Roshi-3"))
        explorer = make_explorer(with_pruner, "erpi")
        pruned_window = list(islice(explorer.candidates(), 200))

        without = record_scenario(scenario("Roshi-3"))
        bare = ERPiExplorer(without.events)  # no pruners
        bare_window = list(islice(bare.candidates(), 200))

        stats = explorer.pipeline.stats()["replica_specific"]
        print(
            f"\nreplica-specific pruning suppressed {stats.pruned} of "
            f"{stats.examined} examined candidates in the first window"
        )
        assert stats.pruned > 0
        assert len(pruned_window) == len(bare_window) == 200


class TestAblationExecutor:
    """The cost of one sequential replay.  The paper's Redis mutex is not
    reproduced: in-process sequential replay is the total order it
    enforces."""

    def test_sequential_cost(self, benchmark):
        recorded = record_scenario(scenario("Roshi-1"))
        benchmark.pedantic(
            lambda: recorded.engine.replay(recorded.events), rounds=5, iterations=1
        )


class TestAblationDatalog:
    """The Datalog grouping query and the fast-path key agree; the deductive
    engine pays for generality."""

    def make_store(self, events, interleavings):
        store = InterleavingStore()
        for event in events:
            store.persist_event(
                event.event_id, event.replica_id, event.kind.value, event.op_name
            )
        grouping = group_events(events)
        for first, second in grouping.grouped_pairs:
            store.persist_sync_pair(first, second)
        ids = store.persist_many(
            [[e.event_id for e in il] for il in interleavings]
        )
        return store, ids

    def test_agreement_and_cost(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        events = small_events()
        raw_units = tuple((event,) for event in events)
        window = list(
            islice(interleaving_stream(raw_units, order="lexicographic"), 120)
        )
        store, ids = self.make_store(events, window)

        started = time.perf_counter()
        datalog_bad = set(grouping_violations(store))
        datalog_time = time.perf_counter() - started

        pruner = EventGroupPruner()
        pruner.prepare(events)

        def respects(il):
            order = [e.event_id for e in il]
            return (
                order.index("e3") == order.index("e2") + 1
                and order.index("e6") == order.index("e5") + 1
            )

        started = time.perf_counter()
        fast_bad = {
            il_id for il_id, il in zip(ids, window) if not respects(il)
        }
        fast_time = time.perf_counter() - started

        assert datalog_bad == fast_bad
        print(
            f"\ndatalog grouping query {datalog_time * 1e3:.1f} ms vs "
            f"fast path {fast_time * 1e3:.2f} ms over {len(window)} interleavings"
        )

    def test_datalog_query_cost(self, benchmark):
        events = small_events()
        raw_units = tuple((event,) for event in events)
        window = list(
            islice(interleaving_stream(raw_units, order="lexicographic"), 60)
        )
        store, _ = self.make_store(events, window)
        benchmark.pedantic(
            lambda: grouping_violations(store), rounds=1, iterations=1
        )


class TestAblationInteractivePruning:
    """The State-4 loop: runtime constraint discovery vs. a fixed pipeline."""

    def _run(self, with_advisor: bool):
        from repro.core.constraints import IndependenceConstraint
        from repro.core.interactive import InteractiveSession
        from repro.net.cluster import Cluster
        from repro.rdl.crdts_lib import CRDTLibrary

        cluster = Cluster()
        for rid in ("A", "B", "C"):
            cluster.add_replica(rid, CRDTLibrary(rid))
        session = InteractiveSession(cluster)
        session.start()
        cluster.rdl("A").set_add("inventory", "bolts")   # e1
        cluster.rdl("B").set_add("orders", "order-7")    # e2
        cluster.rdl("C").set_add("audit", "entry-1")     # e3
        cluster.sync("A", "B")                            # e4, e5
        cluster.rdl("B").set_value("inventory")           # e6

        def advisor(round_index, outcomes):
            if with_advisor and round_index == 0:
                return [IndependenceConstraint(events=("e1", "e2", "e3"))]
            return None

        return session.explore(advisor=advisor, round_size=20, max_rounds=30)

    def test_constraints_reduce_replays(self, benchmark):
        baseline = self._run(False)
        assisted = benchmark.pedantic(
            lambda: self._run(True), rounds=1, iterations=1
        )
        assert baseline.exhausted and assisted.exhausted
        assert assisted.replayed < baseline.replayed
        print(
            f"\ninteractive pruning: {baseline.replayed} replays without "
            f"constraints vs {assisted.replayed} with the State-4 advisor"
        )
