"""Tests for the replay engine and its executors."""

import itertools

import pytest

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.core import replay as replay_mod
from repro.core.errors import ReplayError
from repro.core.events import make_crash, make_read, make_sync_pair, make_update
from repro.core.explorers import DFSExplorer
from repro.core.replay import ReplayEngine, SequentialExecutor
from repro.crdt.base import CRDTError
from repro.net.cluster import Cluster, ClusterError
from repro.rdl.base import RDLError
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def workload_events():
    return (
        make_update("e1", "A", "set_add", "s", "x"),
        *make_sync_pair("e2", "e3", "A", "B"),
        make_update("e4", "B", "set_add", "s", "y"),
        *make_sync_pair("e5", "e6", "B", "A"),
        make_read("e7", "A", "set_value", "s"),
    )


class TestReplayEngine:
    def test_replay_requires_checkpoint(self):
        engine = ReplayEngine(make_cluster())
        with pytest.raises(ReplayError):
            engine.replay(workload_events())

    def test_replay_executes_in_order(self):
        cluster = make_cluster()
        engine = ReplayEngine(cluster)
        engine.checkpoint()
        outcome = engine.replay(workload_events())
        assert outcome.reads()["e7"] == frozenset({"x", "y"})
        assert not outcome.failed_ops
        assert [res.lamport for res in outcome.event_results] == list(range(1, 8))

    def test_replay_resets_between_interleavings(self):
        cluster = make_cluster()
        engine = ReplayEngine(cluster)
        engine.checkpoint()
        engine.replay(workload_events())
        outcome = engine.replay(workload_events())
        # If state leaked across replays the set would accumulate items.
        assert outcome.states["A"] == {"s": frozenset({"x", "y"})}

    def test_reordered_sync_delivers_nothing(self):
        events = workload_events()
        reordered = (events[1], events[2], *events[:1], *events[3:])
        cluster = make_cluster()
        engine = ReplayEngine(cluster)
        engine.checkpoint()
        outcome = engine.replay(reordered)
        # The sync ran before the update: B never received "x".
        assert outcome.states["B"] == {"s": frozenset({"y"})}

    def test_failing_op_recorded_not_raised(self):
        events = (make_read("e1", "A", "set_value", "missing"),)
        engine = ReplayEngine(make_cluster())
        engine.checkpoint()
        outcome = engine.replay(events)
        assert len(outcome.failed_ops) == 1
        assert "missing" in outcome.failed_ops[0].error

    def test_unknown_method_is_engine_error(self):
        events = (make_update("e1", "A", "no_such_op"),)
        engine = ReplayEngine(make_cluster())
        engine.checkpoint()
        with pytest.raises(ReplayError):
            engine.replay(events)

    def test_assertions_populate_violations(self):
        engine = ReplayEngine(make_cluster())
        engine.checkpoint()
        outcome = engine.replay(
            workload_events(), assertions=[lambda out: "always wrong"]
        )
        assert outcome.violated
        assert outcome.violations == ["always wrong"]

    def test_duration_measured(self):
        engine = ReplayEngine(make_cluster())
        engine.checkpoint()
        outcome = engine.replay(workload_events())
        assert outcome.duration_s >= 0

    def test_restore_resets_cluster(self):
        cluster = make_cluster()
        engine = ReplayEngine(cluster)
        engine.checkpoint()
        engine.replay(workload_events())
        engine.restore()
        assert cluster.rdl("A").value() == {}


#: Every exception a replay records as a failed op, with the message the
#: event result carries.
OP_FAILURES = [
    (RDLError("rejected"), "RDLError: rejected"),
    (CRDTError("bad merge"), "CRDTError: bad merge"),
    (KeyError("k"), "KeyError: 'k'"),
    (IndexError("out of range"), "IndexError: out of range"),
    (ValueError("bad value"), "ValueError: bad value"),
]


class RaisingLibrary(CRDTLibrary):
    def explode(self, index):
        raise OP_FAILURES[index][0]

    def crash_harness(self):
        raise RuntimeError("not an op failure")


EXECUTORS = {
    "plain": SequentialExecutor,
    "watchdog": lambda: SequentialExecutor(timeout_s=30),
}


def engine_on(cluster, executor):
    engine = ReplayEngine(cluster, executor)
    engine.checkpoint()
    return engine


class TestCompiledSteps:
    """Each event compiles once per (executor, cluster) into a step; these
    pin what a step must still do exactly as the per-event dispatch did."""

    def test_an_executor_reused_on_a_second_cluster_replays_there(self):
        executor = SequentialExecutor()
        first, second = make_cluster(), make_cluster()
        events = workload_events()
        executor.run(first, events)
        before = first.states()
        results = executor.run(second, events[:1] + events[3:4])
        assert [result.ok for result in results] == [True, True]
        assert second.states() == {
            "A": {"s": frozenset({"x"})},
            "B": {"s": frozenset({"y"})},
        }
        assert first.states() == before

    def test_fresh_events_every_replay_keep_the_step_table_bounded(self):
        executor = SequentialExecutor()
        cluster = make_cluster()
        # Seven events a replay: the last replays pass the limit.
        for _ in range(replay_mod._STEP_TABLE_LIMIT // 7 + 1):
            results = executor.run(cluster, workload_events())
        assert [result.ok for result in results] == [True] * 7
        assert len(executor._steps) <= replay_mod._STEP_TABLE_LIMIT

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_each_caught_exception_is_a_failed_op_with_its_message(self, kind):
        cluster = Cluster()
        cluster.add_replica("A", RaisingLibrary("A"))
        engine = engine_on(cluster, EXECUTORS[kind]())
        events = tuple(
            make_update(f"e{index}", "A", "explode", index)
            for index in range(len(OP_FAILURES))
        )
        for _ in range(2):  # compiled on the first replay, cached on the second
            outcome = engine.replay(events)
            assert [(res.ok, res.error) for res in outcome.event_results] == [
                (False, message) for _, message in OP_FAILURES
            ]
        with pytest.raises(RuntimeError):
            engine.replay((make_update("e9", "A", "crash_harness"),))

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_unknown_and_uncallable_ops_are_engine_errors(self, kind):
        engine = engine_on(make_cluster(), EXECUTORS[kind]())
        for name in ("no_such_op", "replica_id"):
            with pytest.raises(ReplayError, match=f"has no method '{name}'"):
                engine.replay((make_update("e1", "A", name),))

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_an_unknown_replica_escapes_and_is_quarantined(self, kind):
        engine = engine_on(make_cluster(), EXECUTORS[kind]())
        for events in (
            (make_update("e1", "Z", "set_add", "s", "x"),),
            tuple(make_sync_pair("e1", "e2", "A", "Z")),
            (make_crash("f1", "Z"),),
        ):
            with pytest.raises(ClusterError, match="unknown replica 'Z'"):
                engine.replay(events)
            result = DFSExplorer(events).explore(engine, [], cap=1)
            assert [q.error_type for q in result.quarantined] == ["ClusterError"]

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_an_op_on_a_crashed_replica_fails_with_replica_down(self, kind):
        engine = engine_on(make_cluster(), EXECUTORS[kind]())
        events = (make_crash("f1", "A"), make_update("e1", "A", "set_add", "s", "x"))
        for _ in range(2):
            crash, op = engine.replay(events).event_results
            assert (crash.ok, crash.result) == (True, True)
            assert (op.ok, op.error) == (False, "ReplicaDownError: replica 'A' is down")

    def test_keyword_arguments_reach_the_op(self):
        engine = engine_on(make_cluster(), SequentialExecutor())
        events = (
            make_update("e1", "A", "map_put", "m", "k", "v"),
            make_read("e2", "A", "map_get", "m", "missing", default="fallback"),
        )
        for _ in range(2):
            assert engine.replay(events).reads()["e2"] == "fallback"

    def test_methods_patched_on_the_class_after_a_replay_are_called(self, monkeypatch):
        engine = engine_on(make_cluster(), SequentialExecutor())
        events = workload_events()
        engine.replay(events)
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def patched(self, *args):
                calls.append((name, args))
                return original(self, *args)

            monkeypatch.setattr(owner, name, patched)

        spy(CRDTLibrary, "set_add")
        spy(Cluster, "send_sync")
        outcome = engine.replay(events)
        assert outcome.reads()["e7"] == frozenset({"x", "y"})
        assert calls == [
            ("set_add", ("s", "x")),
            ("send_sync", ("A", "B")),
            ("set_add", ("s", "y")),
            ("send_sync", ("B", "A")),
        ]


STEP_CANDIDATES = 200
STEP_CASES = [(name, False) for name in scenario_names()] + [
    (name, True) for name in fault_scenario_names()
]


@pytest.mark.parametrize("name,faults", STEP_CASES, ids=[name for name, _ in STEP_CASES])
def test_plain_and_watchdog_executors_give_equal_results(name, faults):
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi", faults=faults)
    candidates = list(itertools.islice(explorer.candidates(), STEP_CANDIDATES))
    assert len(candidates) > 1
    engine = recorded.engine
    plain = [engine.replay(c).event_results for c in candidates]
    engine.executor = SequentialExecutor(timeout_s=30)
    assert [engine.replay(c).event_results for c in candidates] == plain
