"""An outcome's final states are read from the cluster on first access.

The engine hands out outcomes whose ``states`` are read when first asked
for.  The cluster's next restore closes an unread outcome, and a read then
raises rather than return another replay's states.  Every caller that keeps
an outcome past that point reads its states first: the explore loop (the
violating outcome, and every outcome a commit sink sees), the pool worker
(pickling reads them), ``InteractiveSession`` and ``replay_fresh``.  Each
kept outcome must hold the states a fresh replay of its interleaving reads.
"""

import pickle

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs import scenario
from repro.core import ErPi
from repro.core.errors import ReplayError
from repro.core.events import make_read, make_sync_pair, make_update
from repro.core.interactive import InteractiveSession
from repro.core.replay import ReplayEngine
from repro.net.cluster import Cluster
from repro.rdl.crdts_lib import CRDTLibrary


def make_cluster():
    cluster = Cluster()
    for rid in ("A", "B"):
        cluster.add_replica(rid, CRDTLibrary(rid))
    return cluster


def make_engine():
    engine = ReplayEngine(make_cluster())
    engine.checkpoint()
    return engine


EVENTS = (
    make_update("e1", "A", "set_add", "s", "x"),
    *make_sync_pair("e2", "e3", "A", "B"),
    make_update("e4", "B", "set_add", "s", "y"),
    *make_sync_pair("e5", "e6", "B", "A"),
    make_read("e7", "A", "set_value", "s"),
)
#: The A->B sync before A's update: B never sees "x".
REORDERED = (EVENTS[1], EVENTS[2], EVENTS[0], *EVENTS[3:])


def fresh_states(interleaving):
    """What a fresh engine on a fresh cluster reads after the replay."""
    return make_engine().replay(interleaving).states


def workload(cluster):
    a = cluster.rdl("A")
    a.set_add("s", "x")
    cluster.sync("A", "B")
    cluster.rdl("B").set_add("s", "y")
    cluster.sync("B", "A")
    a.set_value("s")


class TestLifetime:
    def test_unread_states_raise_after_the_next_replay(self):
        engine = make_engine()
        first = engine.replay(EVENTS)
        engine.replay(REORDERED)
        with pytest.raises(ReplayError, match="not read"):
            first.states

    def test_unread_states_raise_after_restore(self):
        engine = make_engine()
        outcome = engine.replay(EVENTS)
        engine.restore()
        with pytest.raises(ReplayError, match="not read"):
            outcome.states

    def test_read_states_outlive_later_replays(self):
        engine = make_engine()
        first = engine.replay(EVENTS).keep_states()
        states = first.states
        second = engine.replay(REORDERED)
        assert first.states is states
        both = {"s": frozenset({"x", "y"})}
        assert first.states == {"A": both, "B": both} == fresh_states(EVENTS)
        assert second.states == fresh_states(REORDERED) != first.states


class TestPickling:
    def test_pickle_carries_states_and_no_cluster(self):
        engine = make_engine()
        outcome = engine.replay(EVENTS, assertions=[lambda out: "always"])
        data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        engine.replay(REORDERED)
        copy = pickle.loads(data)
        assert b"repro.net" not in data and b"CRDTLibrary" not in data
        assert copy._cluster is None
        assert copy.states == fresh_states(EVENTS)
        assert copy.violations == ["always"]
        assert [res.event.event_id for res in copy.event_results] == [
            event.event_id for event in EVENTS
        ]

    def test_pickling_a_closed_unread_outcome_raises(self):
        engine = make_engine()
        outcome = engine.replay(EVENTS)
        engine.replay(REORDERED)
        with pytest.raises(ReplayError):
            pickle.dumps(outcome)


class TestCallersReadStatesFirst:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hunt_violating_outcome_keeps_its_states(self, workers):
        # The sanitizer replays after the serial hunt's violation, and the
        # engine replays again below: the kept outcome must not change.
        recorded = record_scenario(scenario("OrbitDB-2"))
        result = hunt(recorded, "erpi", workers=workers, sanitize=workers == 1)
        assert result.found
        recorded.engine.replay(recorded.events)
        reference = record_scenario(scenario("OrbitDB-2")).engine
        expected = reference.replay(result.violating.interleaving).states
        assert result.violating.states == expected

    def test_commit_sink_outcomes_keep_their_states(self):
        cluster = make_cluster()
        erpi = ErPi(cluster)
        erpi.start()
        workload(cluster)
        report = erpi.end(keep_outcomes=True)
        assert len(report.outcomes) > 1
        for outcome in report.outcomes:
            assert outcome.states == fresh_states(outcome.interleaving)

    def test_interactive_session_outcomes_keep_their_states(self):
        cluster = make_cluster()
        session = InteractiveSession(cluster)
        session.start()
        workload(cluster)
        report = session.explore(round_size=100, max_rounds=1)
        assert len(report.outcomes) > 1
        for outcome in report.outcomes:
            assert outcome.states == fresh_states(outcome.interleaving)

    def test_replay_fresh_outcomes_outlive_later_replays(self):
        # The sanitizer's memo reuses replay_fresh outcomes after replaying
        # other class members.
        engine = make_engine()
        fresh = engine.replay_fresh(EVENTS)
        engine.replay_fresh(REORDERED)
        engine.replay(REORDERED)
        engine.restore()
        assert fresh.states == fresh_states(EVENTS)
