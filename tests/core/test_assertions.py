"""Tests for the assertion library (per-interleaving + cross-interleaving)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.core.assertions import (
    FirstValueStability,
    StableReadAcrossInterleavings,
    StableStateAcrossInterleavings,
    assert_convergence,
    assert_convergence_when_settled,
    assert_no_duplicates,
    assert_no_failed_op_matching,
    assert_no_failed_ops,
    assert_predicate,
    assert_read_equals,
    assert_state_equals,
    assert_unique_ids,
    delivery_knowledge,
    is_settled,
)
from repro.core.events import (
    Event,
    EventKind,
    make_crash,
    make_heal,
    make_partition,
    make_read,
    make_recover,
    make_sync_pair,
    make_update,
)
from repro.core.pruning.replica_specific import _pair_positions
from repro.core.replay import EventResult, InterleavingOutcome


def outcome_with(states=None, interleaving=(), results=None, duration=0.0):
    return InterleavingOutcome(
        interleaving=tuple(interleaving),
        event_results=list(results or []),
        states=states or {},
        violations=[],
        duration_s=duration,
    )


def ok_result(event, value=None):
    return EventResult(event=event, lamport=1, ok=True, result=value)


def failed_result(event, error):
    return EventResult(event=event, lamport=1, ok=False, error=error)


class TestBasicAssertions:
    def test_convergence_pass_and_fail(self):
        check = assert_convergence(["A", "B"])
        assert check(outcome_with(states={"A": {"x"}, "B": {"x"}})) is None
        assert check(outcome_with(states={"A": {"x"}, "B": {"y"}})) is not None

    def test_convergence_freezes_unhashable_states(self):
        check = assert_convergence(["A", "B"])
        same = {"k": [1, {"n": 2}]}
        assert check(outcome_with(states={"A": same, "B": {"k": [1, {"n": 2}]}})) is None

    def test_state_equals(self):
        check = assert_state_equals("A", {"k": 1})
        assert check(outcome_with(states={"A": {"k": 1}})) is None
        assert check(outcome_with(states={"A": {"k": 2}})) is not None

    def test_read_equals(self):
        event = make_read("e1", "A", "select")
        check = assert_read_equals("e1", ["x"])
        good = outcome_with(results=[ok_result(event, ["x"])])
        bad = outcome_with(results=[ok_result(event, ["y"])])
        missing = outcome_with()
        assert check(good) is None
        assert check(bad) is not None
        assert check(missing) is not None

    def test_no_duplicates(self):
        check = assert_no_duplicates(lambda out: out.states["A"], "items")
        assert check(outcome_with(states={"A": ["x", "y"]})) is None
        message = check(outcome_with(states={"A": ["x", "x"]}))
        assert "duplicates" in message

    def test_unique_ids(self):
        check = assert_unique_ids(lambda out: out.states["A"], "ids")
        assert check(outcome_with(states={"A": [1, 2]})) is None
        assert check(outcome_with(states={"A": [1, 1]})) is not None

    def test_no_failed_ops(self):
        event = make_update("e1", "A", "op")
        check = assert_no_failed_ops()
        assert check(outcome_with(results=[ok_result(event)])) is None
        assert check(outcome_with(results=[failed_result(event, "boom")])) is not None

    def test_no_failed_op_matching_filters_by_substring(self):
        event = make_update("e1", "A", "op")
        check = assert_no_failed_op_matching("OutOfMemory")
        unrelated = outcome_with(results=[failed_result(event, "access denied")])
        relevant = outcome_with(results=[failed_result(event, "OutOfMemoryError!")])
        assert check(unrelated) is None
        assert check(relevant) is not None

    def test_predicate_wrapper(self):
        check = assert_predicate(lambda out: bool(out.states), "empty!")
        assert check(outcome_with(states={"A": 1})) is None
        assert check(outcome_with()) == "empty!"


class TestSettledness:
    def make_interleaving(self, sync_after_update=True):
        update = make_update("e1", "A", "op")
        req, execute = make_sync_pair("e2", "e3", "A", "B")
        if sync_after_update:
            return (update, req, execute)
        return (req, execute, update)

    def test_delivery_knowledge_tracks_payload_snapshot(self):
        il = self.make_interleaving(sync_after_update=True)
        knowledge = delivery_knowledge(outcome_with(interleaving=il))
        assert knowledge["B"] == {"e1"}

    def test_update_after_request_not_delivered(self):
        il = self.make_interleaving(sync_after_update=False)
        knowledge = delivery_knowledge(outcome_with(interleaving=il))
        assert knowledge.get("B", set()) == set()

    def test_is_settled(self):
        settled = outcome_with(interleaving=self.make_interleaving(True))
        unsettled = outcome_with(interleaving=self.make_interleaving(False))
        assert is_settled(settled, ["A", "B"])
        assert not is_settled(unsettled, ["A", "B"])

    def test_relay_chains_count(self):
        update = make_update("e1", "C", "op")
        req_cb, exec_cb = make_sync_pair("e2", "e3", "C", "B")
        req_ba, exec_ba = make_sync_pair("e4", "e5", "B", "A")
        il = (update, req_cb, exec_cb, req_ba, exec_ba)
        assert is_settled(outcome_with(interleaving=il), ["A", "B", "C"])

    def test_convergence_when_settled_gates(self):
        check = assert_convergence_when_settled(["A", "B"])
        diverged = {"A": {"x"}, "B": set()}
        unsettled = outcome_with(
            states=diverged, interleaving=self.make_interleaving(False)
        )
        settled = outcome_with(
            states=diverged, interleaving=self.make_interleaving(True)
        )
        assert check(unsettled) is None          # vacuous: sync undelivered
        assert check(settled) is not None        # real divergence


def reference_delivery_knowledge(outcome):
    """The set-based settledness simulation, kept as the reference for the
    bitmask one: requests paired to executions by position, one set copy
    per snapshot."""
    interleaving = outcome.interleaving
    pairs = _pair_positions(interleaving)
    knowledge, snapshots, down, cut = {}, {}, set(), set()
    for position, event in enumerate(interleaving):
        kind = event.kind
        if kind == EventKind.CRASH:
            down.add(event.replica_id)
        elif kind == EventKind.RECOVER:
            down.discard(event.replica_id)
        elif kind == EventKind.PARTITION:
            cut.add(frozenset((event.from_replica, event.to_replica)))
        elif kind == EventKind.HEAL:
            cut.discard(frozenset((event.from_replica, event.to_replica)))
        elif kind == EventKind.UPDATE:
            if event.replica_id not in down:
                knowledge.setdefault(event.replica_id, set()).add(event.event_id)
        elif kind == EventKind.SYNC_REQ:
            if event.replica_id in down:
                continue
            if frozenset((event.from_replica, event.to_replica)) in cut:
                continue
            snapshots[position] = set(knowledge.get(event.replica_id, set()))
        elif kind == EventKind.EXEC_SYNC:
            if event.replica_id in down:
                continue
            req_position = pairs.get(position, -1)
            if req_position >= 0:
                received = snapshots.get(req_position, set())
                knowledge.setdefault(event.replica_id, set()).update(received)
    return knowledge


def reference_is_settled(outcome, replica_ids):
    knowledge = reference_delivery_knowledge(outcome)
    effective = set()
    for known in knowledge.values():
        effective |= known
    return all(knowledge.get(rid, set()) >= effective for rid in replica_ids)


def assert_matches_reference(interleaving, replica_ids):
    outcome = outcome_with(interleaving=interleaving)
    knowledge = delivery_knowledge(outcome)
    assert knowledge == reference_delivery_knowledge(outcome)
    settled = is_settled(outcome, replica_ids)
    assert settled == reference_is_settled(outcome, replica_ids)
    return knowledge, settled


SETTLEDNESS_CANDIDATES = 400
SETTLEDNESS_CASES = [(name, False) for name in scenario_names()] + [
    (name, True) for name in fault_scenario_names()
]


class TestSettlednessMatchesTheSetReference:
    """The bitmask simulation must give the set-based one's knowledge and
    verdict on every schedule the explorers produce and on random ones."""

    @pytest.mark.parametrize("mode", ["erpi", "dfs", "rand"])
    @pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
    @pytest.mark.parametrize(
        "name,faults", SETTLEDNESS_CASES, ids=[name for name, _ in SETTLEDNESS_CASES]
    )
    def test_first_candidates_of_every_scenario(self, name, faults, fixed, mode):
        recorded = record_scenario(scenario(name), fixed=fixed)
        explorer = make_explorer(recorded, mode, faults=faults)
        replica_ids = recorded.engine.cluster.replica_ids()
        candidates = list(
            itertools.islice(explorer.candidates(), SETTLEDNESS_CANDIDATES)
        )
        informed = 0
        for interleaving in candidates:
            knowledge, _ = assert_matches_reference(interleaving, replica_ids)
            informed += bool(knowledge)
        # Schedules with no effective update at all would compare nothing.
        assert informed > len(candidates) // 2

    @pytest.mark.parametrize(
        "interleaving,expected,settled",
        [
            pytest.param(
                (
                    make_update("e1", "A", "op"),
                    make_crash("f1", "A"),
                    *make_sync_pair("e2", "e3", "A", "B"),
                ),
                {"A": {"e1"}, "B": set()},
                False,
                id="crashed-sender",
            ),
            pytest.param(
                (
                    make_update("e1", "A", "op"),
                    make_sync_pair("e2", "e3", "A", "B")[0],
                    make_crash("f1", "B"),
                    make_sync_pair("e2", "e3", "A", "B")[1],
                    make_recover("f2", "B"),
                ),
                {"A": {"e1"}},
                False,
                id="crashed-receiver",
            ),
            pytest.param(
                (
                    make_update("e1", "A", "op"),
                    make_partition("f1", "A", "B"),
                    *make_sync_pair("e2", "e3", "A", "B"),
                    make_heal("f2", "A", "B"),
                    *make_sync_pair("e4", "e5", "A", "B"),
                ),
                {"A": {"e1"}, "B": {"e1"}},
                True,
                id="cut-then-healed",
            ),
            pytest.param(
                (
                    make_update("e1", "A", "op"),
                    make_sync_pair("e2", "e3", "A", "B")[1],
                    make_sync_pair("e2", "e3", "A", "B")[0],
                ),
                {"A": {"e1"}},
                False,
                id="exec-with-no-request",
            ),
            pytest.param(
                (
                    make_update("e1", "A", "op"),
                    make_sync_pair("e2", "e3", "A", "B")[0],
                    make_update("e4", "A", "op"),
                    make_sync_pair("e5", "e6", "A", "B")[0],
                    make_sync_pair("e2", "e3", "A", "B")[1],
                    make_read("e7", "B", "value"),
                ),
                {"A": {"e1", "e4"}, "B": {"e1"}},
                False,
                id="two-requests-in-flight",
            ),
        ],
    )
    def test_fault_and_channel_cases(self, interleaving, expected, settled):
        knowledge, verdict = assert_matches_reference(interleaving, ["A", "B"])
        assert knowledge == expected
        assert verdict is settled

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_schedules_on_three_replicas(self, data):
        interleaving = data.draw(random_schedules())
        assert_matches_reference(interleaving, ["A", "B", "C"])


REPLICAS = ("A", "B", "C")


@st.composite
def random_schedules(draw):
    """Up to 14 events of all eight kinds on up to three replicas.  Syncs,
    crashes and cuts are drawn independently, so a schedule may crash a
    sender or a receiver, heal a link it never cut, execute with no request
    pending, or put two requests in flight on one channel."""
    replicas = REPLICAS[: draw(st.integers(min_value=1, max_value=3))]
    replica = st.sampled_from(replicas)
    events = []
    for index in range(draw(st.integers(min_value=0, max_value=14))):
        event_id = f"e{index}"
        kind = draw(st.sampled_from(list(EventKind)))
        if kind in (EventKind.UPDATE, EventKind.READ, EventKind.CRASH, EventKind.RECOVER):
            events.append(Event(event_id, draw(replica), kind, kind.value))
            continue
        sender, receiver = draw(replica), draw(replica)
        at = receiver if kind is EventKind.EXEC_SYNC else sender
        events.append(Event(event_id, at, kind, kind.value, (), (), sender, receiver))
    return tuple(events)


class TestCrossInterleavingChecks:
    def test_stable_state(self):
        check = StableStateAcrossInterleavings("A")
        same = [outcome_with(states={"A": 1}), outcome_with(states={"A": 1})]
        different = [outcome_with(states={"A": 1}), outcome_with(states={"A": 2})]
        assert check.evaluate(same) is None
        assert check.evaluate(different) is not None

    def test_stable_read(self):
        event = make_read("e1", "A", "select")
        check = StableReadAcrossInterleavings("e1")
        same = [
            outcome_with(results=[ok_result(event, ["x"])]),
            outcome_with(results=[ok_result(event, ["x"])]),
        ]
        different = [
            outcome_with(results=[ok_result(event, ["x"])]),
            outcome_with(results=[ok_result(event, ["y"])]),
        ]
        assert check.evaluate(same) is None
        assert check.evaluate(different) is not None

    def test_stable_read_ignores_missing(self):
        event = make_read("e1", "A", "select")
        check = StableReadAcrossInterleavings("e1")
        outcomes = [outcome_with(), outcome_with(results=[ok_result(event, 1)])]
        assert check.evaluate(outcomes) is None

    def test_first_value_stability(self):
        check = FirstValueStability(lambda out: out.states.get("A"))
        assert check(outcome_with(states={"A": 1})) is None  # pins reference
        assert check(outcome_with(states={"A": 1})) is None
        assert check(outcome_with(states={"A": 2})) is not None
        check.reset()
        assert check(outcome_with(states={"A": 2})) is None  # new reference
