"""Integration tests over the 12 Table-1 bug scenarios.

For every scenario: the workload records exactly the event count Table 1
reports, the recorded (happy-path) order never violates, ER-pi reproduces
the bug within the paper's 10K cap, and the *fixed* library survives the
same exploration cleanly (no false positives).
"""

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs import all_scenarios, scenario, scenario_names
from tests.decisions import committed

ALL_NAMES = scenario_names()

#: Table 1, columns (#Events, Status, Reason).
TABLE_1 = {
    "Roshi-1": (9, "closed", "misconception", 18),
    "Roshi-2": (10, "closed", "RDL issue", 11),
    "Roshi-3": (21, "closed", "misconception", 40),
    "OrbitDB-1": (12, "open", "-", 513),
    "OrbitDB-2": (8, "open", "-", 512),
    "OrbitDB-3": (15, "closed", "misuse", 1153),
    "OrbitDB-4": (18, "closed", "misconception", 583),
    "OrbitDB-5": (24, "closed", "misconception", 557),
    "ReplicaDB-1": (10, "closed", "misuse", 79),
    "ReplicaDB-2": (14, "closed", "misconception", 23),
    "Yorkie-1": (17, "open", "-", 676),
    "Yorkie-2": (22, "closed", "misconception", 663),
}


#: Replays ER-pi's production order takes to reproduce each bug, read from
#: the decision record (``tests/decisions.json``).  Pinned exactly: any
#: change to the stream's order, the pruners or a subject's behaviour that
#: moves a first violation shows here.
REPLAYS_TO_REPRODUCE = {
    name: committed(f"hunt/{name}/serial")["replays"] for name in ALL_NAMES
}

class TestRegistry:
    def test_all_twelve_scenarios_registered(self):
        assert ALL_NAMES == list(TABLE_1) == list(REPLAYS_TO_REPRODUCE)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            scenario("Roshi-99")

    def test_factories_return_fresh_instances(self):
        assert scenario("Roshi-1") is not scenario("Roshi-1")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_table1_metadata(self, name):
        sc = scenario(name)
        events, status, reason, issue = TABLE_1[name]
        assert sc.expected_events == events
        assert sc.status == status
        assert sc.reason == reason
        assert sc.issue == issue


class TestRecording:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_event_count_matches_table1(self, name):
        recorded = record_scenario(scenario(name))
        assert recorded.event_count == TABLE_1[name][0]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_recorded_order_is_safe(self, name):
        sc = scenario(name)
        recorded = record_scenario(sc)
        outcome = recorded.engine.replay(recorded.events, sc.make_assertions())
        assert not outcome.violated, outcome.violations
        assert not outcome.failed_ops, [r.error for r in outcome.failed_ops]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fixed_library_recorded_order_safe(self, name):
        sc = scenario(name)
        recorded = record_scenario(sc, fixed=True)
        outcome = recorded.engine.replay(recorded.events, sc.make_assertions())
        assert not outcome.violated


class TestReproduction:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_erpi_reproduces_within_cap(self, name):
        sc = scenario(name)
        recorded = record_scenario(sc)
        result = hunt(recorded, "erpi", cap=10_000)
        assert result.found, f"ER-pi failed to reproduce {name}"
        assert result.explored <= 10_000
        assert result.explored == REPLAYS_TO_REPRODUCE[name]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fixed_library_has_no_false_positives(self, name):
        sc = scenario(name)
        recorded = record_scenario(sc, fixed=True)
        result = hunt(recorded, "erpi", cap=400)
        assert not result.found, (
            f"fixed library flagged for {name}: "
            f"{result.violating and result.violating.violations}"
        )


class TestBaselineShape:
    """Spot-checks of the Figure-8a shape on the cheap scenarios (the full
    sweep lives in benchmarks/)."""

    def test_dfs_finds_shallow_bug(self):
        recorded = record_scenario(scenario("Roshi-1"))
        assert hunt(recorded, "dfs", cap=200).found

    def test_rand_finds_shallow_bug(self):
        recorded = record_scenario(scenario("Roshi-1"))
        assert hunt(recorded, "rand", cap=200).found

    def test_dfs_misses_deep_bug_in_small_cap(self):
        recorded = record_scenario(scenario("Roshi-3"))
        assert not hunt(recorded, "dfs", cap=500).found

    def test_rand_misses_gated_bug_in_small_cap(self):
        recorded = record_scenario(scenario("OrbitDB-5"))
        assert not hunt(recorded, "rand", cap=500).found

    def test_erpi_beats_dfs_on_roshi2(self):
        erpi = hunt(record_scenario(scenario("Roshi-2")), "erpi", cap=10_000)
        dfs = hunt(record_scenario(scenario("Roshi-2")), "dfs", cap=10_000)
        assert erpi.found and dfs.found
        assert erpi.explored < dfs.explored
