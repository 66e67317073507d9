"""Equivalence properties of the replay paths.

Parallel exploration is a pure optimisation: it must never change *what* a
hunt observes, only how fast it runs.  These tests pin that down
property-style:

* a process-parallel hunt commits outcomes in candidate order, so its
  reported first violation (and explored count) match a serial hunt;
* the relocation order's seen-set visits every permutation once.
"""

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs.registry import all_scenarios
from repro.core.events import make_read, make_sync_pair, make_update
from repro.core.interleavings import group_events, interleaving_stream, lehmer_rank


def scenario_by_name(name):
    for scenario in all_scenarios():
        if scenario.name == name:
            return scenario
    raise LookupError(name)


class TestParallelMatchesSerial:
    @pytest.mark.parametrize(
        "name", [scenario.name for scenario in all_scenarios()]
    )
    def test_first_violation_identical_to_serial(self, name):
        scenario = scenario_by_name(name)
        serial = hunt(record_scenario(scenario), "erpi")
        parallel = hunt(record_scenario(scenario), "erpi", workers=4)
        assert parallel.found == serial.found
        assert parallel.explored == serial.explored
        if serial.found:
            assert parallel.violating is not None
            assert [
                event.event_id for event in parallel.violating.interleaving
            ] == [event.event_id for event in serial.violating.interleaving]
            assert parallel.violating.violations == serial.violating.violations


class TestLehmerRankSeenSet:
    def test_rank_is_bijective_over_small_permutations(self):
        import itertools
        import math

        for n in range(1, 6):
            ranks = {
                lehmer_rank(perm) for perm in itertools.permutations(range(n))
            }
            assert ranks == set(range(math.factorial(n)))

    def test_relocation_order_visits_unique_permutations(self):
        units = group_events(self.example_events()).units
        seen = set()
        for candidate in interleaving_stream(units, "relocation"):
            ids = tuple(event.event_id for event in candidate)
            assert ids not in seen
            seen.add(ids)

    @staticmethod
    def example_events():
        return (
            make_update("e1", "A", "set_add", "s", "x"),
            *make_sync_pair("e2", "e3", "A", "B"),
            make_update("e4", "B", "set_add", "s", "y"),
            make_read("e5", "A", "set_value", "s"),
        )
