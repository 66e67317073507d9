"""End-to-end fault hunts over the seeded crash-recovery scenarios.

The acceptance bar for the fault subsystem: every seeded scenario is found
by the ER-pi explorer with its fault plan compiled in; the *fixed* library
survives the same exploration; and without faults none of the workloads
violates (the bugs genuinely need the crash).
"""

import pytest

from repro.bench.harness import hunt, record_scenario
from repro.bugs import fault_scenario_names, fault_scenarios, scenario
from repro.core.events import EventKind
from tests.decisions import committed

CR_NAMES = ["Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR"]

#: Replays to the first violation and the violating schedule's event ids,
#: per scenario, with its fault plan compiled in (from the decision record,
#: ``tests/decisions.json``).
FIRST_VIOLATION = {
    name: (
        committed(f"hunt/{name}/faults")["replays"],
        " ".join(committed(f"hunt/{name}/faults")["witness"]),
    )
    for name in CR_NAMES
}

#: Fixed-build sweeps at cap 700: the three small spaces are exhausted.
FIXED_SWEEP = {
    name: committed(f"hunt/{name}/faults+fixed")["replays"] for name in CR_NAMES
}


def test_fault_scenario_registry():
    assert fault_scenario_names() == CR_NAMES
    for sc in fault_scenarios():
        plan = sc.fault_plan()
        assert plan is not None and not plan.is_empty()
        assert sc.reason == "crash-recovery"


@pytest.mark.parametrize("name", CR_NAMES)
def test_erpi_finds_the_bug_with_faults(name):
    sc = scenario(name)
    result = hunt(record_scenario(sc), "erpi", cap=10_000, faults=True)
    assert result.found, f"{name} not reproduced within the cap"
    assert not result.quarantined
    assert result.fault_events >= 2
    # The violating schedule really contains the injected faults.
    kinds = {event.kind for event in result.violating.interleaving}
    assert EventKind.CRASH in kinds
    witness = " ".join(event.event_id for event in result.violating.interleaving)
    assert (result.explored, witness) == FIRST_VIOLATION[name]


@pytest.mark.parametrize("name", CR_NAMES)
def test_fixed_library_survives_the_fault_exploration(name):
    sc = scenario(name)
    result = hunt(
        record_scenario(sc, fixed=True), "erpi", cap=700, faults=True
    )
    assert not result.found, (
        f"{name} fixed build violated: " f"{result.violating and result.violating.violations}"
    )
    assert not result.quarantined
    assert result.explored == FIXED_SWEEP[name]


@pytest.mark.parametrize("name", CR_NAMES)
def test_bug_needs_the_crash(name):
    sc = scenario(name)
    result = hunt(record_scenario(sc), "erpi", cap=700)
    assert not result.found, f"{name} violated without any fault injected"


def test_hunt_without_declared_plan_rejected():
    sc = scenario("Roshi-1")
    with pytest.raises(ValueError, match="no fault plan"):
        hunt(record_scenario(sc), "erpi", faults=True)


def test_sanitizer_covers_fault_bearing_classes():
    # Roshi-CR2 declares e1/e2 independent, so the independence pruner
    # merges fault-bearing schedules; the differential sanitizer replays
    # representative + skipped members of those classes and they must agree.
    sc = scenario("Roshi-CR2")
    result = hunt(
        record_scenario(sc),
        "erpi",
        cap=200,
        faults=True,
        sanitize=True,
        stop_on_violation=False,
    )
    report = result.sanitizer
    assert report.classes_checked > 0
    assert report.ok, f"divergences: {report.divergences}"


def test_dfs_and_random_measure_against_the_fault_arm():
    # The baselines run over the same fault-compiled schedule; DFS's
    # tail-first enumeration reaches Roshi-CR's small space easily, which
    # is exactly what makes it a baseline rather than a strawman.
    sc = scenario("Roshi-CR")
    for mode in ("dfs", "rand"):
        result = hunt(record_scenario(sc), mode, cap=2_000, faults=True)
        assert result.mode.startswith(mode) or result.explored > 0
