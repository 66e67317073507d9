"""Replay determinism from the checkpoint.

Every replay restores the cluster baseline and re-executes the whole
interleaving, so a replay is a pure function of its interleaving.  A replay
that leaks into the baseline (state that survives the restore, a snapshot
mutated in place, a partition or a crashed host left behind) breaks that.
Each of the first candidates of every scenario's ER-π stream is replayed
twice, with other replays in between, and both replays must agree on every
replica's canonical-state digest, every event's ok/error result and the
verdict.
"""

import itertools

import pytest

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs.registry import fault_scenario_names, scenario, scenario_names
from repro.statehash import state_digest

CANDIDATES = 200

#: (scenario, compile its fault plan): the crash-recovery scenarios run
#: with theirs, so crashes, recoveries and durable snapshots replay too.
CASES = [(name, False) for name in scenario_names()] + [
    (name, True) for name in fault_scenario_names()
]


def first_candidates(recorded, faults):
    explorer = make_explorer(recorded, "erpi", faults=faults)
    return list(itertools.islice(explorer.candidates(), CANDIDATES))


def fingerprint(engine, interleaving, assertions):
    outcome = engine.replay(interleaving, assertions)
    cluster = engine.cluster
    return (
        {
            rid: state_digest(cluster.rdl(rid).canonical_state())
            for rid in cluster.replica_ids()
        },
        [(result.ok, result.error) for result in outcome.event_results],
        outcome.violations,
    )


@pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
@pytest.mark.parametrize("name,faults", CASES, ids=[name for name, _ in CASES])
def test_replay_twice_from_checkpoint_agrees(name, faults, fixed):
    recorded = record_scenario(scenario(name), fixed=fixed)
    candidates = first_candidates(recorded, faults)
    assert len(candidates) > 1
    engine = recorded.engine
    assertions = recorded.scenario.make_assertions()
    # The second pass runs in reverse, so every candidate's second replay
    # follows a different replay than its first did.
    first = [fingerprint(engine, c, assertions) for c in candidates]
    second = [fingerprint(engine, c, assertions) for c in reversed(candidates)]
    for index, (one, two) in enumerate(zip(first, reversed(second))):
        assert one == two, f"{name}: candidate {index} replayed differently"
