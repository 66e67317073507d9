"""ReplicaDB-2's ``sink_consistent`` predicate, made in one pass.

The four-pass predicate (``reads()``, a positions dict and two ``max``
scans) is kept here as the reference.  The one-pass predicate must give its
verdict on every candidate of the buggy hunt (its replays to the first
violation, from the decision record) and on as many of the fixed build's.
"""

import itertools

import pytest

from repro.bench.harness import make_explorer, record_scenario
from repro.bugs import scenario
from tests.decisions import committed

CANDIDATES = committed("hunt/ReplicaDB-2/serial")["replays"]


def reference_sink_consistent(outcome):
    reads = outcome.reads()
    verdict = reads.get("e14")
    if verdict is None:
        return True
    positions = {
        res.event.event_id: index for index, res in enumerate(outcome.event_results)
    }
    last_transfer = max(
        (
            index
            for index, res in enumerate(outcome.event_results)
            if res.event.replica_id == "A" and res.event.op_name == "replicate"
        ),
        default=-1,
    )
    last_source_change = max(
        (
            index
            for index, res in enumerate(outcome.event_results)
            if res.event.replica_id == "A"
            and (res.event.is_sync or res.event.op_name.startswith("source_"))
        ),
        default=-1,
    )
    probe = positions.get("e14", -1)
    if probe < last_transfer or last_transfer < last_source_change:
        return True
    return bool(verdict)


@pytest.mark.parametrize("fixed", [False, True], ids=["buggy", "fixed"])
def test_one_pass_predicate_gives_the_reference_verdict(fixed):
    recorded = record_scenario(scenario("ReplicaDB-2"), fixed=fixed)
    (check,) = recorded.scenario.make_assertions()
    candidates = itertools.islice(
        make_explorer(recorded, "erpi").candidates(), CANDIDATES
    )
    verdicts = {True: 0, False: 0}
    replays = 0
    for interleaving in candidates:
        outcome = recorded.engine.replay(interleaving)
        expected = reference_sink_consistent(outcome)
        assert (check(outcome) is None) == expected, [
            event.event_id for event in interleaving
        ]
        verdicts[expected] += 1
        replays += 1
    assert replays == CANDIDATES
    # The buggy build's last candidate is its first violation.
    assert verdicts[False] == (0 if fixed else 1)
