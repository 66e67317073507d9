"""Sharded enumeration equivalence and balanced ownership.

Sharded enumeration lets each worker flatten only its own positions of the
candidate stream (foreign positions are yielded as ``None`` placeholders
that consume an index but no flattening work).  The contract pinned here:
the sharded streams are a partition of ``candidates()`` — same length,
every position owned by exactly one worker, owned values identical — for
the ERPi fast path with and without fault order constraints (whose invalid
permutations the stream drops on unit indices, unflattened) and the generic
fallback wrapper alike; and full process hunts (DPOR + faults) commit the
same verdicts regardless of worker count, with every worker replaying
within one candidate of every other's share.
"""

import itertools

import pytest

from repro.bench.harness import HuntConfig, hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.procpool import ProcessParallelExplorer

LIMIT = 240  # stream-prefix length compared per equivalence check


def plain_stack(name="Roshi-1"):
    recorded = record_scenario(scenario(name))
    return recorded, make_explorer(recorded, "erpi")


def faulted_stack(name="Roshi-CR"):
    """An explorer whose fault schedule carries order constraints, which
    the fast path checks on unit indices before it assigns positions."""
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi", faults=True)
    assert explorer.order_constraints
    return recorded, explorer


def dpor_stack(name="Roshi-1"):
    """Stream-time pruners force the generic fallback wrapper."""
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi", dpor=True)
    assert explorer.pipeline.pruners
    return recorded, explorer


STACKS = {
    "fast-path": plain_stack,
    "fault-constraints": faulted_stack,
    "fallback-pruners": dpor_stack,
}


def ids(interleaving):
    return tuple(event.event_id for event in interleaving)


class TestShardPartitionEquivalence:
    @pytest.mark.parametrize("stack", sorted(STACKS))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_shards_partition_the_candidate_stream(self, stack, workers):
        _, reference_explorer = STACKS[stack]()
        reference = [
            ids(il)
            for il in itertools.islice(reference_explorer.candidates(), LIMIT)
        ]
        assert reference
        shards = []
        for widx in range(workers):
            _, explorer = STACKS[stack]()
            shards.append([
                None if il is None else ids(il)
                for il in itertools.islice(
                    explorer.sharded_candidates(workers, widx), len(reference)
                )
            ])
        for position, expected in enumerate(reference):
            owners = [
                widx for widx in range(workers)
                if shards[widx][position] is not None
            ]
            assert len(owners) == 1, (
                f"position {position} owned by {owners}"
            )
            assert shards[owners[0]][position] == expected

    def test_fast_path_stream_is_exhausted_at_the_same_point(self):
        """Foreign trailing positions still appear (as None): the sharded
        stream has exactly the length of ``candidates()``."""
        _, reference_explorer = plain_stack()
        length = sum(1 for _ in reference_explorer.candidates())
        _, explorer = plain_stack()
        stream = list(explorer.sharded_candidates(4, 0))
        assert len(stream) == length

    def test_fast_path_skips_foreign_flattening(self):
        """The optimisation itself: a 4-worker shard materialises well
        under half the stream, with identical generated accounting."""
        from repro.obs.metrics import MetricsRegistry

        recorded, reference_explorer = plain_stack()
        reference_metrics = MetricsRegistry()
        reference_explorer.metrics = reference_metrics
        total = sum(1 for _ in reference_explorer.candidates())

        _, explorer = plain_stack()
        metrics = MetricsRegistry()
        explorer.metrics = metrics
        owned = [
            il for il in explorer.sharded_candidates(4, 0)
            if il is not None
        ]
        assert 0 < len(owned) < total / 2
        assert metrics.counter("interleavings.generated") == (
            reference_metrics.counter("interleavings.generated")
        )

    def test_fault_constrained_shard_flattens_only_its_positions(self, monkeypatch):
        """Validity is decided on unit indices, so a worker flattens its own
        valid positions and nothing else, even with constraints armed."""
        from repro.core import explorers

        _, explorer = faulted_stack()
        assert not explorer.pipeline.pruners
        flattened = []
        flatten = explorers.flatten

        def counting_flatten(units):
            flattened.append(len(units))
            return flatten(units)

        monkeypatch.setattr(explorers, "flatten", counting_flatten)
        owned = [il for il in explorer.sharded_candidates(4, 0) if il is not None]
        assert owned
        assert len(flattened) == len(owned)


def process_hunt(name, workers, cap=150):
    """A process-backed DPOR+faults hunt at an explicit worker count
    (1 allowed, unlike the harness's serial shortcut)."""
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi", faults=True, dpor=True)
    task = HuntConfig(scenario=name, faults=True, dpor=True)
    pool = ProcessParallelExplorer(explorer, task, workers=workers)
    return pool.explore(
        recorded.engine, recorded.scenario.make_assertions(),
        cap=cap, stop_on_violation=False,
    )


class TestProcessHuntEquivalence:
    """Satellite: 1/2/4-worker process hunts with DPOR + faults enabled
    commit bit-for-bit identical verdicts, matching serial."""

    def test_worker_counts_and_serial_agree(self):
        serial = hunt(
            record_scenario(scenario("Roshi-CR")), "erpi",
            dpor=True, faults=True, cap=150, stop_on_violation=False,
        )
        results = {w: process_hunt("Roshi-CR", w) for w in (1, 2, 4)}
        baseline = results[1]
        assert baseline.verdicts
        assert baseline.found == serial.found
        assert baseline.explored == serial.explored
        assert [
            (q.interleaving, q.error_type) for q in baseline.quarantined
        ] == [(q.interleaving, q.error_type) for q in serial.quarantined]
        for w in (2, 4):
            assert results[w].verdicts == baseline.verdicts
            assert results[w].explored == baseline.explored
            assert results[w].found == baseline.found

    def test_partial_materialization_is_reported(self):
        result = process_hunt("Roshi-CR", 2)
        stats = result.worker_stats
        assert set(stats) == {0, 1}
        lengths = {s["yields"] for s in stats.values()}
        assert len(lengths) == 1, "all workers walk the full stream"
        total_yields = next(iter(lengths))
        for s in stats.values():
            assert 0 < s["materialized"] < total_yields
            assert s["ipc_bytes"] > 0
        assert sum(s["materialized"] for s in stats.values()) <= total_yields
        # Index-striped ownership: the workers' shares differ by at most
        # one candidate.
        materialized = [s["materialized"] for s in stats.values()]
        assert max(materialized) - min(materialized) <= 1, materialized
