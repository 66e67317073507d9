"""Sharded enumeration equivalence, and work stealing under skew.

Sharded enumeration lets each worker flatten only its own shard of the
candidate stream (foreign positions are yielded as ``None`` placeholders
that consume an index but no flattening work).  The contract pinned here:
the sharded streams are a partition of ``candidates()`` — same length,
every position owned by exactly one worker, owned values identical — for
the ERPi fast path, the constraint-checked fault path and the generic
fallback wrapper alike; and full process hunts (DPOR + faults)
commit the same verdicts regardless of worker count or mid-hunt steals.
"""

import itertools

import pytest

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.coordinator import CoordinatedHuntExplorer
from repro.core.procpool import (
    PrefixShardRouter,
    ProcessParallelExplorer,
    ScenarioWorkerTask,
)

LIMIT = 240  # stream-prefix length compared per equivalence check


def plain_stack(name="Roshi-1"):
    recorded = record_scenario(scenario(name))
    return recorded, make_explorer(recorded, "erpi")


def faulted_stack(name="Roshi-CR"):
    """An explorer whose fault schedule carries order constraints, so the
    fast path must flatten for validity checks before routing."""
    recorded = record_scenario(scenario(name))
    compiled = recorded.scenario.fault_plan().compile(recorded.events)
    explorer = make_explorer(recorded, "erpi", events=compiled.events)
    explorer.order_constraints = compiled.order_constraints
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
            router = PrefixShardRouter(workers=workers, prefix_len=2)
            shards.append([
                None if il is None else ids(il)
                for il in itertools.islice(
                    explorer.sharded_candidates(router, widx), len(reference)
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
        router = PrefixShardRouter(workers=4, prefix_len=2)
        stream = list(explorer.sharded_candidates(router, 0))
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
        router = PrefixShardRouter(workers=4, prefix_len=2)
        owned = [
            il for il in explorer.sharded_candidates(router, 0)
            if il is not None
        ]
        assert 0 < len(owned) < total / 2
        assert metrics.counter("interleavings.generated") == (
            reference_metrics.counter("interleavings.generated")
        )


def process_hunt(name, workers, cap=150):
    """A process-backed DPOR+faults hunt at an explicit worker count
    (1 allowed, unlike the harness's serial shortcut)."""
    recorded = record_scenario(scenario(name))
    compiled = recorded.scenario.fault_plan().compile(recorded.events)
    explorer = make_explorer(recorded, "erpi", events=compiled.events, dpor=True)
    explorer.order_constraints = compiled.order_constraints
    task = ScenarioWorkerTask(
        scenario_name=name, mode="erpi", seed=0, faults=True, dpor=True,
    )
    pool = ProcessParallelExplorer(explorer, task, workers=workers, seed=0)
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


class TestWorkStealing:
    """Satellite: a trailing shard is stolen mid-hunt (via the lease
    fencing machinery) without changing a single committed verdict."""

    def steal_hunt(self, steal_margin, throttle):
        recorded = record_scenario(scenario("Roshi-1"))
        explorer = make_explorer(recorded, "erpi")
        pool = CoordinatedHuntExplorer(
            explorer,
            ScenarioWorkerTask(scenario_name="Roshi-1", mode="erpi", seed=0),
            workers=2,
            seed=0,
            lease_ttl_s=2.0,
            heartbeat_interval_s=0.05,
            backoff_base_s=0.01,
            steal_margin=steal_margin,
            throttle_s_by_slot=throttle,
        )
        result = pool.explore(
            recorded.engine, recorded.scenario.make_assertions(),
            cap=60, stop_on_violation=False,
        )
        return result, pool

    def test_steal_mid_hunt_preserves_verdicts(self):
        baseline, _ = self.steal_hunt(steal_margin=None, throttle=None)
        assert baseline.verdicts
        stolen, pool = self.steal_hunt(
            steal_margin=8, throttle={1: 0.02}
        )
        assert stolen.coordination["steals"] >= 1
        assert any(
            status == "stolen" for _, _, status in pool._lease_log
        )
        assert stolen.verdicts == baseline.verdicts
        assert stolen.explored == baseline.explored
        assert stolen.found == baseline.found

    def test_stealing_disabled_by_margin_none(self):
        result, pool = self.steal_hunt(steal_margin=None, throttle={1: 0.02})
        assert result.coordination["steals"] == 0
        assert not pool._stolen

    def test_each_slot_is_stolen_at_most_once(self):
        result, pool = self.steal_hunt(steal_margin=4, throttle={1: 0.03})
        assert result.coordination["steals"] == len(pool._stolen) <= 2
        stolen_events = [
            slot for slot, _, status in pool._lease_log if status == "stolen"
        ]
        assert len(stolen_events) == len(set(stolen_events))
