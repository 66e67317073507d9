"""Sharded enumeration equivalence and balanced ownership.

Sharded enumeration lets each worker flatten only its own positions of the
candidate stream (foreign positions are yielded as ``None`` placeholders
that consume an index but no flattening work).  The contract pinned here:
the sharded streams are a partition of ``candidates()`` — same length,
every position owned by exactly one worker, owned values identical — with
and without fault order constraints (whose invalid permutations the stream
drops on unit indices, unflattened) and with DPOR pruning (which keys unit
indices, so a pruned candidate is never flattened either); and full
process hunts (DPOR + faults) commit the same verdicts regardless of
worker count, with every worker replaying within one candidate of every
other's share.
"""

import itertools

import pytest

from repro.bench.harness import HuntConfig, hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.procpool import ProcessParallelExplorer
from tests.decisions import committed

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
    """A bound DPOR pruner judges every candidate of every shard."""
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi", dpor=True)
    explorer.bind_semantic((recorded.engine,), ())
    assert [pruner.name for pruner in explorer.pipeline.pruners] == ["dpor"]
    return recorded, explorer


STACKS = {
    "fast-path": plain_stack,
    "fault-constraints": faulted_stack,
    "dpor-pruner": dpor_stack,
}


def count_flattens(monkeypatch):
    """Every unit permutation turned into events, by the explorers or by
    ``interleaving_stream``, as its unit count."""
    from repro.core import explorers, interleavings

    flattened = []
    flatten = interleavings.flatten

    def counting_flatten(units):
        flattened.append(len(units))
        return flatten(units)

    for module in (explorers, interleavings):
        monkeypatch.setattr(module, "flatten", counting_flatten)
    return flattened


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
        _, explorer = faulted_stack()
        assert not explorer.pipeline.pruners
        flattened = count_flattens(monkeypatch)
        owned = [il for il in explorer.sharded_candidates(4, 0) if il is not None]
        assert owned
        assert len(flattened) == len(owned)


class TestPrunedCandidatesStayUnflattened:
    """DPOR keys unit permutations, so only survivors become events."""

    def test_dpor_hunt_flattens_only_its_replays(self, monkeypatch):
        flattened = count_flattens(monkeypatch)
        result = hunt(record_scenario(scenario("OrbitDB-4")), "erpi", dpor=True)
        assert result.found
        assert result.explored == committed("hunt/OrbitDB-4/dpor")["replays"]
        assert result.pruning_stats["dpor"] > 0
        assert len(flattened) == result.explored

    def test_dpor_shard_flattens_only_its_own_survivors(self, monkeypatch):
        _, reference_explorer = dpor_stack()
        survivors = sum(1 for _ in reference_explorer.candidates())
        dpor = reference_explorer.pipeline.pruners[0]
        assert dpor.stats.pruned > 0
        _, explorer = dpor_stack()
        flattened = count_flattens(monkeypatch)
        owned = [il for il in explorer.sharded_candidates(2, 0) if il is not None]
        assert len(owned) == (survivors + 1) // 2
        assert len(flattened) == len(owned)
        assert explorer.pipeline.pruners[0].stats.pruned == dpor.stats.pruned


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
