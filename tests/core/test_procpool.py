"""The shared-nothing multiprocess exploration backend.

The process pool is a pure optimisation over the serial explore loop: the
committed results must be bit-for-bit a serial run's, regardless of how
many workers the candidate stream is sharded across.  These tests pin
that down, plus the failure-path contract: a worker that dies mid-run
surfaces as a quarantined, ``crashed`` result (and a nonzero CLI exit),
never as a hang.
"""

import os

import pytest

from repro.bench.harness import hunt, make_explorer, record_scenario
from repro.bugs.registry import scenario
from repro.core.explorers import Explorer
from repro.core.interleavings import group_events, interleaving_stream
from repro.core.procpool import (
    CallableWorkerTask,
    ProcessParallelExplorer,
    QuietWorkerDetector,
    ScenarioWorkerTask,
)
from repro.obs.metrics import MetricsRegistry


def run_process_hunt(name, workers, cap=60, metrics=None, start_method=None):
    """One process-backed hunt with an explicit worker count (1 allowed)."""
    recorded = record_scenario(scenario(name))
    explorer = make_explorer(recorded, "erpi")
    if metrics is not None:
        explorer.metrics = metrics
        recorded.engine.metrics = metrics
    pool = ProcessParallelExplorer(
        explorer,
        ScenarioWorkerTask(scenario_name=name, mode="erpi", seed=0),
        workers=workers,
        seed=0,
        start_method=start_method,
    )
    return pool.explore(
        recorded.engine,
        recorded.scenario.make_assertions(),
        cap=cap,
        stop_on_violation=False,
    )


class TestShardMergeEquivalence:
    def test_worker_counts_agree_bit_for_bit(self):
        """Satellite: seeded 1/2/4-worker runs commit identical verdicts."""
        results = {w: run_process_hunt("Roshi-1", w) for w in (1, 2, 4)}
        baseline = results[1]
        assert baseline.verdicts, "process backend must fill the verdict map"
        assert "violation" in baseline.verdicts.values()
        for w in (2, 4):
            assert results[w].verdicts == baseline.verdicts
            assert results[w].explored == baseline.explored
            assert results[w].found == baseline.found
            assert [q.interleaving for q in results[w].quarantined] == [
                q.interleaving for q in baseline.quarantined
            ]

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_metrics_identity_after_shard_merge(self, workers):
        metrics = MetricsRegistry()
        result = run_process_hunt("Roshi-2", workers, metrics=metrics)
        assert metrics.consistent(), metrics.counters_with_prefix("interleavings")
        assert metrics.counter("interleavings.replayed") == result.explored - len(
            result.quarantined
        )
        assert metrics.counter("interleavings.generated") >= result.explored

    def test_quarantine_sets_match_serial(self):
        """Fault-plan quarantines survive the shard merge unchanged."""
        serial = hunt(
            record_scenario(scenario("Roshi-CR")), "erpi", faults=True, cap=200
        )
        for workers in (2, 4):
            parallel = hunt(
                record_scenario(scenario("Roshi-CR")),
                "erpi",
                faults=True,
                cap=200,
                workers=workers,
                parallel_backend="process",
            )
            assert parallel.found == serial.found
            assert parallel.explored == serial.explored
            assert [
                (q.interleaving, q.error_type) for q in parallel.quarantined
            ] == [(q.interleaving, q.error_type) for q in serial.quarantined]

    def test_serial_and_parallel_hunts_agree(self):
        """A parallel hunt commits the exact serial result: the same
        explored count and the same first witness."""
        sc = scenario("OrbitDB-2")
        serial = hunt(record_scenario(sc), "erpi", cap=30)
        parallel = hunt(record_scenario(sc), "erpi", cap=30, workers=3)
        assert parallel.found == serial.found
        assert parallel.explored == serial.explored
        if serial.found:
            serial_ids = [e.event_id for e in serial.violating.interleaving]
            parallel_ids = [e.event_id for e in parallel.violating.interleaving]
            assert parallel_ids == serial_ids

    def test_spawn_start_method(self):
        """The bootstrap captures no module state: spawn workers agree too."""
        forked = run_process_hunt("Roshi-1", 2, cap=30)
        spawned = run_process_hunt("Roshi-1", 2, cap=30, start_method="spawn")
        assert spawned.verdicts == forked.verdicts
        assert spawned.explored == forked.explored


class _FakeClock:
    """Deterministic monotonic clock for the dead-worker grace window."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestQuietWorkerDetector:
    """Satellite: deterministic dead-worker detection on an injected clock.

    Previously the grace window was timed with bare ``time.monotonic()``
    reads, so neither the window nor the slow-CI flake it guards against (a
    busy worker misdeclared crashed while the parent was descheduled) could
    be reproduced in a test.
    """

    def test_crash_declared_only_after_sustained_quiet(self):
        clock = _FakeClock()
        detector = QuietWorkerDetector(grace_s=0.5, clock=clock)
        assert not detector.suspect(1)  # first sighting starts the window
        clock.advance(0.49)
        assert not detector.suspect(1)
        clock.advance(0.02)
        assert detector.suspect(1)

    def test_activity_voids_every_suspicion(self):
        clock = _FakeClock()
        detector = QuietWorkerDetector(grace_s=0.5, clock=clock)
        detector.suspect(1)
        clock.advance(0.4)
        detector.activity()  # a frame arrived: the pool is not wedged
        clock.advance(0.2)
        # The window restarts from the re-sighting, not the first one.
        assert not detector.suspect(1)
        clock.advance(0.5)
        assert detector.suspect(1)

    def test_suspects_are_tracked_per_worker(self):
        clock = _FakeClock()
        detector = QuietWorkerDetector(grace_s=0.5, clock=clock)
        detector.suspect(1)
        clock.advance(0.3)
        detector.suspect(2)
        clock.advance(0.3)
        assert detector.suspect(1)  # quiet for 0.6s
        assert not detector.suspect(2)  # quiet for only 0.3s

    def test_zero_grace_declares_immediately(self):
        detector = QuietWorkerDetector(grace_s=0.0, clock=_FakeClock())
        assert detector.suspect(3)


# ---------------------------------------------------------------- crash path


class _ExitingStreamExplorer(Explorer):
    """Yields a few candidates, then kills the whole process (no flush)."""

    mode = "crash-stream"

    def __init__(self, events, candidates, exit_after):
        super().__init__(events)
        self._candidates = candidates
        self._exit_after = exit_after

    def candidates(self):
        for index, candidate in enumerate(self._candidates):
            if index >= self._exit_after:
                os._exit(13)
            yield candidate


def crashing_stack(exit_after):
    """Module-level factory (picklable by name) for CallableWorkerTask."""
    recorded = record_scenario(scenario("Roshi-1"))
    units = group_events(recorded.events).units
    candidates = list(interleaving_stream(units, "sjt", limit=40))
    explorer = _ExitingStreamExplorer(recorded.events, candidates, exit_after)
    return explorer, recorded.engine, ()


class TestWorkerCrash:
    def test_dead_worker_quarantines_instead_of_hanging(self):
        recorded = record_scenario(scenario("Roshi-1"))
        explorer = make_explorer(recorded, "erpi")
        pool = ProcessParallelExplorer(
            explorer,
            CallableWorkerTask(crashing_stack, (5,)),
            workers=2,
            shutdown_timeout_s=5,
        )
        result = pool.explore(
            recorded.engine, (), cap=40, stop_on_violation=False
        )
        assert result.crashed
        assert not result.found
        assert any(q.error_type == "WorkerCrashed" for q in result.quarantined)
        for proc in pool._procs:
            assert not proc.is_alive()

    def test_crashed_hunt_exits_nonzero(self, capsys):
        """CLI contract: a crashed, unreproduced hunt reports failure."""
        import unittest.mock as mock

        from repro import cli
        from repro.core.explorers import ExplorationResult
        from repro.faults.quarantine import QuarantinedReplay

        crashed_result = ExplorationResult(
            mode="erpi+proc2",
            found=False,
            explored=5,
            elapsed_s=0.1,
            crashed=True,
            crash_reason="worker 1 crashed",
            quarantined=[
                QuarantinedReplay(
                    interleaving=(),
                    error_type="WorkerCrashed",
                    message="worker 1 died before flushing results",
                    traceback="",
                )
            ],
        )
        with mock.patch("repro.bench.harness.hunt", return_value=crashed_result):
            status = cli.main(
                ["hunt", "Roshi-1", "--workers", "2", "--cap", "10"]
            )
        out = capsys.readouterr().out
        assert status != 0
        assert "exploration crashed" in out
        assert "quarantined" in out


class TestShutdown:
    def test_prestart_then_shutdown_reaps_all_workers(self):
        """KeyboardInterrupt-path cleanliness: shutdown is bounded and total."""
        recorded = record_scenario(scenario("Roshi-1"))
        explorer = make_explorer(recorded, "erpi")
        pool = ProcessParallelExplorer(
            explorer,
            ScenarioWorkerTask(scenario_name="Roshi-1"),
            workers=2,
            shutdown_timeout_s=5,
        )
        pool.prestart(cap=50)
        assert all(proc.is_alive() for proc in pool._procs)
        pool._shutdown(drain_finals=None)
        for proc in pool._procs:
            assert not proc.is_alive()

    def test_prestarted_pool_rejects_mismatched_cap(self):
        recorded = record_scenario(scenario("Roshi-1"))
        explorer = make_explorer(recorded, "erpi")
        pool = ProcessParallelExplorer(
            explorer,
            ScenarioWorkerTask(scenario_name="Roshi-1"),
            workers=2,
            shutdown_timeout_s=5,
        )
        pool.prestart(cap=50)
        try:
            with pytest.raises(ValueError):
                pool.explore(recorded.engine, (), cap=99)
        finally:
            pool._shutdown(drain_finals=None)
