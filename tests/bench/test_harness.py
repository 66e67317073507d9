"""Tests for the benchmark harness and reporting helpers."""

import pytest

from repro.bench.harness import (
    hunt,
    make_explorer,
    record_scenario,
    scenario_pruners,
)
from repro.bench.reporting import (
    aggregate_ratios,
    format_fig8a_row,
    format_fig8b_row,
    format_table,
    log10_or_cap,
)
from repro.bench.workloads import divergence_workload
from repro.bugs import scenario
from repro.core.explorers import DFSExplorer, ERPiExplorer, ExplorationResult, RandomExplorer


class TestHarness:
    def test_record_scenario_checks_event_count(self):
        recorded = record_scenario(scenario("Roshi-1"))
        assert recorded.event_count == 9

    def test_make_explorer_modes(self):
        recorded = record_scenario(scenario("Roshi-1"))
        assert isinstance(make_explorer(recorded, "erpi"), ERPiExplorer)
        assert isinstance(make_explorer(recorded, "dfs"), DFSExplorer)
        assert isinstance(make_explorer(recorded, "rand"), RandomExplorer)
        with pytest.raises(ValueError):
            make_explorer(recorded, "teleport")

    def test_scenario_pruners_reflect_scope(self):
        assert scenario_pruners(scenario("Roshi-1")) == []
        # Roshi-3: replica-specific (scoped to A) + the independence constraint.
        assert len(scenario_pruners(scenario("Roshi-3"))) == 2
        # OrbitDB-2 / ReplicaDB-1 carry failed-ops constraints.
        assert len(scenario_pruners(scenario("OrbitDB-2"))) == 1
        assert len(scenario_pruners(scenario("ReplicaDB-1"))) == 1

    def test_hunt_returns_mode_result(self):
        recorded = record_scenario(scenario("Roshi-1"))
        result = hunt(recorded, "erpi", cap=200)
        assert result.mode == "erpi"
        assert result.found

    def test_replay_timeout_applies_to_its_own_hunt_only(self):
        recorded = record_scenario(scenario("Roshi-1"))
        hunt(recorded, "erpi", cap=50, replay_timeout_s=30)
        assert recorded.engine.executor.timeout_s == 30
        hunt(recorded, "erpi", cap=50)
        assert recorded.engine.executor.timeout_s is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_the_process_backend_is_accepted(self, workers):
        recorded = record_scenario(scenario("Roshi-1"))
        with pytest.raises(ValueError, match="parallel backend"):
            hunt(recorded, "erpi", cap=20, workers=workers,
                 parallel_backend="thread")


class TestWorkloadGenerators:
    def test_divergence_workload_scales(self):
        from repro.proxy.recorder import EventRecorder
        from repro.bench.workloads import roshi_cluster

        cluster = roshi_cluster(("A", "B"))
        recorder = EventRecorder(cluster)
        recorder.start()
        divergence_workload(cluster, pairs=2)
        events = recorder.stop()
        assert len(events) == 2 * 6 + 1


class TestReporting:
    def make_result(self, mode, found, explored, elapsed):
        return ExplorationResult(
            mode=mode, found=found, explored=explored, elapsed_s=elapsed
        )

    def test_fig8a_row_marks_cap(self):
        row = format_fig8a_row(
            "BugX",
            {
                "erpi": self.make_result("erpi", True, 10, 0.1),
                "dfs": self.make_result("dfs", False, 10_000, 5.0),
                "rand": self.make_result("rand", True, 100, 1.0),
            },
        )
        assert "CAP" in row
        assert "erpi=" in row

    def test_fig8b_row(self):
        row = format_fig8b_row(
            "BugX",
            {
                "erpi": self.make_result("erpi", True, 10, 0.5),
                "dfs": self.make_result("dfs", True, 100, 2.0),
                "rand": self.make_result("rand", False, 10_000, 9.0),
            },
        )
        assert "0.500s" in row
        assert "9.000s↑" in row

    def test_aggregate_ratios(self):
        per_bug = {
            "BugX": {
                "erpi": self.make_result("erpi", True, 10, 0.1),
                "dfs": self.make_result("dfs", True, 100, 0.4),
                "rand": self.make_result("rand", True, 1000, 0.9),
            }
        }
        ratios = aggregate_ratios(per_bug)
        assert ratios.interleavings_vs_dfs == pytest.approx(10.0)
        assert ratios.interleavings_vs_rand == pytest.approx(100.0)
        assert ratios.time_vs_dfs == pytest.approx(4.0)
        assert "paper" in ratios.summary()

    def test_format_table_aligns(self):
        text = format_table(["col", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")

    def test_log10_or_cap_guards_zero(self):
        assert log10_or_cap(0) < 0
        assert log10_or_cap(1000) == pytest.approx(3.0)
