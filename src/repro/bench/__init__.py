"""Benchmark harness: scenario recording, mode hunts, result formatting."""

from repro.bench.harness import (
    RecordedScenario,
    hunt,
    make_explorer,
    record_scenario,
    scenario_pruners,
)
from repro.bench.reporting import (
    AggregateRatios,
    aggregate_ratios,
    format_fig8a_row,
    format_fig8b_row,
    format_table,
    log10_or_cap,
)

__all__ = [
    "AggregateRatios",
    "RecordedScenario",
    "aggregate_ratios",
    "format_fig8a_row",
    "format_fig8b_row",
    "format_table",
    "hunt",
    "log10_or_cap",
    "make_explorer",
    "record_scenario",
    "scenario_pruners",
]
