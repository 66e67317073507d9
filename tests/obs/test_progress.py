"""Tests for the live progress line (repro.obs.progress)."""

import io

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressLine


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_metrics(replayed=3, pruned=0, quarantined=0):
    metrics = MetricsRegistry()
    metrics.inc("interleavings.replayed", replayed)
    if pruned:
        metrics.inc("interleavings.pruned", pruned)
    if quarantined:
        metrics.inc("interleavings.quarantined", quarantined)
    return metrics


class TestProgressLine:
    def test_tick_paints_counters(self):
        stream = io.StringIO()
        progress = ProgressLine(stream=stream, clock=FakeClock())
        assert progress.tick(make_metrics(replayed=7, pruned=2))
        line = stream.getvalue()
        assert line.startswith("\r")
        assert "replayed 7" in line
        assert "pruned 2" in line
        assert "quarantined" not in line  # zero counters stay off the line

    def test_rate_limited_by_clock(self):
        stream = io.StringIO()
        clock = FakeClock()
        progress = ProgressLine(stream=stream, interval_s=0.1, clock=clock)
        metrics = make_metrics()
        assert progress.tick(metrics)
        clock.now += 0.05
        assert not progress.tick(metrics)  # within the repaint interval
        clock.now += 0.06
        assert progress.tick(metrics)
        assert progress.painted == 2

    def test_force_overrides_rate_limit(self):
        progress = ProgressLine(stream=io.StringIO(), clock=FakeClock())
        metrics = make_metrics()
        assert progress.tick(metrics)
        assert not progress.tick(metrics)
        assert progress.tick(metrics, force=True)

    def test_repaint_pads_to_widest_line(self):
        stream = io.StringIO()
        progress = ProgressLine(stream=stream, interval_s=0.0, clock=FakeClock())
        progress.tick(make_metrics(replayed=1_000_000))
        progress.tick(make_metrics(replayed=1))
        first, second = stream.getvalue().split("\r")[1:]
        assert len(second) == len(first)  # shorter line overwrites the longer

    def test_close_final_repaint_and_newline(self):
        stream = io.StringIO()
        progress = ProgressLine(stream=stream, clock=FakeClock())
        progress.tick(make_metrics(replayed=1))
        progress.close(make_metrics(replayed=9, quarantined=1))
        out = stream.getvalue()
        assert "replayed 9" in out
        assert "quarantined 1" in out
        assert out.endswith("\n")

    def test_close_without_paint_stays_silent(self):
        stream = io.StringIO()
        ProgressLine(stream=stream, clock=FakeClock()).close()
        assert stream.getvalue() == ""  # never painted -> no stray newline

    def test_hunt_without_registry_paints_nothing(self):
        """The line paints a registry's counts; a hunt given a progress line
        but no ``metrics`` has none, so it paints nothing (not a
        ``replayed 0`` on every commit)."""
        from repro.bench.harness import hunt, record_scenario
        from repro.bugs import scenario

        stream = io.StringIO()
        progress = ProgressLine(stream=stream, interval_s=0.0, clock=FakeClock())
        assert not progress.tick(None, force=True)
        result = hunt(record_scenario(scenario("Roshi-1")), "erpi", progress=progress)
        assert result.found
        assert progress.painted == 0
        assert stream.getvalue() == ""
