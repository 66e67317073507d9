"""A live single-line progress renderer for interactive hunts.

Repaints one ``\\r``-terminated status line from the run's
:class:`~repro.obs.metrics.MetricsRegistry` — replayed / pruned /
quarantined — rate-limited so a 10k-replay hunt repaints a few
times a second, not once per replay; without a registry it paints nothing.
The CLI attaches one when stderr is a terminal; non-interactive runs
(tests, CI, pipes) never see it.
"""

from __future__ import annotations

import sys
import time


class ProgressLine:
    """Repaint a one-line exploration status on every committed replay."""

    def __init__(
        self,
        stream=None,
        interval_s: float = 0.1,
        clock=time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = interval_s
        self._clock = clock
        self._last = 0.0
        self._width = 0
        self.painted = 0

    def tick(self, metrics, force: bool = False) -> bool:
        """Repaint ``metrics`` if the rate limit allows; True when painted."""
        if metrics is None:
            return False
        now = self._clock()
        if not force and now - self._last < self.interval_s:
            return False
        self._last = now
        counter = metrics.counter
        parts = [f"replayed {counter('interleavings.replayed'):,}"]
        pruned = counter("interleavings.pruned")
        if pruned:
            parts.append(f"pruned {pruned:,}")
        quarantined = counter("interleavings.quarantined")
        if quarantined:
            parts.append(f"quarantined {quarantined:,}")
        line = "  " + " | ".join(parts)
        self._width = max(self._width, len(line))
        self.stream.write("\r" + line.ljust(self._width))
        self.stream.flush()
        self.painted += 1
        return True

    def close(self, metrics=None) -> None:
        """Final repaint (when ``metrics`` given), then release the line."""
        self.tick(metrics, force=True)
        if self.painted:
            self.stream.write("\n")
            self.stream.flush()
