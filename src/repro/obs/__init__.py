"""``repro.obs`` — zero-dependency tracing + metrics for the pipeline.

Three pieces (see DESIGN.md §9):

* :class:`Tracer` — structured spans (``explore``, ``generate``,
  ``prune:<algorithm>``, ``replay``, ``replay:fresh``, ``sanitize``,
  ``quarantine``, ``fault-compile``) with parent/child nesting, wall-clock
  durations and per-span attributes; exported as Chrome-compatible JSONL
  or persisted as ``span(...)`` Datalog facts.
* :class:`MetricsRegistry` — named counters/gauges/histograms the whole
  exploration pipeline reports into; persisted as ``metric(...)`` facts.
* :class:`ProgressLine` — a live single-line hunt progress renderer.

``None`` is the one way to be unobserved: a run without a tracer or a
registry holds ``None`` in its place, and every call site checks
``is not None`` before it records.
"""

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.progress import ProgressLine
from repro.obs.tracer import Span, Tracer, parse_jsonl

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "ProgressLine",
    "Span",
    "Tracer",
    "parse_jsonl",
]
