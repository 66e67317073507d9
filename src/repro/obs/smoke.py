"""Trace-smoke check: one traced hunt per seeded bug scenario.

Run as ``python -m repro.obs.smoke`` (the CI ``trace-smoke`` job).  For every
Table-1 scenario — and every crash-recovery scenario with its fault plan
compiled in — it runs a traced, metered hunt and asserts the observability
layer's own contracts:

* the emitted trace serialises to JSONL that parses back losslessly
  (Chrome trace-event shape, one span per line);
* the span kinds cover the pipeline stages the run actually exercised
  (``explore``/``generate``/``replay`` always; ``fault-compile`` on fault
  runs; ``prune:<algorithm>``/``sanitize``/``replay:fresh`` somewhere in
  the sweep's union);
* every span nests under a known parent and carries a non-negative
  duration;
* the metric totals are self-consistent: ``interleavings.generated ==
  pruned + replayed + quarantined + discarded``, and the replay-latency
  histogram observed every committed replay.
"""

from __future__ import annotations

import sys
from typing import List, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, parse_jsonl

#: Span kinds every hunt must emit, whatever the scenario.
ALWAYS_KINDS = {"explore", "generate", "replay"}

#: Span kinds the sweep as a whole must cover at least once.
UNION_KINDS = ALWAYS_KINDS | {"fault-compile", "sanitize", "replay:fresh"}


def _check_trace(name: str, tracer: Tracer, errors: List[str]) -> None:
    text = "\n".join(tracer.iter_jsonl())
    try:
        parsed = parse_jsonl(text)
    except ValueError as exc:
        errors.append(f"{name}: trace JSONL does not parse: {exc}")
        return
    if len(parsed) != len(tracer.spans):
        errors.append(
            f"{name}: JSONL round-trip lost spans "
            f"({len(parsed)} != {len(tracer.spans)})"
        )
    ids = {span.span_id for span in tracer.spans}
    for span in tracer.spans:
        if span.duration_s < 0:
            errors.append(f"{name}: span {span.span_id} has negative duration")
        if span.parent_id and span.parent_id not in ids:
            errors.append(
                f"{name}: span {span.span_id} has unknown parent {span.parent_id}"
            )


def _check_metrics(name: str, metrics: MetricsRegistry, errors: List[str]) -> None:
    if not metrics.consistent():
        errors.append(
            f"{name}: generated={metrics.counter('interleavings.generated')} != "
            f"pruned={metrics.counter('interleavings.pruned')} + "
            f"replayed={metrics.counter('interleavings.replayed')} + "
            f"quarantined={metrics.counter('interleavings.quarantined')} + "
            f"discarded={metrics.counter('interleavings.discarded')}"
        )
    committed = metrics.counter("interleavings.replayed")
    histogram = metrics.histogram("replay.duration_us")
    if committed and (histogram is None or histogram.count < committed):
        errors.append(f"{name}: replay.duration_us histogram undercounts replays")


def _run_one(
    scenario, faults: bool, sanitize: bool, errors: List[str]
) -> Tuple[Set[str], str]:
    from repro.bench.harness import hunt, record_scenario

    tracer = Tracer()
    metrics = MetricsRegistry()
    name = scenario.name + ("+faults" if faults else "")
    result = hunt(
        record_scenario(scenario),
        "erpi",
        cap=2_000 if faults else 600,
        sanitize=sanitize,
        faults=faults,
        replay_timeout_s=10.0 if faults else None,
        tracer=tracer,
        metrics=metrics,
    )
    kinds = set(tracer.counts())
    missing = ALWAYS_KINDS - kinds
    if missing:
        errors.append(f"{name}: missing span kind(s) {sorted(missing)}")
    if faults and "fault-compile" not in kinds:
        errors.append(f"{name}: fault run emitted no fault-compile span")
    _check_trace(name, tracer, errors)
    _check_metrics(name, metrics, errors)
    replayed = metrics.counter("interleavings.replayed")
    verdict = "found" if result.found else ("crashed" if result.crashed else "capped")
    summary = (
        f"{name}: {verdict} after {replayed} replay(s), "
        f"{len(tracer.spans)} span(s), {len(kinds)} span kind(s)"
    )
    return kinds, summary


def main() -> int:
    from repro.bench.harness import scenario_pruners
    from repro.bugs import all_scenarios, fault_scenarios

    errors: List[str] = []
    union: Set[str] = set()
    for scenario in all_scenarios():
        # Sanitizing is only meaningful where pruning happens, and only a
        # pruner that actually merges classes produces the differential
        # fresh replays that cover the sanitize / replay:fresh span kinds.
        sanitize = bool(scenario_pruners(scenario))
        kinds, summary = _run_one(scenario, faults=False, sanitize=sanitize, errors=errors)
        union |= kinds
        print(summary)
    for scenario in fault_scenarios():
        kinds, summary = _run_one(scenario, faults=True, sanitize=False, errors=errors)
        union |= kinds
        print(summary)

    missing_union = UNION_KINDS - union
    if missing_union:
        errors.append(f"sweep union missing span kind(s) {sorted(missing_union)}")
    if not any(kind.startswith("prune:") for kind in union):
        errors.append("sweep union contains no prune:<algorithm> span")

    if errors:
        print(f"\ntrace-smoke: {len(errors)} failure(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print(f"\ntrace-smoke OK: span kinds covered = {sorted(union)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
