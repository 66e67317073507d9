"""Running misconception seeds through ER-pi and classifying the outcome.

One :func:`detect` call = one cell of Table 2: record the seeded workload,
exhaustively replay (ER-pi exploration with grouping), run the seed's
per-interleaving assertions and cross-interleaving checks, and report
whether the misconception manifested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.explorers import ERPiExplorer
from repro.core.replay import InterleavingOutcome, ReplayEngine
from repro.faults.quarantine import QuarantinedReplay
from repro.misconceptions.seeds import MisconceptionSeed
from repro.proxy.recorder import EventRecorder

#: Detection verdicts.
DETECTED = "detected"
NOT_DETECTED = "not detected"
NOT_APPLICABLE = "n/a"


@dataclass
class DetectionResult:
    """Outcome of one (subject, misconception) cell."""

    subject: str
    misconception: int
    verdict: str
    explored: int = 0
    detail: str = ""
    #: Replays that raised and were quarantined (counted in ``explored``).
    quarantined: int = 0

    @property
    def detected(self) -> bool:
        return self.verdict == DETECTED


def detect(seed: MisconceptionSeed, cap: int = 600) -> DetectionResult:
    """Run one seed through exhaustive replay and classify it."""
    if seed.inapplicable_reason:
        return DetectionResult(
            subject=seed.subject,
            misconception=seed.misconception,
            verdict=NOT_APPLICABLE,
            detail=seed.inapplicable_reason,
        )
    cluster = seed.build_cluster()
    engine = ReplayEngine(cluster)
    engine.checkpoint()
    recorder = EventRecorder(cluster)
    recorder.start()
    seed.workload(cluster)
    events = tuple(recorder.stop())

    assertions = seed.make_assertions()
    cross_checks = seed.make_cross_checks()
    outcomes: List[InterleavingOutcome] = []
    detail = ""

    def classify(interleaving, outcome) -> bool:
        nonlocal detail
        if isinstance(outcome, QuarantinedReplay):
            return False
        outcomes.append(outcome)
        if outcome.violated:
            detail = outcome.violations[0]
            return True
        # Cross-checks can conclude early once two outcomes disagree.
        for check in cross_checks:
            message = check.evaluate(outcomes)
            if message is not None:
                detail = message
                return True
        return False

    result = ERPiExplorer(events).explore(
        engine, assertions, cap=cap, on_commit=classify
    )
    engine.restore()
    verdict = DETECTED if detail else NOT_DETECTED
    return DetectionResult(
        subject=seed.subject,
        misconception=seed.misconception,
        verdict=verdict,
        explored=result.explored,
        detail=detail,
        quarantined=len(result.quarantined),
    )
