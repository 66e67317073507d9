"""Quarantine records: replays that blew up instead of producing an outcome.

Injected faults can wedge or crash a subject mid-replay in ways the engine
does not model (an unexpected exception, a watchdog timeout).  Rather than
kill the whole hunt, the explorer captures the wreckage — which interleaving,
which fault plan, what traceback — as a :class:`QuarantinedReplay` and moves
on.  Quarantines are surfaced in :class:`~repro.core.session.SessionReport`
and persisted as ``quarantined(...)`` Datalog facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class QuarantinedReplay:
    """One replay captured by the quarantine path instead of completing."""

    #: Event ids of the interleaving that was being replayed.
    interleaving: Tuple[str, ...]
    #: Exception class name (e.g. ``"RuntimeError"``, ``"ReplayTimeout"``).
    error_type: str
    #: ``str(exception)``.
    message: str
    #: Full ``traceback.format_exc()`` text for offline debugging.
    traceback: str
    #: ``FaultPlan.describe()`` of the active plan, if any.
    fault_plan: Optional[str] = None
    #: Worker slot whose shard was abandoned, for ``ShardAbandoned``
    #: records the process pool commits for an abandoned slot.  ``None``
    #: for ordinary replay-side quarantines.
    shard: Optional[int] = None

    def describe(self) -> str:
        ids = ",".join(self.interleaving)
        suffix = f" (shard {self.shard})" if self.shard is not None else ""
        return f"quarantined [{ids}]: {self.error_type}: {self.message}{suffix}"
