"""The interactive exploration loop of the paper's Procedure Workflow.

Paper section 5.2::

    State 3: forall il in ILs: execute(il); InvokeTests(); reset()
    State 4: if new constraints then
                 algos <- suitable_pruning_algorithms()
                 go to State 2   (re-generate interleavings)

Developers watching early interleavings replay can *discover* event
properties — mutually independent events, operations doomed to fail — and
feed them back as constraints; ER-pi then re-generates the remaining search
space with the extra pruning applied.  :class:`InteractiveSession` implements
exactly that loop: exploration proceeds in rounds; after each round a
developer-supplied advisor callback inspects the round's outcomes and may
return new constraints; already-replayed interleavings are never replayed
again (their class keys are re-seeded into the new pruners).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import Constraint, pruners_from, spec_groups_from
from repro.core.errors import RecordingError
from repro.core.events import Event
from repro.core.explorers import ERPiExplorer
from repro.core.interleavings import Interleaving
from repro.core.replay import Assertion, InterleavingOutcome, ReplayEngine
from repro.net.cluster import Cluster
from repro.proxy.recorder import EventRecorder

#: The advisor inspects one round's outcomes and returns new constraints
#: (empty/None = no new knowledge; exploration continues with the current
#: pruning configuration).
Advisor = Callable[[int, List[InterleavingOutcome]], Optional[Sequence[Constraint]]]


@dataclass
class RoundReport:
    """One State-3 round."""

    index: int
    replayed: int
    violations: List[Tuple[int, str]]
    new_constraints: int


@dataclass
class InteractiveReport:
    """The whole interactive session."""

    events: Tuple[Event, ...]
    rounds: List[RoundReport] = field(default_factory=list)
    outcomes: List[InterleavingOutcome] = field(default_factory=list)
    exhausted: bool = False

    @property
    def replayed(self) -> int:
        return sum(r.replayed for r in self.rounds)

    @property
    def violations(self) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = []
        for round_report in self.rounds:
            out.extend(round_report.violations)
        return out

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    def summary(self) -> str:
        lines = [
            f"rounds: {len(self.rounds)}; interleavings replayed: {self.replayed}"
            + ("; space exhausted" if self.exhausted else ""),
        ]
        for round_report in self.rounds:
            lines.append(
                f"  round {round_report.index}: replayed {round_report.replayed}, "
                f"violations {len(round_report.violations)}, "
                f"new constraints {round_report.new_constraints}"
            )
        return "\n".join(lines)


class InteractiveSession:
    """Record once, then explore in advisor-driven rounds."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._engine = ReplayEngine(cluster)
        self._recorder: Optional[EventRecorder] = None
        self._constraints: List[Constraint] = []

    def start(self) -> None:
        if self._recorder is not None:
            raise RecordingError("session already started")
        self._engine.checkpoint()
        self._recorder = EventRecorder(self.cluster)
        self._recorder.start()

    def explore(
        self,
        assertions: Sequence[Assertion] = (),
        advisor: Optional[Advisor] = None,
        round_size: int = 50,
        max_rounds: int = 20,
        stop_on_violation: bool = False,
    ) -> InteractiveReport:
        """Stop recording, then run the State-3/State-4 loop.

        Each round replays up to ``round_size`` fresh interleavings.  After
        the round the advisor may contribute constraints; if it does, the
        stream is re-generated (State 2) with the richer pruning, seeded with
        everything already replayed so no interleaving runs twice.
        """
        if self._recorder is None:
            raise RecordingError("session was not started")
        events = tuple(self._recorder.stop())
        self._recorder = None

        report = InteractiveReport(events=events)
        replayed_keys: Set[Tuple[str, ...]] = set()

        for round_index in range(max_rounds):
            explorer = ERPiExplorer(
                events,
                spec_groups=spec_groups_from(self._constraints),
                pruners=pruners_from(self._constraints),
            )
            round_outcomes: List[InterleavingOutcome] = []
            round_violations: List[Tuple[int, str]] = []
            fresh = 0
            exhausted = True
            for interleaving in explorer.candidates():
                key = tuple(event.event_id for event in interleaving)
                if key in replayed_keys:
                    continue
                if fresh >= round_size:
                    exhausted = False
                    break
                replayed_keys.add(key)
                # Kept in the report past the next replay: states read now.
                outcome = self._engine.replay(interleaving, assertions).keep_states()
                report.outcomes.append(outcome)
                round_outcomes.append(outcome)
                fresh += 1
                for message in outcome.violations:
                    round_violations.append((len(report.outcomes) - 1, message))
                if outcome.violated and stop_on_violation:
                    exhausted = False
                    break

            new_constraints: Sequence[Constraint] = ()
            if advisor is not None and not (stop_on_violation and round_violations):
                new_constraints = advisor(round_index, round_outcomes) or ()
                self._constraints.extend(new_constraints)

            report.rounds.append(
                RoundReport(
                    index=round_index,
                    replayed=fresh,
                    violations=round_violations,
                    new_constraints=len(new_constraints),
                )
            )
            if stop_on_violation and round_violations:
                break
            if exhausted:
                report.exhausted = True
                break

        self._engine.restore()
        return report
