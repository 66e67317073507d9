"""The 12 bug benchmarks of Table 1, as replayable scenarios.

Each :class:`BugScenario` packages everything ER-pi needs to hunt one
reported bug:

* a cluster factory wiring up the subject RDL with the defect flag that
  reintroduces the bug;
* the application workload (run once between Start/End to record events —
  the recorded order is always bug-free, as a user's happy-path run is);
* the invariant whose violation *is* the bug manifesting;
* the developer-supplied grouping/constraints ER-pi would be configured with.

Scenario design notes (how the Figure-8a shape arises):

* The recorded workload never violates — the bug needs a *different*
  interleaving, exactly the situation the paper's RQ1 studies.
* Bugs whose trigger window sits in the last ~7 recorded events are
  reachable by DFS's tail-first enumeration inside the 10K cap; bugs whose
  window requires displacing early events are not (Roshi-3, OrbitDB-4,
  OrbitDB-5 in the paper — and here).
* Bugs whose manifestation is gated on a long sync-relay chain completing
  have a tiny violating fraction, which starves uniform random sampling
  (those three plus Yorkie-2 — the paper's Rand failures).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.replay import Assertion
from repro.faults.plan import FaultPlan
from repro.net.cluster import Cluster


class BugScenario(abc.ABC):
    """One reproducible bug benchmark (one row of Table 1)."""

    #: e.g. "Roshi-1"
    name: str
    #: GitHub issue number from the paper's Table 1.
    issue: int
    #: subject library.
    subject: str
    #: number of interleaved events Table 1 reports for this bug.
    expected_events: int
    #: "closed" / "open" per Table 1.
    status: str
    #: "misconception" / "RDL issue" / "misuse" / "-" per Table 1.
    reason: str
    #: one-line description of the defect.
    description: str = ""
    #: replica id for Algorithm-2 scoping (None = no replica-specific pruning).
    replica_scope: Optional[str] = None

    @abc.abstractmethod
    def build_cluster(self, fixed: bool = False) -> Cluster:
        """A fresh cluster with the defective subject installed.

        ``fixed=True`` builds the repaired library instead (defect flags
        removed) — used by the no-false-positive regression tests: the fixed
        library must survive the same exploration without violations."""

    @abc.abstractmethod
    def workload(self, cluster: Cluster) -> None:
        """The application's happy-path run (recorded by ER-pi's proxies)."""

    @abc.abstractmethod
    def make_assertions(self) -> List[Assertion]:
        """Fresh per-interleaving assertions (stateful ones reset per run)."""

    def spec_groups(self) -> List[Tuple[str, str]]:
        """Developer-specified event groups (event ids use the recorder's
        deterministic e1..eN numbering of the workload)."""
        return []

    def independence_constraints(self) -> List[Tuple[str, ...]]:
        """Event-id tuples declared mutually independent (Algorithm 3)."""
        return []

    def failed_ops_constraints(self) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
        """(predecessors, successors) pairs for Algorithm-4 pruning."""
        return []

    def fault_plan(self) -> Optional[FaultPlan]:
        """Crash/partition faults injected into the hunt (None = no faults).

        Crash–recovery scenarios return a plan anchored on the recorder's
        e1..eN event ids; ``ErPi(..., faults=plan)`` compiles it into the
        schedule."""
        return None

    def fixed_defects(self) -> frozenset:
        """Defect flags removed to obtain the *fixed* library (for the
        no-false-positive regression tests)."""
        return frozenset()

    def __repr__(self) -> str:
        return f"<BugScenario {self.name} (issue #{self.issue}, {self.expected_events} events)>"


_REGISTRY: Dict[str, Callable[[], BugScenario]] = {}


def register(factory: Callable[[], BugScenario]) -> Callable[[], BugScenario]:
    """Class decorator registering a scenario under its ``name``."""
    instance = factory()
    _REGISTRY[instance.name] = factory
    return factory


def scenario(name: str) -> BugScenario:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown bug scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def all_scenarios() -> List[BugScenario]:
    """All 12 scenarios in Table-1 order."""
    order = [
        "Roshi-1",
        "Roshi-2",
        "Roshi-3",
        "OrbitDB-1",
        "OrbitDB-2",
        "OrbitDB-3",
        "OrbitDB-4",
        "OrbitDB-5",
        "ReplicaDB-1",
        "ReplicaDB-2",
        "Yorkie-1",
        "Yorkie-2",
    ]
    return [scenario(name) for name in order if name in _REGISTRY]


def scenario_names() -> List[str]:
    return [s.name for s in all_scenarios()]


def fault_scenarios() -> List[BugScenario]:
    """The seeded crash–recovery scenarios (one per subject), in order."""
    order = ["Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR"]
    return [scenario(name) for name in order if name in _REGISTRY]


def fault_scenario_names() -> List[str]:
    return [s.name for s in fault_scenarios()]
