"""The four end-to-end workloads: which hunts a pass runs, and what each
hunt must conclude.

Every hunt is assembled by ``repro.bench.harness.record_scenario`` and
``hunt(recorded, "erpi", seed=..., **options)``: the benchmark never drives an
explore loop of its own.  Each workload stresses a different layer (see
``README.md`` beside this file for the reasons and the per-pass figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Replays-to-reproduce per bug from the paper's Table 1 (ER-pi column).
#: Printed next to the measured count; a mismatch is reported, not failed,
#: so a pruning change stays legal.
TABLE1_REPLAYS: Dict[str, int] = {
    "Roshi-1": 17,
    "Roshi-2": 2,
    "Roshi-3": 2,
    "OrbitDB-1": 2,
    "OrbitDB-2": 4,
    "OrbitDB-3": 33,
    "OrbitDB-4": 3812,
    "OrbitDB-5": 86,
    "ReplicaDB-1": 29,
    "ReplicaDB-2": 2763,
    "Yorkie-1": 52,
    "Yorkie-2": 46,
}

FAULT_SCENARIOS = ("Roshi-CR", "Roshi-CR2", "OrbitDB-CR", "ReplicaDB-CR", "Yorkie-CR")
DPOR_SCENARIOS = ("OrbitDB-4", "ReplicaDB-2", "OrbitDB-5", "Yorkie-1", "Yorkie-2")
PROC_SCENARIOS = ("OrbitDB-4", "ReplicaDB-2")

#: Worker processes the ``proc2`` workload adds (the box has two cores).
NPROC = 2


@dataclass(frozen=True)
class HuntSpec:
    """One hunt of a pass: scenario, build and ``hunt()`` keyword options."""

    scenario: str
    fixed: bool = False
    options: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        return f"{self.scenario}{'/fixed' if self.fixed else ''}"

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.options)

    @property
    def expect_found(self) -> bool:
        """Buggy builds must reproduce; fixed builds must sweep clean."""
        return not self.fixed

    @property
    def process_backed(self) -> bool:
        return self.kwargs.get("parallel_backend") == "process" and int(
            self.kwargs.get("workers", 1)
        ) > 1

    def smoke(self) -> "HuntSpec":
        """The ``--smoke`` variant: exhaustive sweeps run at a tenth of
        their cap; stop-at-first-violation hunts keep theirs, because their
        length is set by where the bug is, not by the cap."""
        options = self.kwargs
        if options.get("stop_on_violation", True) or "cap" not in options:
            return self
        options["cap"] = int(options["cap"]) // 10
        return HuntSpec(self.scenario, self.fixed, tuple(sorted(options.items())))


def _spec(scenario: str, fixed: bool = False, **options: object) -> HuntSpec:
    return HuntSpec(scenario, fixed, tuple(sorted(options.items())))


def _workloads() -> Dict[str, Tuple[HuntSpec, ...]]:
    faults = []
    for name in FAULT_SCENARIOS:
        faults.append(_spec(name, faults=True))
        faults.append(
            _spec(name, fixed=True, faults=True, stop_on_violation=False, cap=5000)
        )
    return {
        # Replay-bound: restore, execute and assert; pruners near 0%.
        "table1": tuple(_spec(name) for name in TABLE1_REPLAYS),
        # Prune-heavy: the only workload where a pruning change shows.
        "dpor": tuple(_spec(name, dpor=True) for name in DPOR_SCENARIOS),
        # Fault replays bypass the prefix cache; most candidates are invalid.
        "faults": tuple(faults),
        # Exhaustive sweeps, the only workload through core.procpool.  The
        # cap keeps each hunt under a second: the two vCPUs' speeds drift
        # apart within seconds, so longer hunts outrun the calibration
        # around them, and a run gets too few of them to take a median.
        "proc2": tuple(
            _spec(
                name,
                fixed=True,
                workers=NPROC,
                parallel_backend="process",
                stop_on_violation=False,
                cap=2_500,
            )
            for name in PROC_SCENARIOS
        ),
    }


WORKLOADS: Dict[str, Tuple[HuntSpec, ...]] = _workloads()


def hunts_for(name: str, smoke: bool = False) -> Tuple[HuntSpec, ...]:
    hunts = WORKLOADS[name]
    return tuple(spec.smoke() for spec in hunts) if smoke else hunts


def table1_reference(spec: HuntSpec) -> Optional[int]:
    """The Table-1 replay count for a plain buggy hunt, else ``None``."""
    if spec.fixed or spec.options:
        return None
    return TABLE1_REPLAYS.get(spec.scenario)
