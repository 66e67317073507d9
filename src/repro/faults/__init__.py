"""Crash–recovery fault injection for ER-pi.

Faults are first-class events: a :class:`~repro.faults.plan.FaultPlan`
declares *which* replicas crash and recover (and which links partition),
compiles them into ``CRASH``/``RECOVER`` events with ordering constraints
(crash before its matching recover, no double-crash), and the explorers
interleave them exhaustively alongside the recorded updates and syncs.

What a crash destroys is the subject's business.  A down replica cannot
change, so recovery restarts it in place: each RDL replica's ``restart()``
on :class:`repro.rdl.base.RDLReplica` resets what it keeps only in memory —
Yorkie loses un-pushed local changes, OrbitDB reopens its persisted log,
Roshi's Redis-backed state survives.
"""

from repro.faults.errors import FaultError, ReplayTimeout, ReplicaDownError
from repro.faults.plan import (
    CompiledFaults,
    CrashSpec,
    FaultPlan,
    PartitionWindow,
    satisfies_order_constraints,
)
from repro.faults.quarantine import QuarantinedReplay

__all__ = [
    "CompiledFaults",
    "CrashSpec",
    "FaultError",
    "FaultPlan",
    "PartitionWindow",
    "QuarantinedReplay",
    "ReplayTimeout",
    "ReplicaDownError",
    "satisfies_order_constraints",
]
