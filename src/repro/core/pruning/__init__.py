"""ER-pi's four pruning algorithms (paper section 3)."""

from repro.core.pruning.base import ClassSampler, Pruner, PrunerPipeline, PruneStats
from repro.core.pruning.failed_ops import FailedOpsPruner
from repro.core.pruning.grouping import EventGroupPruner
from repro.core.pruning.independence import EventIndependencePruner, default_interference
from repro.core.pruning.replica_specific import (
    ReadScopedPruner,
    ReplicaSpecificPruner,
    observation_signature,
)
from repro.core.pruning.semantic import (
    DPORPruner,
    event_footprint,
    trace_normal_form,
)

__all__ = [
    "ClassSampler",
    "DPORPruner",
    "EventGroupPruner",
    "EventIndependencePruner",
    "FailedOpsPruner",
    "PruneStats",
    "Pruner",
    "PrunerPipeline",
    "ReadScopedPruner",
    "ReplicaSpecificPruner",
    "default_interference",
    "event_footprint",
    "observation_signature",
    "trace_normal_form",
]
