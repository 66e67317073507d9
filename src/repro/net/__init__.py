"""Simulated network substrate: replica hosts joined by a cluster's FIFO
channels and partitions."""

from repro.net.cluster import Cluster, ClusterError
from repro.net.replica import ReplicaHost

__all__ = [
    "Cluster",
    "ClusterError",
    "ReplicaHost",
]
