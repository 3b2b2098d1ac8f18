"""Deployment systems: scale-up memory hierarchy, RLP cluster, batching."""

from repro.systems.batching import BatchPolicy, ServicePoint, window_from_db_read
from repro.systems.cluster import ClusterLatency, IveCluster
from repro.systems.queueing import (
    break_even_rate,
    simulate_batching,
    simulate_fifo,
)
from repro.systems.scale_up import DbPlacement, ScaleUpSystem

__all__ = [
    "BatchPolicy",
    "ClusterLatency",
    "DbPlacement",
    "IveCluster",
    "ScaleUpSystem",
    "ServicePoint",
    "break_even_rate",
    "simulate_batching",
    "simulate_fifo",
    "window_from_db_read",
]
