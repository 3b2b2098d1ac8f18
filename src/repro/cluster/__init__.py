"""repro.cluster — multi-process coordinator/worker runtime (escape the GIL).

The third :class:`~repro.serve.workers.WindowExecutor` beside the
thread-pool :class:`~repro.serve.workers.RealCryptoBackend` and the
virtual-time :class:`~repro.serve.workers.SimulatedBackend` — the
:class:`ClusterCoordinator` itself is what a runtime is handed.
Real-crypto shard replicas live in worker *processes*, each with its own
interpreter, so aggregate QPS scales with cores instead of saturating on
one GIL.  The
coordinator routes dispatcher batches, tracks worker health via
heartbeats, retries or re-routes around worker death, rebalances lost
replicas, broadcasts atomic cross-shard epoch publishes
(``repro.mutate`` hot-swap across process boundaries), and drains
gracefully.  ``repro.systems.cluster`` remains the analytic twin; its
scaling predictions are compared against measured cluster QPS in
``benchmarks/bench_cluster.py``.
"""

from repro.cluster.coordinator import (
    ClusterCoordinator,
    ClusterPublishResult,
    ClusterStats,
)
from repro.cluster.messages import (
    AnswerBatch,
    BatchDone,
    BatchFailed,
    DropReplica,
    EpochPublished,
    Heartbeat,
    LoadReplica,
    PublishEpoch,
    ReplicaLoaded,
    Shutdown,
    WorkerConfig,
    WorkerHello,
    WorkerStopped,
)
from repro.cluster.registry import ClusterRegistry
from repro.cluster.worker import ClusterWorker, worker_main

__all__ = [
    "AnswerBatch",
    "BatchDone",
    "BatchFailed",
    "ClusterCoordinator",
    "ClusterPublishResult",
    "ClusterRegistry",
    "ClusterStats",
    "ClusterWorker",
    "DropReplica",
    "EpochPublished",
    "Heartbeat",
    "LoadReplica",
    "PublishEpoch",
    "ReplicaLoaded",
    "Shutdown",
    "WorkerConfig",
    "WorkerHello",
    "WorkerStopped",
    "worker_main",
]
