"""Typed message protocol between the cluster coordinator and its workers.

Every message is a frozen dataclass of plain data (ints, bytes, tuples,
and the crypto value types, which pickle compactly because
:class:`~repro.he.poly.RingContext` reduces to a process-interned
lookup).  The protocol is deliberately small:

coordinator -> worker
    :class:`LoadReplica`   own a shard replica (records at an epoch)
    :class:`DropReplica`   stop serving a shard
    :class:`AnswerBatch`   answer one dispatch window's queries
    :class:`PublishEpoch`  apply per-shard update logs, advance the epoch
    :class:`Shutdown`      drain and exit

worker -> coordinator
    :class:`WorkerHello`     process is up, imports done
    :class:`Heartbeat`       liveness beacon (independent thread)
    :class:`ReplicaLoaded`   shard replica preprocessed and serving
    :class:`BatchDone` / :class:`BatchFailed`
    :class:`EpochPublished`  per-worker publish ack with delta accounting
    :class:`WorkerStopped`   clean exit after ``Shutdown``

Both directions share one duplex pipe per worker, so per-worker FIFO
ordering is guaranteed: a request stamped with epoch E that was sent
before ``PublishEpoch(E+1)`` reaches the worker first, and anything sent
after the publish ack can only arrive after the worker advanced — which
is what makes the cross-process epoch hot-swap race-free without any
worker-side locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mutate.log import Mutation
from repro.params import PirParams
from repro.pir.client import PirQuery, PirResponse


@dataclass(frozen=True)
class WorkerConfig:
    """Spawn-time configuration, pickled into the worker process."""

    worker_id: int
    params: PirParams
    record_bytes: int
    heartbeat_interval_s: float
    #: Epochs a replica keeps answerable behind the newest (mutate-style
    #: retention window for in-flight requests pinned to their admission).
    retain: int
    #: Worker-local seed derived from the cluster seed (``seed + worker_id``)
    #: so a seeded loadtest is reproducible end to end across processes.
    seed: int | None
    #: Compute-backend name (``repro.he.backend`` registry) reconstructed
    #: inside the spawned process — backends themselves never cross the
    #: pipe, only the registry key (None: the process's default).
    backend: str | None = None
    #: Observability opt-ins (``repro.obs``): with ``trace`` the worker
    #: times each answered batch and ships its ``worker.batch``
    #: :class:`~repro.obs.trace.Span` back in :class:`BatchDone`; with ``profile`` it installs a
    #: process-local kernel profiler and ships the per-stage totals in
    #: :class:`WorkerStopped`.
    trace: bool = False
    profile: bool = False


# -- coordinator -> worker -------------------------------------------------


@dataclass(frozen=True)
class LoadReplica:
    """Own a replica of ``shard_id``: build + preprocess the database."""

    shard_id: int
    epoch: int
    records: tuple[bytes, ...]


@dataclass(frozen=True)
class DropReplica:
    shard_id: int


@dataclass(frozen=True)
class AnswerBatch:
    """One dispatch window for one shard, pinned to its admitted epoch."""

    batch_id: int
    shard_id: int
    epoch: int
    queries: tuple[PirQuery, ...]
    #: Per-query trace ids (aligned with ``queries``) when the run is
    #: traced; empty otherwise.  This is what carries a trace across the
    #: process boundary: the worker stamps its answer spans with these
    #: ids, so one timeline shows both sides of the pipe.
    trace_ids: tuple[int | None, ...] = ()


@dataclass(frozen=True)
class PublishEpoch:
    """Advance every replica this worker owns to ``epoch``.

    ``shard_ops`` maps shard id -> shard-local mutations; owned shards
    missing from the map advance with an empty log (the epoch must exist
    on every replica or later requests would be spuriously stale).
    """

    epoch: int
    shard_ops: dict[int, tuple[Mutation, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Shutdown:
    pass


# -- worker -> coordinator -------------------------------------------------


@dataclass(frozen=True)
class WorkerHello:
    worker_id: int
    pid: int


@dataclass(frozen=True)
class Heartbeat:
    worker_id: int
    seq: int
    #: Epochs currently answerable, aggregated across owned replicas.
    epochs: tuple[int, ...]


@dataclass(frozen=True)
class ReplicaLoaded:
    worker_id: int
    shard_id: int
    epoch: int
    preprocess_s: float


@dataclass(frozen=True)
class BatchDone:
    worker_id: int
    batch_id: int
    shard_id: int
    responses: tuple[PirResponse, ...]
    #: The worker-side ``worker.batch`` :class:`~repro.obs.trace.Span`
    #: (the batch runs as one stacked window) when tracing is on.
    spans: tuple = ()


@dataclass(frozen=True)
class BatchFailed:
    """A batch failed inside the worker with a typed, reconstructable error.

    ``error_kind`` names a class in :mod:`repro.errors`; ``details``
    carries its constructor fields when reconstruction needs them (e.g.
    ``StaleEpoch``), so the coordinator can re-raise the *same* typed
    rejection the in-process backends would have raised.
    """

    worker_id: int
    batch_id: int
    shard_id: int
    error_kind: str
    message: str
    details: tuple = ()


@dataclass(frozen=True)
class EpochPublished:
    worker_id: int
    epoch: int
    shard_ids: tuple[int, ...]
    polys_repacked: int
    error: str | None = None


@dataclass(frozen=True)
class WorkerStopped:
    worker_id: int
    #: Per-stage kernel totals (``KernelProfiler.stats_tuple``) when the
    #: worker was spawned with ``profile=True``; merged coordinator-side.
    kernel_stats: tuple = ()
