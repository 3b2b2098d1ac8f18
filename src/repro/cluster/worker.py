"""Worker process: owns shard replicas, answers batches, applies epochs.

One worker is one OS process with its own interpreter and GIL — the whole
point of the cluster runtime.  It is structurally simple: a single
message loop over the duplex pipe (FIFO with the coordinator) plus one
daemon thread that emits :class:`~repro.cluster.messages.Heartbeat`
beacons so the coordinator can tell a stalled process from one grinding
through a long batch.  All serving state is process-local:

* per owned shard, a :class:`~repro.mutate.versioned.VersionedDatabase`
  (ground truth + preprocessed NTT planes with copy-on-write epochs) and
  one :class:`~repro.pir.server.PirServer` per live epoch;
* the client's :class:`~repro.pir.client.ClientSetup` evaluation keys,
  shipped once at spawn.

Requests carry the epoch they were admitted under; the worker answers
with that epoch's server and keeps a bounded retention window of older
epochs, so a publish that lands while a window is queued never changes
what an admitted request decodes to.  An epoch outside the window is a
typed :class:`~repro.errors.StaleEpoch` carried back over the pipe.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ClusterError, ReproError, StaleEpoch
from repro.he.backend import get_backend
from repro.he.poly import RingContext
from repro.mutate.log import UpdateLog
from repro.mutate.versioned import VersionedDatabase
from repro.obs.profile import KernelProfiler
from repro.obs.profile import install as install_profiler
from repro.obs.trace import Span
from repro.pir.client import ClientSetup
from repro.pir.server import PirServer

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


@dataclass
class _Replica:
    """One shard's serving state: versioned DB + per-epoch servers."""

    vdb: VersionedDatabase
    servers: dict[int, PirServer] = field(default_factory=dict)

    def answer(self, epoch: int, queries) -> tuple:
        """The batch as one stacked window, like the thread executor's."""
        server = self.servers.get(epoch)
        if server is None:
            raise StaleEpoch(
                epoch=epoch, current=max(self.servers), oldest_live=min(self.servers)
            )
        return tuple(server.answer_batch(list(queries)))


class ClusterWorker:
    """The run loop behind :func:`worker_main` (kept a class for tests)."""

    def __init__(self, conn, config: WorkerConfig, setup: ClientSetup):
        self.conn = conn
        self.config = config
        self.setup = setup
        self.ring = RingContext.shared(config.params)
        # Reconstructed from the registry name that travelled in the
        # pickled WorkerConfig; resolution errors surface at spawn.
        self.backend = get_backend(config.backend)
        self.replicas: dict[int, _Replica] = {}
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._hb_seq = 0

    # -- plumbing ----------------------------------------------------------
    def _send(self, msg) -> None:
        """Thread-safe send; a vanished coordinator just ends the worker."""
        with self._send_lock:
            try:
                self.conn.send(msg)
            except (BrokenPipeError, OSError):
                self._stop.set()

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval_s):
            epochs = sorted(
                {e for rep in self.replicas.values() for e in rep.servers}
            )
            self._hb_seq += 1
            self._send(
                Heartbeat(
                    worker_id=self.config.worker_id,
                    seq=self._hb_seq,
                    epochs=tuple(epochs),
                )
            )

    # -- message handlers --------------------------------------------------
    def _load_replica(self, msg: LoadReplica) -> None:
        start = time.monotonic()
        vdb = VersionedDatabase(
            self.config.params,
            list(msg.records),
            self.config.record_bytes,
            ring=self.ring,
            backend=self.backend,
        )
        replica = _Replica(vdb=vdb)
        replica.servers[msg.epoch] = PirServer(
            vdb.current.pre, self.setup, backend=self.backend
        )
        self.replicas[msg.shard_id] = replica
        self._send(
            ReplicaLoaded(
                worker_id=self.config.worker_id,
                shard_id=msg.shard_id,
                epoch=msg.epoch,
                preprocess_s=time.monotonic() - start,
            )
        )

    def _answer_batch(self, msg: AnswerBatch) -> None:
        start = time.monotonic()
        try:
            replica = self.replicas.get(msg.shard_id)
            if replica is None:
                raise ClusterError(
                    f"worker {self.config.worker_id} owns no replica of "
                    f"shard {msg.shard_id}"
                )
            responses = replica.answer(msg.epoch, msg.queries)
        except ReproError as exc:
            details: tuple = ()
            if isinstance(exc, StaleEpoch):
                details = (exc.epoch, exc.current, exc.oldest_live)
            self._send(
                BatchFailed(
                    worker_id=self.config.worker_id,
                    batch_id=msg.batch_id,
                    shard_id=msg.shard_id,
                    error_kind=type(exc).__name__,
                    message=str(exc),
                    details=details,
                )
            )
            return
        spans: tuple = ()
        if self.config.trace:
            # ``time.monotonic()`` here and ``loop.time()`` coordinator-side
            # are the same Linux CLOCK_MONOTONIC, so the span lands on the
            # shared cross-process timeline without any clock translation.
            spans = (
                Span(
                    trace_id=next(
                        (t for t in msg.trace_ids if t is not None), None
                    ),
                    name="worker.batch",
                    start_s=start,
                    dur_s=time.monotonic() - start,
                    pid=os.getpid(),
                    tid=f"worker-{self.config.worker_id}",
                    cat="cluster",
                    args={
                        "shard": msg.shard_id,
                        "epoch": msg.epoch,
                        "batch": len(msg.queries),
                    },
                ),
            )
        self._send(
            BatchDone(
                worker_id=self.config.worker_id,
                batch_id=msg.batch_id,
                shard_id=msg.shard_id,
                responses=responses,
                spans=spans,
            )
        )

    def _publish_epoch(self, msg: PublishEpoch) -> None:
        """Advance every owned replica to ``msg.epoch`` (empty log if clean).

        Logs were validated coordinator-side before the broadcast, so an
        apply failure here is a worker-local fault: it is reported in the
        ack and the coordinator treats the worker as lost rather than
        leaving the cluster half-published.
        """
        repacked = 0
        error = None
        try:
            for shard_id, replica in sorted(self.replicas.items()):
                ops = msg.shard_ops.get(shard_id, ())
                snapshot = replica.vdb.apply(UpdateLog(list(ops)))
                repacked += snapshot.cost.polys_repacked
                replica.servers[msg.epoch] = PirServer(
                    snapshot.pre, self.setup, backend=self.backend
                )
                oldest_kept = msg.epoch - self.config.retain + 1
                for epoch in [e for e in replica.servers if e < oldest_kept]:
                    del replica.servers[epoch]
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
        self._send(
            EpochPublished(
                worker_id=self.config.worker_id,
                epoch=msg.epoch,
                shard_ids=tuple(sorted(self.replicas)),
                polys_repacked=repacked,
                error=error,
            )
        )

    # -- run loop ----------------------------------------------------------
    def run(self) -> None:
        profiler = None
        if self.config.profile:
            # Process-local kernel profiler: every repro.he / repro.pir
            # kernel in this process accumulates into it; totals ride home
            # in WorkerStopped at shutdown.
            profiler = KernelProfiler()
            install_profiler(profiler)
        self._send(WorkerHello(worker_id=self.config.worker_id, pid=os.getpid()))
        beater = threading.Thread(
            target=self._heartbeat_loop,
            name=f"cluster-worker-{self.config.worker_id}-hb",
            daemon=True,
        )
        beater.start()
        try:
            while not self._stop.is_set():
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError):
                    break  # coordinator is gone; nothing left to serve
                if isinstance(msg, AnswerBatch):
                    self._answer_batch(msg)
                elif isinstance(msg, LoadReplica):
                    self._load_replica(msg)
                elif isinstance(msg, PublishEpoch):
                    self._publish_epoch(msg)
                elif isinstance(msg, DropReplica):
                    self.replicas.pop(msg.shard_id, None)
                elif isinstance(msg, Shutdown):
                    stats = profiler.stats_tuple() if profiler is not None else ()
                    self._send(
                        WorkerStopped(
                            worker_id=self.config.worker_id, kernel_stats=stats
                        )
                    )
                    break
                else:
                    raise ClusterError(
                        f"worker {self.config.worker_id} received unknown "
                        f"message {type(msg).__name__}"
                    )
        finally:
            self._stop.set()
            beater.join(timeout=2 * self.config.heartbeat_interval_s)
            try:
                self.conn.close()
            except OSError:
                pass


def worker_main(conn, config: WorkerConfig, setup: ClientSetup) -> None:
    """Spawn target: must stay importable at module top level (spawn-safe)."""
    ClusterWorker(conn, config, setup).run()
