"""Cluster coordinator: spawn, route, health-check, retry, rebalance.

The coordinator is the master of the master/worker runtime.  It spawns N
worker processes (``multiprocessing`` spawn context — no inherited
state), assigns each shard ``replication`` replicas round-robin, and
then mediates all traffic over one duplex pipe per worker:

* **Answering.**  :meth:`answer` takes one dispatcher batch, groups it by
  admitted epoch (a window that straddles a publish legitimately mixes
  epochs), picks the least-loaded live replica per group, and awaits the
  typed ack.  Batches in flight on a worker that dies are retried on a
  surviving replica — or on a freshly rebalanced one — until the attempt
  budget runs out, at which point the caller gets the typed
  :class:`~repro.errors.WorkerDied`; a response is therefore either
  byte-correct or a typed rejection, never silently wrong.
* **Health.**  Every worker heartbeats from an independent thread; a
  monitor task declares a worker dead when its process exits *or* its
  beacons stop for ``heartbeat_timeout_s`` (a SIGSTOP'd or livelocked
  process fails the same way as a crashed one).
* **Rebalancing.**  When a shard loses its last replica, the coordinator
  re-ships that shard's current-epoch records to the least-loaded
  survivor and resumes routing once the replica acks.
* **Epoch publish.**  :meth:`publish` validates the log client-side,
  broadcasts per-shard ops to every live worker, and commits the new
  epoch for admissions only after all acks — in-flight requests keep
  their admitted epoch (answered from each worker's retention window).
* **Drain.**  :meth:`aclose` stops routing, sends ``Shutdown``, joins the
  processes off-loop, and force-kills stragglers.

Reader threads never touch coordinator state directly: every inbound
message is marshalled onto the event loop with ``call_soon_threadsafe``,
so all bookkeeping is single-threaded on the loop.  Outbound messages
ride a per-worker writer thread for the mirror-image reason: a pipe
``send`` to a stalled (SIGSTOP'd, livelocked) worker blocks once the OS
buffer fills, and doing that on the loop would freeze the very monitor
that is supposed to declare the worker dead.  The writer thread absorbs
the block; the heartbeat monitor kills the process, which unblocks the
write with ``EPIPE`` and lets the thread exit.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import queue
import threading
from dataclasses import dataclass, field

from repro import errors as _errors
from repro.errors import (
    ClusterError,
    NoReplicaError,
    ParameterError,
    StaleEpoch,
    WorkerDied,
)
from repro.he.backend import get_backend
from repro.mutate.log import UpdateLog, split_by_shard
from repro.obs.events import FlightRecorder
from repro.obs.profile import KernelProfiler
from repro.obs.trace import Tracer
from repro.serve.registry import ServeRequest, group_by_epoch

from repro.cluster.messages import (
    AnswerBatch,
    BatchDone,
    BatchFailed,
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
from repro.cluster.worker import worker_main


@dataclass
class _Inflight:
    """One answer batch awaiting its ack from a specific worker."""

    batch_id: int
    shard_id: int
    epoch: int
    queries: tuple
    future: asyncio.Future
    #: Trace ids of the batch's requests — the cross-link the flight
    #: recorder stamps into a worker-death event so a post-mortem can name
    #: exactly which in-flight traces the death victimized.
    trace_ids: tuple = ()


#: Sentinel telling a worker's writer thread to exit its send loop.
_WRITER_STOP = object()


@dataclass
class _Worker:
    worker_id: int
    process: multiprocessing.Process
    conn: object
    shards: set[int] = field(default_factory=set)
    alive: bool = True
    last_seen: float = 0.0
    inflight: dict[int, _Inflight] = field(default_factory=dict)
    loading: dict[int, asyncio.Future] = field(default_factory=dict)
    publish_acks: dict[int, asyncio.Future] = field(default_factory=dict)
    reader: threading.Thread | None = None
    writer: threading.Thread | None = None
    outbox: queue.SimpleQueue = field(default_factory=queue.SimpleQueue)


@dataclass(frozen=True)
class ClusterPublishResult:
    """Outcome of one cross-process epoch publish."""

    epoch: int
    polys_repacked: int
    acked_workers: tuple[int, ...]
    lost_workers: tuple[int, ...]


@dataclass
class ClusterStats:
    """Coordinator-side counters (the cluster analog of ServeMetrics)."""

    batches_sent: int = 0
    batches_retried: int = 0
    worker_deaths: int = 0
    #: Deaths declared specifically because beacons stopped (a subset of
    #: ``worker_deaths``) — distinguishes a hung process from a crashed one.
    heartbeat_timeouts: int = 0
    rebalanced_shards: int = 0
    epochs_published: int = 0


class ClusterCoordinator:
    """Owns the worker fleet for one :class:`ClusterRegistry`."""

    def __init__(
        self,
        registry: ClusterRegistry,
        num_workers: int,
        replication: int = 1,
        heartbeat_interval_s: float = 0.25,
        heartbeat_timeout_s: float = 10.0,
        max_attempts: int = 3,
        retain: int = 2,
        backend: str | None = None,
        tracer: Tracer | None = None,
        profiler: KernelProfiler | None = None,
        recorder: FlightRecorder | None = None,
    ):
        if num_workers < 1:
            raise ParameterError("need at least one worker process")
        if not 1 <= replication <= num_workers:
            raise ParameterError(
                f"replication {replication} must be in [1, {num_workers}]"
            )
        if max_attempts < 1:
            raise ParameterError("need at least one answer attempt")
        if heartbeat_timeout_s <= heartbeat_interval_s:
            raise ParameterError("heartbeat timeout must exceed the interval")
        self.registry = registry
        self.num_workers = num_workers
        self.replication = replication
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.max_attempts = max_attempts
        self.retain = retain
        # Validate the name eagerly — a typo should fail here, not in a
        # spawned worker; only the registry key travels in WorkerConfig.
        self.backend = get_backend(backend).name
        #: When set, workers are spawned with trace/profile on: they time
        #: answers (spans ride home in BatchDone, merged into the tracer)
        #: and accumulate kernel stats (merged at WorkerStopped).
        self.tracer = tracer
        self.profiler = profiler
        self.recorder = recorder
        if recorder is not None:
            recorder.attach_source("cluster", self.cluster_snapshot)
        self.stats = ClusterStats()
        self._workers: dict[int, _Worker] = {}
        #: shard id -> worker ids with a *ready* replica.
        self._owners: dict[int, set[int]] = {
            s: set() for s in range(registry.num_shards)
        }
        self._batch_ids = itertools.count()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._monitor_task: asyncio.Task | None = None
        self._topology_lock: asyncio.Lock | None = None
        self._draining = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Spawn the fleet and wait until every shard has its replicas."""
        if self._started:
            raise ClusterError("coordinator already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._topology_lock = asyncio.Lock()
        ctx = multiprocessing.get_context("spawn")
        seed = self.registry.seed
        for worker_id in range(self.num_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            config = WorkerConfig(
                worker_id=worker_id,
                params=self.registry.params,
                record_bytes=self.registry.record_bytes,
                heartbeat_interval_s=self.heartbeat_interval_s,
                retain=self.retain,
                seed=None if seed is None else seed + worker_id,
                backend=self.backend,
                trace=self.tracer is not None,
                profile=self.profiler is not None,
            )
            process = ctx.Process(
                target=worker_main,
                args=(child_conn, config, self.registry.setup),
                name=f"pir-cluster-worker-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(
                worker_id=worker_id,
                process=process,
                conn=parent_conn,
                last_seen=self._loop.time(),
            )
            worker.reader = threading.Thread(
                target=self._reader_loop,
                args=(worker,),
                name=f"cluster-reader-{worker_id}",
                daemon=True,
            )
            worker.reader.start()
            worker.writer = threading.Thread(
                target=self._writer_loop,
                args=(worker,),
                name=f"cluster-writer-{worker_id}",
                daemon=True,
            )
            worker.writer.start()
            self._workers[worker_id] = worker
        # Monitor first: a worker that dies while preprocessing its replicas
        # must fail start() with a typed error, not hang it.
        self._monitor_task = asyncio.create_task(
            self._monitor(), name="cluster-health-monitor"
        )
        loads = []
        for shard_id in range(self.registry.num_shards):
            for r in range(self.replication):
                worker = self._workers[(shard_id + r) % self.num_workers]
                loads.append(self._load_replica(worker, shard_id))
        await asyncio.gather(*loads)

    async def __aenter__(self) -> "ClusterCoordinator":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def close(self) -> None:
        """``WindowExecutor.close``: nothing to do.  The fleet's lifetime is
        this object's own async context, so one fleet outlives many
        runtimes and is drained exactly once (:meth:`aclose`)."""

    async def aclose(self) -> None:
        """Graceful drain: stop routing, shut workers down, reap processes."""
        if self._draining:
            return
        self._draining = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
        for worker in self._workers.values():
            if worker.alive:
                self._send(worker, Shutdown())
        join_timeout = max(5.0, 4 * self.heartbeat_timeout_s)
        await asyncio.gather(
            *(
                asyncio.get_running_loop().run_in_executor(
                    None, w.process.join, join_timeout
                )
                for w in self._workers.values()
            )
        )
        for worker in self._workers.values():
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.reader is not None:
                worker.reader.join(timeout=2.0)
            if worker.writer is not None:
                worker.outbox.put(_WRITER_STOP)
                worker.writer.join(timeout=2.0)
            # Whatever was still pending dies typed, not dangling.
            self._fail_worker_state(worker, reason="coordinator drained")

    @property
    def live_workers(self) -> tuple[int, ...]:
        return tuple(sorted(w.worker_id for w in self._workers.values() if w.alive))

    # -- reader thread -> loop marshalling ---------------------------------
    def _reader_loop(self, worker: _Worker) -> None:
        while True:
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                break
            self._loop.call_soon_threadsafe(self._on_message, worker, msg)
        self._loop.call_soon_threadsafe(
            self._on_worker_death, worker, "pipe closed (process exited)"
        )

    def _on_message(self, worker: _Worker, msg) -> None:
        worker.last_seen = self._loop.time()
        if isinstance(msg, BatchDone):
            if msg.spans and self.tracer is not None:
                self.tracer.extend(msg.spans)
            inflight = worker.inflight.pop(msg.batch_id, None)
            if inflight is not None and not inflight.future.done():
                inflight.future.set_result(list(msg.responses))
        elif isinstance(msg, BatchFailed):
            inflight = worker.inflight.pop(msg.batch_id, None)
            if inflight is not None and not inflight.future.done():
                inflight.future.set_exception(self._reconstruct(msg))
        elif isinstance(msg, Heartbeat):
            pass  # last_seen already refreshed above
        elif isinstance(msg, ReplicaLoaded):
            worker.shards.add(msg.shard_id)
            self._owners[msg.shard_id].add(worker.worker_id)
            future = worker.loading.pop(msg.shard_id, None)
            if future is not None and not future.done():
                future.set_result(msg)
        elif isinstance(msg, EpochPublished):
            future = worker.publish_acks.pop(msg.epoch, None)
            if future is not None and not future.done():
                if msg.error is None:
                    future.set_result(msg)
                else:
                    future.set_exception(
                        ClusterError(
                            f"worker {worker.worker_id} failed publish of epoch "
                            f"{msg.epoch}: {msg.error}"
                        )
                    )
        elif isinstance(msg, WorkerStopped):
            if msg.kernel_stats and self.profiler is not None:
                self.profiler.merge_tuples(msg.kernel_stats)
        elif isinstance(msg, WorkerHello):
            pass  # liveness bookkeeping only

    @staticmethod
    def _reconstruct(msg: BatchFailed) -> Exception:
        """Rebuild the worker's typed error on the coordinator side."""
        if msg.error_kind == "StaleEpoch" and len(msg.details) == 3:
            return StaleEpoch(*msg.details)
        kind = getattr(_errors, msg.error_kind, None)
        if isinstance(kind, type) and issubclass(kind, _errors.ReproError):
            try:
                return kind(msg.message)
            except TypeError:
                pass  # custom constructor; fall through to the generic kind
        return ClusterError(f"{msg.error_kind}: {msg.message}")

    # -- failure handling --------------------------------------------------
    def _on_worker_death(self, worker: _Worker, reason: str) -> None:
        if not worker.alive:
            return
        worker.alive = False
        if not self._draining:
            self.stats.worker_deaths += 1
            if self.recorder is not None:
                # Before the inflight map is failed+cleared: the event must
                # cross-link every trace the death victimized, and the dump
                # it triggers must still see the batches as in flight.
                victims = tuple(
                    t
                    for inflight in worker.inflight.values()
                    for t in inflight.trace_ids
                )
                self.recorder.record(
                    "worker.death",
                    self._loop.time(),
                    trace_ids=victims,
                    worker=worker.worker_id,
                    reason=reason,
                    shards=sorted(worker.shards),
                    inflight_batches=len(worker.inflight),
                )
        if worker.process.is_alive():
            worker.process.kill()  # hung/stopped, not exited: put it down
        for shard_id in worker.shards:
            self._owners[shard_id].discard(worker.worker_id)
        self._fail_worker_state(worker, reason)
        if self._draining:
            return
        for shard_id in sorted(worker.shards):
            if not self._owners[shard_id]:
                asyncio.ensure_future(self._rebalance_quietly(shard_id))

    async def _rebalance_quietly(self, shard_id: int) -> None:
        """Proactive rebalance after a death; demand-side retries also run
        :meth:`_ensure_replica`, so a failure here is not fatal on its own."""
        try:
            await self._ensure_replica(shard_id)
        except NoReplicaError:
            pass

    def _fail_worker_state(self, worker: _Worker, reason: str) -> None:
        died = WorkerDied(worker.worker_id, reason)
        for inflight in list(worker.inflight.values()):
            if not inflight.future.done():
                inflight.future.set_exception(died)
        worker.inflight.clear()
        for future in list(worker.loading.values()):
            if not future.done():
                future.set_exception(died)
        worker.loading.clear()
        for future in list(worker.publish_acks.values()):
            if not future.done():
                future.set_exception(died)
        worker.publish_acks.clear()

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval_s)
            now = self._loop.time()
            for worker in list(self._workers.values()):
                if not worker.alive:
                    continue
                if not worker.process.is_alive():
                    self._on_worker_death(worker, "process exited")
                elif now - worker.last_seen > self.heartbeat_timeout_s:
                    self.stats.heartbeat_timeouts += 1
                    if self.recorder is not None:
                        self.recorder.record(
                            "heartbeat.timeout",
                            now,
                            worker=worker.worker_id,
                            last_seen_age_s=now - worker.last_seen,
                            timeout_s=self.heartbeat_timeout_s,
                        )
                    self._on_worker_death(
                        worker,
                        f"no heartbeat for {now - worker.last_seen:.1f}s "
                        f"(timeout {self.heartbeat_timeout_s:.1f}s)",
                    )

    # -- replica placement -------------------------------------------------
    def _send(self, worker: _Worker, msg) -> None:
        """Queue ``msg`` for the worker's writer thread; never blocks.

        A failed send surfaces asynchronously: the writer thread marshals
        a death onto the loop, which fails every pending future for that
        worker with a typed :class:`WorkerDied` — so callers just await
        their ack instead of branching on a send result.
        """
        worker.outbox.put(msg)

    def _writer_loop(self, worker: _Worker) -> None:
        while True:
            msg = worker.outbox.get()
            if msg is _WRITER_STOP:
                break
            try:
                worker.conn.send(msg)
            except (BrokenPipeError, OSError):
                try:
                    self._loop.call_soon_threadsafe(
                        self._on_worker_death, worker, "pipe broke on send"
                    )
                except RuntimeError:
                    pass  # loop already closed during teardown
                break

    def _load_replica(self, worker: _Worker, shard_id: int) -> asyncio.Future:
        future = self._loop.create_future()
        worker.loading[shard_id] = future
        self._send(
            worker,
            LoadReplica(
                shard_id=shard_id,
                epoch=self.registry.current_epoch,
                records=self.registry.shard_records(shard_id),
            ),
        )
        return future

    async def _ensure_replica(self, shard_id: int) -> int:
        """Rebalance: guarantee at least one live replica of ``shard_id``.

        Serialized against publishes by the topology lock so a rebalance
        load cannot interleave an epoch broadcast and come up one epoch
        behind the admissible one.
        """
        async with self._topology_lock:
            owners = [w for w in self._owners[shard_id] if self._workers[w].alive]
            if owners:
                return owners[0]
            candidates = [w for w in self._workers.values() if w.alive]
            if not candidates:
                raise NoReplicaError(
                    f"shard {shard_id} lost all replicas and no worker is left"
                )
            target = min(candidates, key=lambda w: (len(w.shards), w.worker_id))
            try:
                await self._load_replica(target, shard_id)
            except WorkerDied:
                raise NoReplicaError(
                    f"shard {shard_id}: rebalance target worker "
                    f"{target.worker_id} died while loading"
                ) from None
            self.stats.rebalanced_shards += 1
            if self.recorder is not None:
                self.recorder.record(
                    "shard.rebalance",
                    self._loop.time(),
                    shard=shard_id,
                    target_worker=target.worker_id,
                    epoch=self.registry.current_epoch,
                )
            return target.worker_id

    def _pick_worker(self, shard_id: int, exclude: set[int]) -> _Worker | None:
        owners = [
            self._workers[w]
            for w in self._owners[shard_id]
            if w not in exclude and self._workers[w].alive
        ]
        if not owners:
            return None
        return min(owners, key=lambda w: (len(w.inflight), w.worker_id))

    # -- the serving backend interface ------------------------------------
    async def answer(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """Answer one dispatcher batch; the third backend's entry point."""
        shard_id = self.registry.map.check_shard(shard_id)
        if self._draining:
            raise ClusterError("cluster coordinator is draining")
        results: list = [None] * len(requests)

        async def serve_group(epoch: int, positions: list[int]) -> None:
            queries = tuple(requests[i].query for i in positions)
            trace_ids = tuple(requests[i].trace_id for i in positions)
            if all(t is None for t in trace_ids):
                trace_ids = ()
            responses = await self._answer_group(
                shard_id, epoch, queries, trace_ids
            )
            for i, response in zip(positions, responses):
                results[i] = response
        await asyncio.gather(
            *(serve_group(e, p) for e, p in group_by_epoch(requests).items())
        )
        return results

    async def _answer_group(
        self,
        shard_id: int,
        epoch: int,
        queries: tuple,
        trace_ids: tuple = (),
    ) -> list:
        tried: set[int] = set()
        for attempt in range(self.max_attempts):
            worker = self._pick_worker(shard_id, exclude=tried)
            if worker is None:
                target = await self._ensure_replica(shard_id)
                worker = self._workers[target]
                if not worker.alive:
                    continue
            batch_id = next(self._batch_ids)
            future = self._loop.create_future()
            worker.inflight[batch_id] = _Inflight(
                batch_id=batch_id,
                shard_id=shard_id,
                epoch=epoch,
                queries=queries,
                future=future,
                trace_ids=trace_ids,
            )
            self.stats.batches_sent += 1
            rpc_start = self._loop.time()
            self._send(
                worker,
                AnswerBatch(
                    batch_id=batch_id,
                    shard_id=shard_id,
                    epoch=epoch,
                    queries=queries,
                    trace_ids=trace_ids,
                ),
            )
            try:
                responses = await future
            except WorkerDied as died:
                tried.add(worker.worker_id)
                if attempt + 1 >= self.max_attempts:
                    raise
                self.stats.batches_retried += 1
                self._record_retry(worker, shard_id, trace_ids, attempt,
                                   died.reason)
                continue
            self._trace_rpc(
                worker, shard_id, epoch, trace_ids, len(queries),
                attempt, rpc_start,
            )
            return responses
        raise WorkerDied(
            worker_id=-1,
            reason=f"shard {shard_id}: no attempt out of "
            f"{self.max_attempts} reached a live replica",
        )

    def _record_retry(
        self,
        worker: _Worker,
        shard_id: int,
        trace_ids: tuple,
        attempt: int,
        reason: str,
    ) -> None:
        if self.recorder is not None:
            self.recorder.record(
                "batch.retry",
                self._loop.time(),
                trace_ids=trace_ids,
                shard=shard_id,
                dead_worker=worker.worker_id,
                attempt=attempt,
                reason=reason,
            )

    def _trace_rpc(
        self,
        worker: _Worker,
        shard_id: int,
        epoch: int,
        trace_ids: tuple,
        batch: int,
        attempt: int,
        start_s: float,
    ) -> None:
        """Record the coordinator-side send-to-ack window of one RPC."""
        if self.tracer is None:
            return
        self.tracer.record_span(
            "cluster.rpc",
            start_s,
            self._loop.time(),
            trace_id=next((t for t in trace_ids if t is not None), None),
            tid=f"worker-{worker.worker_id}",
            cat="cluster",
            shard=shard_id,
            epoch=epoch,
            batch=batch,
            attempt=attempt,
        )

    # -- observability -----------------------------------------------------
    def cluster_snapshot(self) -> dict:
        """Fault counters + per-worker health, JSON-ready.

        The cluster analog of ``ServeMetrics.snapshot()``: everything an
        operator (or the failure-injection tests) needs to see whether the
        fleet is healthy and what the coordinator did about it when it
        was not.
        """
        now = self._loop.time() if self._loop is not None else 0.0
        workers = {}
        for worker_id, worker in sorted(self._workers.items()):
            workers[str(worker_id)] = {
                "alive": worker.alive,
                "pid": worker.process.pid,
                "shards": sorted(worker.shards),
                "inflight": len(worker.inflight),
                "last_seen_age_s": max(0.0, now - worker.last_seen),
            }
        return {
            "live_workers": list(self.live_workers),
            "batches_sent": self.stats.batches_sent,
            "batches_retried": self.stats.batches_retried,
            "worker_deaths": self.stats.worker_deaths,
            "heartbeat_timeouts": self.stats.heartbeat_timeouts,
            "rebalanced_shards": self.stats.rebalanced_shards,
            "epochs_published": self.stats.epochs_published,
            "workers": workers,
        }

    # -- epoch publish -----------------------------------------------------
    async def publish(self, log: UpdateLog) -> ClusterPublishResult:
        """Atomic cross-shard epoch publish over every live worker.

        The log is fully validated client-side before anything is sent;
        the new epoch becomes admissible only once every live worker has
        acked, so no admitted request can ever target a replica that has
        not built that epoch.  A worker that dies mid-publish loses its
        replicas (rebalanced at the committed epoch); it cannot hold the
        cluster at the old epoch.
        """
        shard_ops = split_by_shard(
            log, self.registry.map, self.registry.record_bytes
        )
        async with self._topology_lock:
            epoch = self.registry.current_epoch + 1
            acks: list[tuple[_Worker, asyncio.Future]] = []
            for worker in self._workers.values():
                if not worker.alive:
                    continue
                future = self._loop.create_future()
                worker.publish_acks[epoch] = future
                owned = {
                    s: shard_ops[s] for s in sorted(worker.shards) if shard_ops[s]
                }
                # Collect the ack future even if the send fails: the death
                # handler fails it with WorkerDied, which gather collects.
                acks.append((worker, future))
                self._send(worker, PublishEpoch(epoch=epoch, shard_ops=owned))
            outcomes = await asyncio.gather(
                *(f for _, f in acks), return_exceptions=True
            )
            acked: list[int] = []
            lost: list[int] = []
            repacked = 0
            for (worker, _), outcome in zip(acks, outcomes):
                if isinstance(outcome, WorkerDied):
                    lost.append(worker.worker_id)
                elif isinstance(outcome, BaseException):
                    raise outcome
                else:
                    acked.append(worker.worker_id)
                    repacked += outcome.polys_repacked
            if not acked:
                raise NoReplicaError(
                    f"epoch {epoch} publish reached no live worker"
                )
            self.registry.commit_publish(epoch, shard_ops)
            self.stats.epochs_published += 1
            if self.recorder is not None:
                self.recorder.record(
                    "epoch.publish",
                    self._loop.time(),
                    epoch=epoch,
                    acked_workers=sorted(acked),
                    lost_workers=sorted(lost),
                    polys_repacked=repacked,
                )
        # Workers lost mid-publish orphan their shards; rebalance them at
        # the committed epoch (outside the lock — _ensure_replica takes it).
        for shard_id, owners in self._owners.items():
            if not any(self._workers[w].alive for w in owners):
                await self._ensure_replica(shard_id)
        return ClusterPublishResult(
            epoch=epoch,
            polys_repacked=repacked,
            acked_workers=tuple(acked),
            lost_workers=tuple(lost),
        )
