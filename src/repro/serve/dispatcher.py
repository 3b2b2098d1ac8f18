"""Admission-controlled, waiting-window batch dispatch (the serving core).

Each shard owns one :class:`ShardDispatcher`: a bounded queue plus an async
run loop that applies the paper's waiting-window policy
(:class:`~repro.systems.batching.BatchPolicy`) — a batch launches when the
oldest query has waited one window, when ``max_batch`` queries are queued,
or immediately while draining.  Batches execute one at a time per shard
(the replica is a single serially-reused accelerator), so the queue keeps
filling while a batch is in flight, exactly like the discrete-event model
in :mod:`repro.systems.queueing`.

Admission control is load shedding at the door: a submit against a full
queue raises :class:`~repro.errors.QueueFullError` instead of letting the
queue — and every queued client's latency — grow without bound.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.errors import (
    ParameterError,
    QueueFullError,
    ServeError,
    ShuttingDownError,
)
from repro.obs import metrics as obs_metrics
from repro.obs.events import FlightRecorder
from repro.obs.trace import Tracer
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ServeRequest
from repro.serve.workers import WindowExecutor
from repro.systems.batching import BatchPolicy

#: Shortest window-countdown sleep.  A residual wait below one nanosecond
#: can be smaller than one ulp of the loop clock, in which case the timer
#: would fire without time having visibly advanced and the countdown loop
#: would spin at a frozen ``oldest_wait`` forever.
_MIN_WAIT_S = 1e-9


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded-queue admission control for one shard."""

    max_queue_depth: int = 1024

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ParameterError("queue depth must be at least 1")


@dataclass
class _Pending:
    request: ServeRequest
    arrival_s: float
    future: asyncio.Future


@dataclass(frozen=True)
class ServeResult:
    """What a served query resolves to."""

    request: ServeRequest
    response: object
    arrival_s: float
    dispatch_s: float
    finish_s: float
    batch_size: int

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.arrival_s


class ShardDispatcher:
    """Waiting-window batch scheduler for one shard replica."""

    def __init__(
        self,
        shard_id: int,
        backend: WindowExecutor,
        policy: BatchPolicy,
        admission: AdmissionConfig,
        metrics: ServeMetrics,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ):
        self.shard_id = shard_id
        self.backend = backend
        self.policy = policy
        self.admission = admission
        self.metrics = metrics
        self.tracer = tracer
        self.recorder = recorder
        self._tid = f"shard-{shard_id}"
        self._queue: deque[_Pending] = deque()
        self._arrived = asyncio.Event()
        self._draining = False
        self._task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.create_task(
                self._run(), name=f"shard-{self.shard_id}-dispatcher"
            )

    async def drain(self) -> None:
        """Flush the queue (ignoring the window) and stop the run loop."""
        self._draining = True
        self._arrived.set()
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- admission ---------------------------------------------------------
    def submit(self, request: ServeRequest) -> asyncio.Future:
        """Enqueue or shed.  Synchronous: admission is decided at the door."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        if self.tracer is not None and request.trace_id is None:
            # The trace id is minted at the admission door — even a shed
            # query leaves a (zero-duration) mark in the timeline.
            request.trace_id = self.tracer.mint()
        if self._draining:
            self.metrics.record_submit(accepted=False, now_s=now)
            self._trace_reject(request, now, "shutting-down")
            raise ShuttingDownError(
                f"shard {self.shard_id} is draining; query rejected"
            )
        if len(self._queue) >= self.admission.max_queue_depth:
            self.metrics.record_submit(accepted=False, now_s=now)
            self._trace_reject(request, now, "queue-full")
            raise QueueFullError(
                f"shard {self.shard_id} queue at capacity "
                f"({self.admission.max_queue_depth}); query shed"
            )
        self.metrics.record_submit(accepted=True, now_s=now)
        pending = _Pending(request=request, arrival_s=now, future=loop.create_future())
        self._queue.append(pending)
        self.metrics.record_queue_depth(len(self._queue))
        self._arrived.set()
        return pending.future

    def _trace_reject(self, request: ServeRequest, now: float, reason: str) -> None:
        if self.tracer is not None:
            self.tracer.record_instant(
                "serve.reject",
                now,
                trace_id=request.trace_id,
                tid=self._tid,
                reason=reason,
            )
        if self.recorder is not None:
            self.recorder.record(
                "admission.reject",
                now,
                trace_ids=(request.trace_id,),
                shard=self.shard_id,
                reason=reason,
                queue_depth=len(self._queue),
            )

    # -- run loop ----------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if self._draining:
                    return
                self._arrived.clear()
                await self._arrived.wait()
                continue
            # Window countdown: wait until the policy fires or drain starts.
            while not self._draining:
                self._arrived.clear()
                oldest_wait = loop.time() - self._queue[0].arrival_s
                if self.policy.should_dispatch(len(self._queue), oldest_wait):
                    break
                remaining = self.policy.waiting_window_s - oldest_wait
                try:
                    # Wakes early if the queue grows (possibly to max_batch).
                    await asyncio.wait_for(
                        self._arrived.wait(), max(remaining, _MIN_WAIT_S)
                    )
                except asyncio.TimeoutError:  # builtin alias only since 3.11
                    pass
            batch = [
                self._queue.popleft()
                for _ in range(min(self.policy.max_batch, len(self._queue)))
            ]
            self.metrics.record_dispatch(self.shard_id, len(batch), len(self._queue))
            if self.recorder is not None:
                self.recorder.record(
                    "batch.dispatch",
                    loop.time(),
                    trace_ids=(batch[0].request.trace_id,),
                    shard=self.shard_id,
                    batch=len(batch),
                    queue_depth=len(self._queue),
                    oldest_wait_s=loop.time() - batch[0].arrival_s,
                )
            await self._serve(batch)

    async def _serve(self, batch: list[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        dispatch_s = loop.time()
        try:
            responses = await self.backend.answer(
                self.shard_id, [p.request for p in batch]
            )
        except Exception as exc:  # noqa: BLE001 — fault isolation per batch
            finish_s = loop.time()
            self.metrics.record_failed(self.shard_id, len(batch), finish_s=finish_s)
            if self.recorder is not None:
                self.recorder.record(
                    "batch.failed",
                    finish_s,
                    trace_ids=tuple(p.request.trace_id for p in batch),
                    shard=self.shard_id,
                    batch=len(batch),
                    error=type(exc).__name__,
                )
            if self.tracer is not None:
                self.tracer.record_span(
                    "serve.batch",
                    dispatch_s,
                    finish_s,
                    trace_id=batch[0].request.trace_id,
                    tid=self._tid,
                    batch=len(batch),
                    error=type(exc).__name__,
                )
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        finish_s = loop.time()
        if self.tracer is not None:
            self.tracer.record_span(
                "serve.batch",
                dispatch_s,
                finish_s,
                trace_id=batch[0].request.trace_id,
                tid=self._tid,
                batch=len(batch),
            )
        for pending, response in zip(batch, responses):
            result = ServeResult(
                request=pending.request,
                response=response,
                arrival_s=pending.arrival_s,
                dispatch_s=dispatch_s,
                finish_s=finish_s,
                batch_size=len(batch),
            )
            self.metrics.record_served(
                self.shard_id, result.latency_s, result.queue_wait_s, finish_s
            )
            if self.tracer is not None:
                self.tracer.record_span(
                    "serve.request",
                    pending.arrival_s,
                    finish_s,
                    trace_id=pending.request.trace_id,
                    tid=self._tid,
                    batch=len(batch),
                )
                self.tracer.record_span(
                    "serve.queue",
                    pending.arrival_s,
                    dispatch_s,
                    trace_id=pending.request.trace_id,
                    tid=self._tid,
                )
            if not pending.future.done():
                pending.future.set_result(result)


class ServeRuntime:
    """The multi-shard serving runtime: registry + backend + dispatchers.

    Usage::

        runtime = ServeRuntime(registry, backend, policy)
        async with runtime:
            result = await runtime.serve_index(123)
    """

    def __init__(
        self,
        registry,
        backend: WindowExecutor,
        policy: BatchPolicy,
        admission: AdmissionConfig | None = None,
        metrics: ServeMetrics | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ):
        self.registry = registry
        self.backend = backend
        self.policy = policy
        self.admission = admission if admission is not None else AdmissionConfig()
        num_shards = registry.map.num_shards
        self.metrics = metrics if metrics is not None else ServeMetrics(num_shards)
        self.tracer = tracer
        self.recorder = recorder
        self._outer_registry = None
        if recorder is not None:
            # Post-mortems capture the serving state at the fatal event.
            recorder.attach_source("serve_metrics", self.metrics.snapshot)
            recorder.attach_source("live_series", self.metrics.live_series)
        self.dispatchers = [
            ShardDispatcher(
                s, backend, policy, self.admission, self.metrics, tracer, recorder
            )
            for s in range(num_shards)
        ]

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        # Kernel-side cliff counters (window/group sizes, ...) of the
        # servers this runtime drives land in its registry, next to the
        # serving counters the Prometheus/JSONL exports already read.
        self._outer_registry = obs_metrics.install(self.metrics.registry)
        for dispatcher in self.dispatchers:
            dispatcher.start()

    async def drain(self) -> None:
        """Serve everything queued, then stop accepting and shut down."""
        await asyncio.gather(*(d.drain() for d in self.dispatchers))
        self.backend.close()
        if obs_metrics.active() is self.metrics.registry:
            obs_metrics.install(self._outer_registry)

    async def __aenter__(self) -> "ServeRuntime":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # -- serving -----------------------------------------------------------
    def submit(self, request: ServeRequest) -> asyncio.Future:
        """Route to the shard dispatcher; raises typed errors when shed.

        A request that will never reach ``registry.decode`` — shed here,
        or failed with its window — is released on the caller's behalf,
        so whatever ``make_request`` pinned for it (an epoch snapshot on
        the plain tier) cannot outlive it.
        """
        shard_id = self.registry.map.check_shard(request.shard_id)
        try:
            future = self.dispatchers[shard_id].submit(request)
        except ServeError:
            self.registry.release(request)
            raise
        future.add_done_callback(partial(self._release_unserved, request))
        return future

    def _release_unserved(self, request: ServeRequest, future: asyncio.Future) -> None:
        # A caller that cancels its own future still has its request
        # answered with the window, so its pin must outlive the cancel.
        if not future.cancelled() and future.exception() is not None:
            self.registry.release(request)

    async def serve(self, request: ServeRequest) -> ServeResult:
        return await self.submit(request)

    async def serve_index(self, item) -> ServeResult:
        """Convenience: route, build the query, and await the result.

        ``item`` is whatever the registry's ``make_request`` takes: a
        record index, or a key on the keyword tier — where the response is
        the value bytes, or ``None`` for an absent key, which
        ``registry.decode`` turns into the typed ``KeyNotFound``.
        """
        return await self.serve(self.registry.make_request(item))

    async def serve_many(self, items) -> list[ServeResult]:
        """Submit a multi-record fetch in one shot and await all results.

        All requests are submitted before any is awaited, so queries for
        the same shard land in the same waiting window whenever the policy
        allows — which is what lets a batch-aware tier (e.g.
        ``repro.batchpir.serving.BatchServeRegistry.answer_window``)
        coalesce the window's distinct indices into one amortized pass.
        """
        requests = [self.registry.make_request(item) for item in items]
        futures: list[asyncio.Future] = []
        error: BaseException | None = None
        try:
            for request in requests:
                futures.append(self.submit(request))
        except ServeError as exc:
            error = exc
        # Don't abandon what was already enqueued — those batches still
        # execute; retrieve them before surfacing any failure.
        outcomes = await asyncio.gather(*futures, return_exceptions=True)
        if error is None:
            error = next((o for o in outcomes if isinstance(o, BaseException)), None)
        if error is None:
            return list(outcomes)
        # All or nothing: the caller decodes none of these, so drop the
        # pins submit() has not dropped already (it released the shed
        # request and every request of a failed window).
        never_submitted = requests[len(futures) + 1 :]
        served = [
            r for r, o in zip(requests, outcomes) if not isinstance(o, BaseException)
        ]
        for request in served + never_submitted:
            self.registry.release(request)
        raise error

    #: Keyword-tier spellings of the same two calls.
    serve_key = serve_index
    serve_keys = serve_many
