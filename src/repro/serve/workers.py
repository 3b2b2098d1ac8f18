"""Worker pools and clocks: real crypto execution vs virtual-time simulation.

The dispatcher is written against plain asyncio (``loop.time()`` /
``asyncio.sleep``); what varies between deployment and simulation is the
*event loop*, not the serving code:

* real mode — the standard loop plus :class:`RealCryptoBackend`, which runs
  the tier's ``answer_window`` (one batched pass per dispatch window) on a
  thread pool so the event loop stays responsive while cores grind
  external products.
* sim mode — :class:`VirtualTimeLoop`, an event loop whose clock jumps
  straight to the next timer instead of sleeping, plus
  :class:`SimulatedBackend`, which "serves" a batch by sleeping for the
  :class:`~repro.arch.simulator.IveSimulator` batched latency.  A 10k-query
  load test at paper scale finishes in wall-seconds.
* cluster mode — ``repro.cluster.ClusterCoordinator``, the multi-process
  sibling: the same contract, but batches cross a pipe to worker
  processes so real-crypto throughput scales with cores, not one GIL.

What the three share is :class:`WindowExecutor`; "backend" is otherwise
reserved for the compute backend (``repro.he.backend``).
"""

from __future__ import annotations

import asyncio
import math
import selectors
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.serve.registry import ServeRequest, ServingMode, SimShardRegistry


def _trace_backend(
    tracer: Tracer | None,
    name: str,
    shard_id: int,
    requests: list[ServeRequest],
    start_s: float,
    end_s: float,
) -> None:
    """Record one backend-execution span attributed to the batch's trace."""
    if tracer is None:
        return
    tracer.record_span(
        name,
        start_s,
        end_s,
        trace_id=next((r.trace_id for r in requests if r.trace_id is not None), None),
        tid=f"shard-{shard_id}",
        cat="backend",
        batch=len(requests),
    )


class _InstantSelector(selectors.SelectSelector):
    """A selector that never blocks: waiting advances the virtual clock."""

    loop: "VirtualTimeLoop | None" = None

    def select(self, timeout=None):
        if timeout is None:
            # No ready callbacks and no timers: real asyncio would block
            # forever.  In virtual time that is a deadlock — fail loudly.
            raise SimulationError(
                "virtual event loop stalled: tasks are waiting on something "
                "that no timer will ever wake"
            )
        if timeout > 0 and self.loop is not None:
            self.loop.advance(timeout)
        return super().select(0)


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """Event loop running in virtual time.

    ``loop.time()`` starts at 0.0 and only moves when every runnable task
    has yielded and the loop would otherwise sleep until its next timer —
    the idle wait is skipped and the clock jumps forward instead.  All of
    ``asyncio.sleep`` / ``wait_for`` / timeouts work unmodified, which is
    what lets the *same* dispatcher code serve real traffic and simulate
    million-query workloads.
    """

    def __init__(self):
        selector = _InstantSelector()
        super().__init__(selector)
        selector.loop = self
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def advance(self, seconds: float) -> None:
        advanced = self._virtual_now + seconds
        if advanced <= self._virtual_now:
            # The requested step is below one ulp of the current time (the
            # loop asks for `when - now`, which floating point can round to
            # something that no longer moves the sum).  Force minimal
            # progress so the loop cannot spin at a frozen clock.
            advanced = math.nextafter(self._virtual_now, math.inf)
        self._virtual_now = advanced


def run_in_virtual_time(coro) -> tuple[object, float]:
    """Run ``coro`` to completion on a fresh virtual-time loop.

    Returns ``(result, virtual_elapsed_seconds)``.
    """
    loop = VirtualTimeLoop()
    try:
        result = loop.run_until_complete(coro)
        return result, loop.time()
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


@dataclass(frozen=True)
class SimResponse:
    """Placeholder response carried through the sim-mode serving path."""

    global_index: int


class WindowExecutor(Protocol):
    """Where a dispatch window runs: what a ``ServeRuntime`` is handed.

    Threads (:class:`RealCryptoBackend`), virtual time
    (:class:`SimulatedBackend`) and worker processes
    (``repro.cluster.ClusterCoordinator``) differ only in *where* the
    tier's window is answered; the dispatcher sees these two calls.
    """

    async def answer(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """One response per request of one shard's window, in order."""
        ...

    def close(self) -> None:
        """Release what the executor holds; called once by ``drain``."""
        ...


class RealCryptoBackend:
    """The one thread executor: runs a tier's ``answer_window`` off-loop.

    The window's batched pass is the registry's method; this class only
    decides where it runs, the same for every tier.  numpy releases the
    GIL for the heavy modular arithmetic, so a small thread pool gives
    genuine overlap between shards; a process pool is not worth the
    ciphertext pickling cost at these sizes.
    """

    def __init__(
        self,
        registry: ServingMode,
        max_workers: int | None = None,
        tracer: Tracer | None = None,
    ):
        self.registry = registry
        self.tracer = tracer
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="pir-worker"
        )

    async def answer(self, shard_id: int, requests: list[ServeRequest]) -> list:
        loop = asyncio.get_running_loop()
        start_s = loop.time()
        responses = await loop.run_in_executor(
            self._pool, self.registry.answer_window, shard_id, requests
        )
        _trace_backend(
            self.tracer, "backend.real", shard_id, requests, start_s, loop.time()
        )
        return responses

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class SimulatedBackend:
    """Serves a batch by sleeping for the modeled batched latency."""

    def __init__(self, registry: SimShardRegistry, tracer: Tracer | None = None):
        self.registry = registry
        self.tracer = tracer

    async def answer(self, shard_id: int, requests: list[ServeRequest]) -> list:
        loop = asyncio.get_running_loop()
        start_s = loop.time()
        await asyncio.sleep(self.registry.service_seconds(len(requests)))
        _trace_backend(
            self.tracer, "backend.sim", shard_id, requests, start_s, loop.time()
        )
        return [SimResponse(r.global_index) for r in requests]

    def close(self) -> None:
        pass
