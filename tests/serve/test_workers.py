"""Worker-pool lifecycle: shutdown, drain, and in-flight cancellation.

The serving runtime owns real thread pools; these tests pin the contract
that draining leaves no orphaned futures (every submitted query resolves
or errors), that closing a backend actually tears its pool down, and that
a caller cancelling its own future neither crashes the dispatcher nor
starves the rest of the batch.  The one executor serves every tier; its
per-tier cases (round trip, idempotent close) live in
``test_serving_mode.py``.
"""

import asyncio

import pytest

from repro.params import PirParams
from repro.serve import (
    RealCryptoBackend,
    RealShardRegistry,
    ServeRuntime,
)
from repro.systems.batching import BatchPolicy


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


@pytest.fixture(scope="module")
def registry(params):
    return RealShardRegistry.random(
        params, num_records=16, record_bytes=32, num_shards=2, seed=1
    )


class TestDrainLeavesNoOrphans:
    def test_drain_resolves_every_queued_future(self, registry):
        """A long window never fires on its own; drain must flush it."""
        backend = RealCryptoBackend(registry)
        policy = BatchPolicy(waiting_window_s=60.0, max_batch=64)

        async def main():
            runtime = ServeRuntime(registry, backend, policy)
            runtime.start()
            futures = [
                runtime.submit(registry.make_request(i % registry.num_records))
                for i in range(6)
            ]
            await runtime.drain()
            return futures

        futures = asyncio.run(main())
        assert all(f.done() and not f.cancelled() for f in futures)
        for f in futures:
            result = f.result()
            assert registry.decode(result.request, result.response) == (
                registry.expected(result.request.global_index)
            )

    def test_drain_closes_the_thread_pool(self, registry):
        backend = RealCryptoBackend(registry)

        async def main():
            runtime = ServeRuntime(
                registry, backend, BatchPolicy(waiting_window_s=0.01, max_batch=4)
            )
            async with runtime:
                await runtime.serve_index(3)

        asyncio.run(main())
        assert backend._pool._shutdown  # drain() called backend.close()

    def test_failing_backend_resolves_futures_with_the_error(self, registry):
        class ExplodingBackend:
            def __init__(self):
                self.closed = False

            async def answer(self, shard_id, requests):
                raise RuntimeError("boom")

            def close(self):
                self.closed = True

        backend = ExplodingBackend()

        async def main():
            runtime = ServeRuntime(
                registry, backend, BatchPolicy(waiting_window_s=0.01, max_batch=4)
            )
            runtime.start()
            futures = [
                runtime.submit(registry.make_request(i)) for i in range(4)
            ]
            await runtime.drain()
            return futures

        futures = asyncio.run(main())
        assert backend.closed
        for f in futures:
            assert f.done()
            with pytest.raises(RuntimeError, match="boom"):
                f.result()


class TestBackendClose:
    def test_closed_pool_rejects_new_work(self, registry):
        backend = RealCryptoBackend(registry)
        backend.close()
        request = registry.make_request(0)

        async def main():
            await backend.answer(0, [request])

        with pytest.raises(RuntimeError):  # pool shutdown refuses submits
            asyncio.run(main())


class TestInFlightCancellation:
    def test_cancelled_future_does_not_starve_its_batch(self, registry):
        """The dispatcher guards `future.done()` — a caller bailing out
        must not crash the serve loop or lose the other queries."""
        backend = RealCryptoBackend(registry)
        policy = BatchPolicy(waiting_window_s=60.0, max_batch=64)

        async def main():
            runtime = ServeRuntime(registry, backend, policy)
            runtime.start()
            futures = [
                runtime.submit(registry.make_request(i)) for i in range(4)
            ]
            futures[1].cancel()
            await runtime.drain()
            return futures

        futures = asyncio.run(main())
        assert futures[1].cancelled()
        survivors = [f for i, f in enumerate(futures) if i != 1]
        assert all(f.done() and not f.cancelled() for f in survivors)
        for f in survivors:
            result = f.result()
            assert registry.decode(result.request, result.response) == (
                registry.expected(result.request.global_index)
            )
