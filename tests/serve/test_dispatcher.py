"""Dispatcher behavior: window batching, admission control, draining.

All tests run on the virtual-time loop with a stub backend, so batching
windows of milliseconds cost microseconds of wall time.
"""

import asyncio

import pytest

from repro.errors import QueueFullError, ShuttingDownError
from repro.obs import FlightRecorder, validate_postmortem
from repro.serve.dispatcher import AdmissionConfig, ServeRuntime, ShardDispatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ServeRequest
from repro.serve.workers import run_in_virtual_time
from repro.systems.batching import BatchPolicy


class StubBackend:
    """Sleeps a fixed service time per batch and records batch sizes."""

    def __init__(self, service_s: float = 0.01):
        self.service_s = service_s
        self.batches: list[int] = []

    async def answer(self, shard_id, requests):
        self.batches.append(len(requests))
        await asyncio.sleep(self.service_s)
        return [r.global_index for r in requests]

    def close(self):
        pass


def request(i: int, shard: int = 0) -> ServeRequest:
    return ServeRequest(global_index=i, shard_id=shard, local_index=i)


def dispatcher(backend, policy, max_queue_depth=1024) -> ShardDispatcher:
    return ShardDispatcher(
        0, backend, policy, AdmissionConfig(max_queue_depth), ServeMetrics(1)
    )


class TestWindowBatching:
    def test_queries_inside_window_share_a_batch(self):
        backend = StubBackend(service_s=0.001)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.010, max_batch=16))
            d.start()
            futs = [d.submit(request(i)) for i in range(5)]  # same instant
            await asyncio.gather(*futs)
            await d.drain()

        run_in_virtual_time(main())
        assert backend.batches == [5]

    def test_full_batch_dispatches_before_window(self):
        backend = StubBackend(service_s=0.001)

        async def main():
            loop = asyncio.get_running_loop()
            d = dispatcher(backend, BatchPolicy(waiting_window_s=10.0, max_batch=4))
            d.start()
            futs = [d.submit(request(i)) for i in range(4)]
            results = await asyncio.gather(*futs)
            await d.drain()
            return loop.time(), results

        (elapsed, results), _ = run_in_virtual_time(main())
        assert backend.batches == [4]
        assert elapsed < 1.0  # did not wait for the 10 s window
        assert all(r.batch_size == 4 for r in results)

    def test_zero_window_serves_immediately(self):
        backend = StubBackend(service_s=0.001)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.0, max_batch=16))
            d.start()
            first = d.submit(request(0))
            await first
            await d.drain()

        run_in_virtual_time(main())
        assert backend.batches[0] == 1

    def test_queue_keeps_filling_while_batch_in_flight(self):
        backend = StubBackend(service_s=0.050)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.0, max_batch=16))
            d.start()
            futs = [d.submit(request(0))]
            await asyncio.sleep(0.001)  # first batch (size 1) now in service
            futs += [d.submit(request(i)) for i in range(1, 7)]
            await asyncio.gather(*futs)
            await d.drain()

        run_in_virtual_time(main())
        assert backend.batches == [1, 6]


class TestAdmissionControl:
    def test_load_shedding_raises_queue_full(self):
        backend = StubBackend(service_s=10.0)  # effectively never finishes

        async def main():
            d = dispatcher(
                backend,
                BatchPolicy(waiting_window_s=5.0, max_batch=1),
                max_queue_depth=3,
            )
            d.start()
            accepted = [d.submit(request(i)) for i in range(3)]
            with pytest.raises(QueueFullError):
                d.submit(request(99))
            for fut in accepted:
                fut.cancel()
            return d.metrics

        metrics, _ = run_in_virtual_time(main())
        assert metrics.rejected == 1
        assert metrics.accepted == 3

    def test_submit_after_drain_is_rejected(self):
        backend = StubBackend(service_s=0.001)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.0, max_batch=4))
            d.start()
            await d.submit(request(0))
            await d.drain()
            with pytest.raises(ShuttingDownError):
                d.submit(request(1))

        run_in_virtual_time(main())

    def test_drain_flushes_queued_work_without_window_wait(self):
        backend = StubBackend(service_s=0.001)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=60.0, max_batch=8))
            d.start()
            futs = [d.submit(request(i)) for i in range(3)]
            await d.drain()  # must not wait the 60 s window
            return await asyncio.gather(*futs), asyncio.get_running_loop().time()

        (results, elapsed), _ = run_in_virtual_time(main())
        assert len(results) == 3
        assert elapsed < 1.0


class TestFaultIsolation:
    def test_backend_failure_fails_batch_but_not_dispatcher(self):
        class FlakyBackend(StubBackend):
            async def answer(self, shard_id, requests):
                if not self.batches:
                    self.batches.append(len(requests))
                    raise RuntimeError("transient shard fault")
                return await super().answer(shard_id, requests)

        backend = FlakyBackend(service_s=0.001)

        async def main():
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.0, max_batch=4))
            d.start()
            doomed = d.submit(request(0))
            with pytest.raises(RuntimeError):
                await doomed
            healthy = d.submit(request(1))
            result = await healthy
            await d.drain()
            return d.metrics, result

        (metrics, result), _ = run_in_virtual_time(main())
        assert metrics.failed == 1
        assert metrics.served == 1
        assert result.response == 1

    def test_final_failed_batch_closes_the_metrics_window(self):
        """Regression: a run ending in a failed batch must not truncate
        ``elapsed_s`` (which inflated ``achieved_qps``), and the failure
        must be attributed to its shard."""

        class FailLastBackend(StubBackend):
            async def answer(self, shard_id, requests):
                if any(r.global_index == 99 for r in requests):
                    await asyncio.sleep(self.service_s)
                    raise RuntimeError("terminal shard fault")
                return await super().answer(shard_id, requests)

        backend = FailLastBackend(service_s=0.5)

        async def main():
            loop = asyncio.get_running_loop()
            d = dispatcher(backend, BatchPolicy(waiting_window_s=0.0, max_batch=1))
            d.start()
            ok = d.submit(request(0))
            await ok
            doomed = d.submit(request(99))
            with pytest.raises(RuntimeError):
                await doomed
            fail_finish = loop.time()
            await d.drain()
            return d.metrics, fail_finish

        (metrics, fail_finish), _ = run_in_virtual_time(main())
        assert metrics.failed == 1
        snap = metrics.snapshot()
        assert snap["failed_by_shard"] == {"0": 1}
        # the window extends to the *failed* batch's finish, not the last success
        assert metrics.last_finish_s == pytest.approx(fail_finish)
        assert metrics.elapsed_s == pytest.approx(fail_finish - metrics.first_arrival_s)


    def test_failed_window_writes_the_default_postmortem(self, tmp_path):
        """``batch.failed`` is the recorder's default trigger: a window
        whose executor raises leaves one dump naming every request it
        carried, and a healthy window after it leaves none."""

        class FailFirstBackend(StubBackend):
            async def answer(self, shard_id, requests):
                if not self.batches:
                    self.batches.append(len(requests))
                    raise RuntimeError("window fault")
                return await super().answer(shard_id, requests)

        recorder = FlightRecorder(dump_dir=str(tmp_path))

        async def main():
            d = ShardDispatcher(
                0, FailFirstBackend(service_s=0.001),
                BatchPolicy(waiting_window_s=0.01, max_batch=4),
                AdmissionConfig(1024), ServeMetrics(1), recorder=recorder,
            )
            d.start()
            doomed = [
                d.submit(ServeRequest(i, 0, i, trace_id=10 + i)) for i in range(3)
            ]
            for future in doomed:
                with pytest.raises(RuntimeError):
                    await future
            await d.submit(ServeRequest(7, 0, 7, trace_id=20))
            await d.drain()

        run_in_virtual_time(main())
        assert recorder.dumps_written == 1
        (path,) = tmp_path.glob("postmortem-*.json")
        assert "batch-failed" in path.name
        doc = validate_postmortem(path)
        failed = [e for e in doc["events"] if e["kind"] == "batch.failed"]
        assert len(failed) == 1
        assert failed[0]["trace_ids"] == [10, 11, 12]
        assert failed[0]["args"]["error"] == "RuntimeError"
        assert "20" not in doc["trace_index"]


class TestServeRuntimeRouting:
    def test_requests_route_to_their_shard_dispatcher(self):
        from repro.params import PirParams
        from repro.serve.registry import SimShardRegistry
        from repro.serve.workers import SimulatedBackend

        registry = SimShardRegistry(
            PirParams.paper(d0=256, num_dims=9), num_shards=4
        )
        backend = SimulatedBackend(registry)

        async def main():
            runtime = ServeRuntime(
                registry,
                backend,
                BatchPolicy(waiting_window_s=registry.waiting_window_s(), max_batch=8),
            )
            runtime.start()
            # One record owned by each shard.
            picks = [registry.map.global_index(s, 0) for s in range(4)]
            results = await asyncio.gather(
                *(runtime.serve_index(g) for g in picks)
            )
            await runtime.drain()
            return runtime.metrics, results

        (metrics, results), _ = run_in_virtual_time(main())
        assert {r.request.shard_id for r in results} == {0, 1, 2, 3}
        assert set(metrics.served_by_shard) == {0, 1, 2, 3}
        assert metrics.served == 4
