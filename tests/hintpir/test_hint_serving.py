"""Hint tier behind the serving runtime: keyed routing, windows, epochs.

The tier-agnostic serving cases (round trip through the one executor,
typed shard bounds) are in ``tests/serve/test_serving_mode.py``.
"""

import asyncio

import pytest

from repro.errors import HintPirError, HintStale, RoutingError
from repro.hintpir.serving import HintServeRegistry, HintShardMap
from repro.mutate.log import UpdateLog
from repro.pir.simplepir import SimplePirParams
from repro.serve import RealCryptoBackend, ServeRuntime
from repro.systems.batching import BatchPolicy

PARAMS = SimplePirParams(lwe_dim=64)
POLICY = BatchPolicy(waiting_window_s=0.02, max_batch=16)


def make_registry(num_records=32, num_shards=2, **kwargs):
    return HintServeRegistry.random(
        num_records=num_records,
        record_bytes=16,
        num_shards=num_shards,
        params=PARAMS,
        seed=7,
        **kwargs,
    )


class TestHintShardMap:
    def test_routing_is_deterministic_and_seeded(self):
        a = HintShardMap(100, 4, seed=1)
        b = HintShardMap(100, 4, seed=1)
        c = HintShardMap(100, 4, seed=2)
        assert [a.route(i) for i in range(100)] == [b.route(i) for i in range(100)]
        assert [a.route(i) for i in range(100)] != [c.route(i) for i in range(100)]

    def test_local_indices_are_dense_columns(self):
        shard_map = HintShardMap(64, 4, seed=0)
        seen = {s: set() for s in range(4)}
        for i in range(64):
            shard, local = shard_map.route(i)
            assert shard_map.global_index(shard, local) == i
            seen[shard].add(local)
        for shard, locals_ in seen.items():
            assert locals_ == set(range(shard_map.members(shard).size))

    def test_rejects_degenerate_splits(self):
        with pytest.raises(HintPirError):
            HintShardMap(10, 0)
        with pytest.raises(HintPirError):
            HintShardMap(3, 8)

    def test_routing_bounds(self):
        shard_map = HintShardMap(16, 2)
        with pytest.raises(RoutingError):
            shard_map.route(16)
        with pytest.raises(RoutingError):
            shard_map.check_shard(2)
        with pytest.raises(RoutingError):
            shard_map.global_index(0, 10_000)


class TestHintServeRegistry:
    def test_requests_carry_epoch_tagged_queries(self):
        registry = make_registry()
        request = registry.make_request(5)
        shard, local = registry.map.route(5)
        assert request.shard_id == shard
        assert request.local_index == local
        assert request.epoch == 0
        assert request.query.hint_epoch == 0

    def test_decode_reraises_typed_stale(self):
        registry = make_registry()
        request = registry.make_request(0)
        with pytest.raises(HintStale):
            registry.decode(request, HintStale(0, 9, 5))

    def test_publish_advances_every_shard_together(self):
        registry = make_registry(num_records=24, num_shards=3)
        log = UpdateLog()
        log.put(1, b"one")
        log.put(17, b"seventeen")
        registry.publish(log)
        assert registry.epoch == 1
        assert all(s.epoch == 1 for s in registry._servers)
        assert registry.expected(1) == b"one".ljust(16, b"\x00")
        assert registry.expected(1, epoch=0) != registry.expected(1, epoch=1)

    def test_publish_refuses_appends(self):
        registry = make_registry()
        log = UpdateLog()
        log.append(b"extra")
        with pytest.raises(HintPirError):
            registry.publish(log)

    def test_refresh_moves_offline_bytes(self):
        registry = make_registry()
        moved = registry.refresh()
        assert moved == sum(
            s.transcript().offline_bytes for s in registry._servers
        )

    def test_transcript_aggregates_shards(self):
        registry = make_registry(num_records=32, num_shards=2)
        t = registry.transcript()
        parts = [s.transcript() for s in registry._servers]
        assert t.offline_bytes == sum(p.offline_bytes for p in parts)
        assert t.online_bytes == max(p.online_bytes for p in parts)


def serve_indices(registry, indices, publish_logs=None):
    """Serve ``indices`` through the runtime; optionally publish mid-stream.

    ``publish_logs`` maps a submission position to an UpdateLog applied
    right before that request is submitted.
    """

    async def main():
        backend = RealCryptoBackend(registry)
        runtime = ServeRuntime(registry, backend, POLICY)
        async with runtime:
            pending = []
            for pos, index in enumerate(indices):
                if publish_logs and pos in publish_logs:
                    await asyncio.sleep(POLICY.waiting_window_s * 2)
                    registry.publish(publish_logs[pos])
                pending.append(asyncio.create_task(runtime.serve_index(index)))
            results = await asyncio.gather(*pending)
        backend.close()
        return results

    return asyncio.run(main())


class TestHintServingE2E:
    def test_epoch_publish_mid_traffic_never_wrong_byte(self):
        """Acceptance: publishes land mid-traffic; every response either
        decodes to the ground truth *of its answering epoch* or raises a
        typed HintStale — a wrong byte fails the test."""
        registry = make_registry(num_records=24, num_shards=2, retain_epochs=1)
        indices = [i % 24 for i in range(48)]
        logs = {}
        for pos, base in ((12, 0), (24, 8), (36, 16)):
            log = UpdateLog()
            for offset in range(4):
                log.put(base + offset, bytes([pos + offset]) * 16)
            logs[pos] = log
        results = serve_indices(registry, indices, publish_logs=logs)
        assert registry.epoch == 3
        stale = 0
        correct = 0
        for index, result in zip(indices, results):
            try:
                decoded = registry.decode(result.request, result.response)
            except HintStale:
                stale += 1
                continue
            epoch = result.response.epoch
            assert decoded == registry.expected(index, epoch=epoch), (
                f"wrong bytes for record {index} at epoch {epoch}"
            )
            correct += 1
        assert correct + stale == len(indices)
        assert correct > 0

    def test_stale_shard_client_gets_typed_rejection_then_recovers(self):
        registry = make_registry(num_records=16, num_shards=1, retain_epochs=1)
        for i in range(3):  # push epoch 0 out of the retain window
            log = UpdateLog()
            log.put(0, bytes([i]) * 16)
            registry.publish(log)
        [result] = serve_indices(registry, [3])
        # The runtime-built request reused the stale epoch-0 client hint.
        with pytest.raises(HintStale):
            registry.decode(result.request, result.response)
        registry.refresh()
        [result] = serve_indices(registry, [3])
        decoded = registry.decode(result.request, result.response)
        assert decoded == registry.expected(3)
