"""Keyword PIR behind the serving runtime: key routing, hits and misses.

The tier-agnostic serving cases (one window per shard through the one
executor, typed shard bounds) are in ``tests/serve/test_serving_mode.py``.
"""

import asyncio

import pytest

from repro.errors import KeyNotFound, KvBuildError
from repro.kvpir.serving import KeyShardMap, KvServeRegistry
from repro.params import PirParams
from repro.serve import RealCryptoBackend, ServeRuntime, SimShardRegistry
from repro.systems.batching import BatchPolicy


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


class TestKeyShardMap:
    def test_routing_is_deterministic_and_seeded(self):
        a = KeyShardMap(100, 4, seed=1)
        b = KeyShardMap(100, 4, seed=1)
        c = KeyShardMap(100, 4, seed=2)
        keys = [f"k{i}".encode() for i in range(64)]
        assert [a.route(k) for k in keys] == [b.route(k) for k in keys]
        assert [a.route(k) for k in keys] != [c.route(k) for k in keys]
        assert all(0 <= a.route(k) < 4 for k in keys)

    def test_rejects_zero_shards(self):
        with pytest.raises(KvBuildError):
            KeyShardMap(10, 0)


class TestKvServeRegistry:
    def test_requests_carry_keys_not_queries(self, params):
        registry = KvServeRegistry.random(
            params, num_keys=40, value_bytes=16, num_shards=2, seed=1
        )
        key = list(registry._items)[5]
        request = registry.make_request(key)
        assert request.key == key
        assert request.query is None
        assert request.shard_id == registry.map.route(key)

    def test_decode_raises_typed_miss_for_none(self, params):
        registry = KvServeRegistry.random(
            params, num_keys=16, value_bytes=8, seed=2
        )
        request = registry.make_request(b"ghost")
        with pytest.raises(KeyNotFound):
            registry.decode(request, None)
        assert registry.decode(request, b"value") == b"value"
        assert registry.expected(b"ghost") is None


class TestKvServing:
    def test_window_serves_hits_and_misses(self, params):
        registry = KvServeRegistry.random(
            params, num_keys=48, value_bytes=16, num_shards=2, seed=3
        )
        policy = BatchPolicy(waiting_window_s=0.05, max_batch=16)
        present = list(registry._items)[:6]

        async def main():
            runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
            async with runtime:
                return await runtime.serve_keys(present + [b"absent-key"])

        results = asyncio.run(main())
        for r, key in zip(results[:-1], present):
            assert registry.decode(r.request, r.response) == registry.expected(key)
        with pytest.raises(KeyNotFound):
            registry.decode(results[-1].request, results[-1].response)

    def test_serve_key_convenience(self, params):
        registry = KvServeRegistry.random(
            params, num_keys=16, value_bytes=8, seed=5
        )
        key = list(registry._items)[0]

        async def main():
            runtime = ServeRuntime(
                registry,
                RealCryptoBackend(registry),
                BatchPolicy(waiting_window_s=0.01, max_batch=4),
            )
            async with runtime:
                return await runtime.serve_key(key)

        result = asyncio.run(main())
        assert registry.decode(result.request, result.response) == registry.expected(key)

    def test_empty_shard_is_a_build_error(self, params):
        with pytest.raises(KvBuildError):
            KvServeRegistry.random(
                params, num_keys=2, value_bytes=8, num_shards=16, seed=6
            )


class TestSimKvMode:
    def test_kv_mode_costs_more_than_plain_batch_mode(self):
        paper = PirParams.paper(d0=256, num_dims=9)
        kv = SimShardRegistry(paper, tier="kvpir", design_batch=64)
        batch = SimShardRegistry(paper, tier="batchpir", design_batch=64)
        plain = SimShardRegistry(paper)
        # kvpir implies the batched machinery over a bigger replicated set.
        assert kv.batch_system is not None
        assert kv.batch_system.num_buckets > batch.batch_system.num_buckets
        # One pass serves the design batch of lookups; keyword passes cost
        # more than index passes (more probes over an inflated slot table)
        # but still amortize far below per-lookup scans.
        assert kv.service_seconds(64) == kv.service_seconds(1)
        assert kv.service_seconds(64) > batch.service_seconds(64)
        assert kv.service_seconds(64) / 64 < plain.service_seconds(1)
        assert kv.waiting_window_s() > batch.waiting_window_s()
