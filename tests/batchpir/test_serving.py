"""Batch PIR behind the serving runtime: chunked windows, sim mode.

The tier-agnostic serving cases (one window per shard through the one
executor, duplicates, typed shard bounds) are in
``tests/serve/test_serving_mode.py``.
"""

import asyncio

import pytest

from repro.batchpir.serving import BatchServeRegistry
from repro.params import PirParams
from repro.serve import RealCryptoBackend, ServeRuntime, SimShardRegistry
from repro.systems.batching import BatchPolicy


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


class TestBatchServeRegistry:
    def test_routes_and_decodes(self, params):
        registry = BatchServeRegistry.random(
            params, num_records=64, record_bytes=16, max_batch=8, num_shards=2, seed=1
        )
        request = registry.make_request(40)
        assert request.query is None  # queries are planned per window
        shard_id, local = registry.map.route(40)
        assert (request.shard_id, request.local_index) == (shard_id, local)

    def test_window_larger_than_design_batch_chunks(self, params):
        registry = BatchServeRegistry.random(
            params, num_records=48, record_bytes=16, max_batch=4, num_shards=1, seed=3
        )
        policy = BatchPolicy(waiting_window_s=0.05, max_batch=12)

        async def main():
            runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
            async with runtime:
                return await runtime.serve_many(range(10))

        results = asyncio.run(main())
        for r in results:
            assert registry.decode(r.request, r.response) == registry.expected(
                r.request.global_index
            )


class TestSimBatchMode:
    def test_batch_mode_amortizes_window_cost(self):
        paper = PirParams.paper(d0=256, num_dims=9)
        batched = SimShardRegistry(paper, tier="batchpir", design_batch=64)
        plain = SimShardRegistry(paper)
        # One coalesced pass serves the whole design batch...
        assert batched.service_seconds(64) == batched.service_seconds(1)
        # ...at >= 4x less per query than 64 independent single queries.
        amortized = batched.service_seconds(64) / 64
        assert plain.service_seconds(1) / amortized >= 4.0
        # Beyond the design batch a second pass is needed.
        assert batched.service_seconds(65) == pytest.approx(
            2 * batched.service_seconds(64)
        )

    def test_batch_mode_window_covers_replicated_set(self):
        paper = PirParams.paper(d0=256, num_dims=9)
        batched = SimShardRegistry(paper, tier="batchpir", design_batch=64)
        plain = SimShardRegistry(paper)
        assert batched.waiting_window_s() > 0
        # Replicated bucket set is ~3x the database: window grows with it.
        assert batched.waiting_window_s() > plain.waiting_window_s()

    def test_plain_mode_unchanged(self):
        registry = SimShardRegistry(PirParams.paper(d0=256, num_dims=9))
        assert registry.batch_system is None
        assert registry.service_seconds(16) > 0
