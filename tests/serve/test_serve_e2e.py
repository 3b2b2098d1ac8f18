"""End-to-end: real cryptography through the full async serving path."""

import asyncio

import pytest

from repro.errors import ParameterError
from repro.params import PirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.systems.batching import BatchPolicy


@pytest.fixture(scope="module")
def registry():
    params = PirParams.small(n=256, d0=8, num_dims=2)
    return RealShardRegistry.random(
        params, num_records=8, record_bytes=48, num_shards=2, seed=21
    )


def test_concurrent_queries_return_byte_correct_records(registry):
    policy = BatchPolicy(waiting_window_s=0.005, max_batch=4)

    async def main():
        runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
        async with runtime:
            results = await asyncio.gather(
                *(runtime.serve_index(i) for i in range(registry.num_records))
            )
        return runtime.metrics, results

    metrics, results = asyncio.run(main())
    assert metrics.served == registry.num_records
    for result in results:
        record = registry.decode(result.request, result.response)
        assert record == registry.expected(result.request.global_index)
    # Concurrent submits inside one window actually batched.
    assert metrics.mean_batch > 1.0


def test_serving_batches_match_direct_protocol_answers(registry):
    """The serve path must not change results vs calling the server directly."""
    policy = BatchPolicy(waiting_window_s=0.0, max_batch=1)
    target = 5
    request = registry.make_request(target)
    direct = registry.server(request.shard_id).answer(request.query)

    async def main():
        runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
        async with runtime:
            return await runtime.serve(request)

    result = asyncio.run(main())
    assert registry.decode(request, result.response) == registry.expected(target)
    assert registry.decode(request, direct) == registry.expected(target)


def test_a_malformed_upload_is_refused_and_the_next_query_answered(registry):
    """A short seed is a typed refusal for its caller alone: the runtime
    keeps serving, and the next well-formed query decodes."""
    policy = BatchPolicy(waiting_window_s=0.0, max_batch=1)
    bad, good = registry.make_request(3), registry.make_request(3)
    bad.query.seed = bad.query.seed[:16]

    async def main():
        runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
        async with runtime:
            with pytest.raises(ParameterError, match="seed"):
                await runtime.serve(bad)
            return await runtime.serve(good)

    result = asyncio.run(main())
    assert registry.decode(good, result.response) == registry.expected(3)
