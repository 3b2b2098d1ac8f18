"""The ``ServingMode`` contract, once, for every tier x compute backend.

Every real registry presents the serving runtime with the same surface
(``make_request -> answer_window -> decode == expected``, ``release``,
typed shard bounds) and runs on the one thread executor
(:class:`~repro.serve.workers.RealCryptoBackend`).  The per-tier serving
tests keep only what is specific to their tier; what is the same
everywhere is pinned here, plus the one place a window is answered
somewhere other than ``PirServer.answer_batch`` directly — the plain
registry's per-epoch grouping — held byte-identical to the per-query
answers it replaces.  The ``versioned`` tier is the plain registry one
publish in, so the contract also holds away from epoch 0.  ``REPRO_BACKEND`` restricts the
backends under test so CI can run the file once per registered backend.
"""

import asyncio
import os
import pickle

import numpy as np
import pytest

from repro.batchpir.serving import BatchServeRegistry
from repro.errors import RoutingError
from repro.he.backend import backend_names
from repro.hintpir.serving import HintCryptoBackend, HintServeRegistry
from repro.kvpir.serving import KvCryptoBackend, KvServeRegistry
from repro.mutate import UpdateLog
from repro.mutate.serving import VersionedShardRegistry
from repro.obs.trace import Tracer
from repro.params import PirParams
from repro.pir.simplepir import SimplePirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime, ServingMode
from repro.systems.batching import BatchPolicy

#: Backends under test; CI sets REPRO_BACKEND=eager / =native.
BACKENDS = (
    [os.environ["REPRO_BACKEND"]] if "REPRO_BACKEND" in os.environ else backend_names()
)
TIERS = ["plain", "versioned", "batchpir", "kvpir", "hintpir"]
PARAMS = PirParams.small(n=256, d0=8, num_dims=2)
NUM_SHARDS = 2
POLICY = BatchPolicy(waiting_window_s=0.05, max_batch=16)


def build(tier: str, backend: str):
    """``(registry, items)``: a two-shard deployment and a window's worth of
    items to fetch from it (indices, or keys on the keyword tier; one
    duplicate so windows must tolerate repeats)."""
    indices = [0, 5, 11, 17, 23, 5]
    if tier == "plain":
        registry = RealShardRegistry.random(
            PARAMS, 24, 32, NUM_SHARDS, seed=1, backend=backend
        )
    elif tier == "versioned":
        registry = RealShardRegistry.random(
            PARAMS, 24, 32, NUM_SHARDS, seed=1, backend=backend
        )
        registry.publish(UpdateLog().put(5, b"\x42" * 32).delete(17))
    elif tier == "batchpir":
        registry = BatchServeRegistry.random(
            PARAMS, 24, 16, max_batch=4, num_shards=NUM_SHARDS, seed=1, backend=backend
        )
    elif tier == "kvpir":
        registry = KvServeRegistry.random(
            PARAMS, num_keys=24, value_bytes=16, num_shards=NUM_SHARDS, seed=1,
            backend=backend,
        )
        keys = list(registry._items)
        return registry, [keys[i] for i in indices]
    else:
        registry = HintServeRegistry.random(
            24, 16, NUM_SHARDS, params=SimplePirParams(lwe_dim=64), seed=1,
            backend=backend,
        )
    return registry, indices


@pytest.fixture(scope="module", params=[(t, b) for t in TIERS for b in BACKENDS],
                ids=lambda p: f"{p[0]}-{p[1]}")
def deployment(request):
    return build(*request.param)


def same_response(got, want) -> None:
    assert len(got.plane_cts) == len(want.plane_cts)
    for g, w in zip(got.plane_cts, want.plane_cts):
        assert np.array_equal(g.a.residues, w.a.residues)
        assert np.array_equal(g.b.residues, w.b.residues)


class TestContract:
    def test_registry_satisfies_the_protocol(self, deployment):
        registry, _ = deployment
        # Explicit subclasses: the shared members come from the protocol.
        assert ServingMode in type(registry).__mro__
        assert registry.num_shards == registry.map.num_shards == NUM_SHARDS
        assert registry.num_records == registry.map.num_records == 24

    def test_answer_window_is_a_synchronous_ordered_pass(self, deployment):
        """No event loop, no executor: one call, one response per request."""
        registry, items = deployment
        requests = [registry.make_request(item) for item in items]
        for shard_id in range(NUM_SHARDS):
            window = [r for r in requests if r.shard_id == shard_id]
            responses = registry.answer_window(shard_id, window)
            assert len(responses) == len(window)
            for request, response in zip(window, responses):
                item = request.key if request.key is not None else request.global_index
                assert registry.decode(request, response) == registry.expected(item)

    def test_round_trip_through_the_one_executor(self, deployment):
        """Every tier is served by ``RealCryptoBackend`` and nothing else,
        one window per shard, each leaving a ``backend.real`` span."""
        registry, items = deployment
        tracer = Tracer()

        async def main():
            backend = RealCryptoBackend(registry, tracer=tracer)
            runtime = ServeRuntime(registry, backend, POLICY, tracer=tracer)
            async with runtime:
                return await runtime.serve_many(items)

        results = asyncio.run(main())
        per_shard = [0] * NUM_SHARDS
        for item, result in zip(items, results):
            per_shard[result.request.shard_id] += 1
            assert registry.decode(result.request, result.response) == (
                registry.expected(item)
            )
        # Submitted together -> one dispatch window per shard.
        for result in results:
            assert result.batch_size == per_shard[result.request.shard_id]
        spans = [s for s in tracer.spans if s.name == "backend.real"]
        assert sorted(s.args["batch"] for s in spans) == sorted(
            n for n in per_shard if n
        )

    def test_one_worker_pool_answers_like_the_default(self, deployment):
        """The frozen benchmark serves on ``max_workers=1``, production on
        the default pool: for every tier both return the same responses
        for the same window."""
        registry, items = deployment
        requests = [registry.make_request(item) for item in items]
        window = [r for r in requests if r.shard_id == 0]

        async def answer(max_workers):
            backend = RealCryptoBackend(registry, max_workers=max_workers)
            try:
                return await backend.answer(0, window)
            finally:
                backend.close()

        default = asyncio.run(answer(None))
        single = asyncio.run(answer(1))
        assert len(default) == len(single) == len(window) > 0
        for request, got, want in zip(window, single, default):
            item = request.key if request.key is not None else request.global_index
            assert registry.decode(request, got) == registry.expected(item)
            assert registry.decode(request, want) == registry.expected(item)
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_shard_ids_are_bounds_checked_typed(self, deployment):
        """Regression: ``-1`` used to return the last shard's client/server
        on the batch and keyword tiers."""
        registry, _ = deployment
        accessors = [registry.server]
        if hasattr(registry, "_clients"):
            accessors.append(registry.client)
        for accessor in accessors:
            for bad in (NUM_SHARDS, -1, 0.0, True):
                with pytest.raises(RoutingError):
                    accessor(bad)
        with pytest.raises(RoutingError):
            registry.map.check_shard(-1)

    def test_executor_close_is_idempotent(self, deployment):
        registry, _ = deployment
        backend = RealCryptoBackend(registry)
        backend.close()
        backend.close()  # second close must not raise
        assert backend._pool._shutdown


def test_benchmark_names_bind_the_one_executor():
    """The frozen ``benchmarks/e2e`` imports these; they are not classes
    of their own."""
    assert KvCryptoBackend is RealCryptoBackend
    assert HintCryptoBackend is RealCryptoBackend


def test_benchmark_registry_names_bind_the_one_class():
    """The frozen ``benchmarks/e2e`` imports the plain tier's registry
    under two names; both are the one class, and it always publishes."""
    assert VersionedShardRegistry is RealShardRegistry
    assert callable(RealShardRegistry.publish)


@pytest.mark.parametrize("backend", BACKENDS)
class TestStackedWindowsEqualPerQueryAnswers:
    def test_versioned_window_straddling_a_publish(self, backend):
        """One stacked pass per epoch == each request answered on its own
        by the server of the epoch it was admitted under."""
        registry = RealShardRegistry.random(
            PARAMS, 24, 32, NUM_SHARDS, seed=4, backend=backend
        )
        shard0 = [i for i in range(24) if registry.map.route(i)[0] == 0]
        window = [registry.make_request(i) for i in shard0[:3]]
        registry.publish(UpdateLog().put(shard0[0], b"\x42" * 32))
        window += [registry.make_request(i) for i in shard0[:4]]
        window.append(registry.make_request(shard0[5], epoch=0))
        assert [r.epoch for r in window] == [0, 0, 0, 1, 1, 1, 1, 0]

        responses = registry.answer_window(0, window)
        for request, response in zip(window, responses):
            same_response(
                response, registry.server(0, request.epoch).answer(request.query)
            )
            want = registry.expected(request.global_index, epoch=request.epoch)
            assert registry.decode(request, response) == want
