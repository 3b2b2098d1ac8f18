"""Epoch hot-swap under the serving runtime: zero loss, correct pinning.

``REPRO_BACKEND`` picks the registry's compute backend (default: the
process default) so CI runs the publish path once per backend.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.errors import MutateError, StaleEpoch
from repro.mutate import UpdateLog
from repro.params import PirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, loadgen
from repro.serve.dispatcher import AdmissionConfig, ServeRuntime
from repro.systems.batching import BatchPolicy

BACKEND = os.environ.get("REPRO_BACKEND")


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


def _registry(params, retain=2, num_records=12, seed=5):
    return RealShardRegistry.random(
        params,
        num_records=num_records,
        record_bytes=32,
        num_shards=2,
        seed=seed,
        retain=retain,
        backend=BACKEND,
    )


class TestEpochLifecycle:
    def test_publish_bumps_epoch_and_reports_delta_cost(self, params):
        registry = _registry(params)
        published = registry.publish(UpdateLog().put(3, b"\x42" * 32))
        assert published.epoch == 1
        assert registry.current_epoch == 1
        assert published.cost.polys_repacked >= 1
        assert 0 < published.cost.polys_repacked < published.cost.full_polys
        assert registry.expected(3) == b"\x42" * 32
        assert registry.expected(3, epoch=0) != b"\x42" * 32

    def test_appends_are_rejected_at_the_serving_layer(self, params):
        registry = _registry(params)
        with pytest.raises(MutateError):
            registry.publish(UpdateLog().append(b"\x00" * 32))

    def test_rejected_publish_is_atomic_across_shards(self, params):
        """Regression: a log whose LAST entry is invalid must not leave
        earlier shards' databases advanced — the rejected write used to
        leak into the next successful publish."""
        registry = _registry(params)
        before = [registry.expected(i) for i in range(registry.num_records)]
        with pytest.raises(MutateError):
            # Record 0 lives on shard 0, the bad-length write comes later.
            registry.publish(UpdateLog().put(0, b"\x99" * 32).put(6, b"short"))
        assert registry.current_epoch == 0
        registry.publish(UpdateLog().put(11, b"\x55" * 32))
        assert registry.expected(0) == before[0]  # the rejected put is gone
        assert registry.expected(11) == b"\x55" * 32

    def test_releasing_a_shed_request_frees_the_epoch(self, params):
        registry = _registry(params, retain=1)
        request = registry.make_request(2)  # pins epoch 0
        registry.publish(UpdateLog().put(2, b"\x10" * 32))
        assert 0 in registry.live_epochs
        registry.release(request)  # what a shed-submit caller must do
        assert 0 not in registry.live_epochs

    def test_stale_epoch_is_typed_and_carries_the_window(self, params):
        registry = _registry(params, retain=1)
        registry.publish(UpdateLog().put(0, b"\x01" * 32))
        with pytest.raises(StaleEpoch) as excinfo:
            registry.make_request(0, epoch=0)
        assert excinfo.value.epoch == 0
        assert excinfo.value.current == 1
        assert 0 not in registry.live_epochs

    def test_unknown_future_epoch_is_stale_too(self, params):
        registry = _registry(params)
        with pytest.raises(StaleEpoch):
            registry.make_request(0, epoch=99)

    def test_inflight_pin_keeps_a_retired_epoch_alive(self, params):
        registry = _registry(params, retain=1)
        old_value = registry.expected(4)
        request = registry.make_request(4)  # pins epoch 0
        registry.publish(UpdateLog().put(4, b"\x99" * 32))
        assert 0 in registry.live_epochs  # not admissible, but alive
        with pytest.raises(StaleEpoch):
            registry.make_request(4, epoch=0)  # no NEW admissions
        # The pinned request still answers and decodes against epoch 0.
        response = registry.server(request.shard_id, request.epoch).answer(
            request.query
        )
        assert registry.decode(request, response) == old_value
        assert old_value != b"\x99" * 32
        # decode released the pin: the retired epoch is gone now.
        assert 0 not in registry.live_epochs


class TestServingAcrossSwaps:
    def test_no_admitted_request_lost_or_decoded_against_wrong_epoch(self, params):
        """The acceptance assertion: swaps mid-flight lose nothing.

        Requests are admitted continuously while epochs are published
        with retain=1 (the most aggressive retirement); every admitted
        request must complete and decode byte-correct against the
        records AS OF its admitted epoch.
        """
        num_records = 12
        registry = _registry(params, retain=1, num_records=num_records, seed=8)
        policy = BatchPolicy(waiting_window_s=0.005, max_batch=4)
        rng = np.random.default_rng(21)
        truth = {0: [registry.expected(i) for i in range(num_records)]}

        async def main():
            runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
            futures = []
            async with runtime:
                for wave in range(3):
                    for index in range(num_records):
                        futures.append(
                            runtime.submit(registry.make_request(index))
                        )
                    published = registry.publish(
                        UpdateLog().put(
                            int(rng.integers(num_records)), rng.bytes(32)
                        )
                    )
                    truth[published.epoch] = [
                        registry.expected(i) for i in range(num_records)
                    ]
                    await asyncio.sleep(0.002)
                results = await asyncio.gather(*futures)
            return results

        results = asyncio.run(main())
        assert len(results) == 36  # nothing lost
        epochs_seen = set()
        for result in results:
            request = result.request
            epochs_seen.add(request.epoch)
            decoded = registry.decode(request, result.response)
            assert decoded == truth[request.epoch][request.global_index]
        assert len(epochs_seen) >= 2  # the run genuinely straddled swaps

    def test_swapped_value_visible_to_new_admissions_only(self, params):
        registry = _registry(params, retain=2)
        policy = BatchPolicy(waiting_window_s=0.002, max_batch=4)

        async def main():
            runtime = ServeRuntime(registry, RealCryptoBackend(registry), policy)
            async with runtime:
                old_request = registry.make_request(6)
                old_future = runtime.submit(old_request)
                registry.publish(UpdateLog().put(6, b"\x77" * 32))
                new_request = registry.make_request(6)
                new_future = runtime.submit(new_request)
                return await asyncio.gather(old_future, new_future)

        old_result, new_result = asyncio.run(main())
        assert old_result.request.epoch == 0
        assert new_result.request.epoch == 1
        old_bytes = registry.decode(old_result.request, old_result.response)
        new_bytes = registry.decode(new_result.request, new_result.response)
        assert new_bytes == b"\x77" * 32
        assert old_bytes != b"\x77" * 32  # the epoch-0 snapshot's value


class TestUnservedRequestsReleaseTheirPin:
    """Regression: only ``decode``/``release`` unpins an epoch, and the
    runtime never released a request it shed or whose window failed — under
    overload a retired epoch lived for the registry's lifetime."""

    def test_open_loop_overload_across_a_publish(self, params):
        registry = _registry(params, retain=1, seed=9)
        policy = BatchPolicy(waiting_window_s=0.002, max_batch=2)
        admission = AdmissionConfig(max_queue_depth=2)
        arrivals = np.linspace(0.0, 0.02, 30)  # far above what two shards serve
        indices = np.arange(30) % registry.num_records
        truth = {0: [registry.expected(i) for i in range(registry.num_records)]}

        async def main():
            runtime = ServeRuntime(
                registry, RealCryptoBackend(registry), policy, admission
            )
            runtime.start()
            before = await loadgen.run_open_loop(
                runtime, arrivals, indices, drain=False, collect_results=True
            )
            registry.publish(UpdateLog().put(3, b"\x33" * 32))
            after = await loadgen.run_open_loop(
                runtime, arrivals, indices, collect_results=True
            )
            return before, after

        before, after = asyncio.run(main())
        truth[1] = [registry.expected(i) for i in range(registry.num_records)]
        for report, epoch in ((before, 0), (after, 1)):
            assert report.rejected > 0 and report.errored == 0
            for result in report.results:  # decoding releases the served ones
                request = result.request
                assert request.epoch == epoch
                decoded = registry.decode(request, result.response)
                assert decoded == truth[epoch][request.global_index]
        assert registry.live_epochs == (registry.current_epoch,)

    def test_failed_window_releases_its_requests(self, params):
        registry = _registry(params, retain=1)

        class ExplodingBackend:
            async def answer(self, shard_id, requests):
                raise RuntimeError("boom")

            def close(self):
                pass

        async def main():
            runtime = ServeRuntime(
                registry,
                ExplodingBackend(),
                BatchPolicy(waiting_window_s=0.002, max_batch=4),
            )
            runtime.start()
            futures = [runtime.submit(registry.make_request(i)) for i in range(6)]
            registry.publish(UpdateLog().put(0, b"\x01" * 32))
            await runtime.drain()
            return await asyncio.gather(*futures, return_exceptions=True)

        outcomes = asyncio.run(main())
        assert all(isinstance(o, RuntimeError) for o in outcomes)
        assert registry.live_epochs == (registry.current_epoch,)
