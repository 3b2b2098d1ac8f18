"""The serving pool's width changes where a window runs, never its bytes.

``RealCryptoBackend`` is the one parallel executor: production sizes its
thread pool by Python's default, the frozen end-to-end benchmark passes
``max_workers=1``.  Every test here runs at both widths through the real
runtime over the plain tier's registry, the one ``loadtest --mode real``
serves: concurrent sweeps decode byte-correct, a publish pins requests
admitted before it to their epoch (also while their windows are in
flight on the pool), a delete serves a zero tombstone, and a seeded
deployment answers with the same bytes at either width and on a rerun.
"""

import asyncio

import pytest

from repro.mutate import UpdateLog
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.systems.batching import BatchPolicy

RECORD_BYTES = 48
NUM_RECORDS = 8
#: Python's default width (what production runs) and the benchmark's one.
WIDTHS = pytest.mark.parametrize(
    "max_workers", [None, 1], ids=["default-pool", "one-worker"]
)


def registry_for(params, seed: int = 21, num_records: int = NUM_RECORDS):
    return RealShardRegistry.random(
        params, num_records, RECORD_BYTES, num_shards=2, seed=seed
    )


def policy():
    return BatchPolicy(waiting_window_s=0.005, max_batch=4)


def runtime_for(registry, max_workers):
    return ServeRuntime(
        registry, RealCryptoBackend(registry, max_workers=max_workers), policy()
    )


@WIDTHS
def test_concurrent_sweep_serves_byte_correct_records(small_params, max_workers):
    registry = registry_for(small_params)

    async def main():
        async with runtime_for(registry, max_workers) as runtime:
            return await asyncio.gather(
                *(runtime.serve_index(i) for i in range(NUM_RECORDS))
            )

    results = asyncio.run(main())
    assert sorted(r.request.global_index for r in results) == list(range(NUM_RECORDS))
    assert {r.request.shard_id for r in results} == {0, 1}
    for result in results:
        record = registry.decode(result.request, result.response)
        assert record == registry.expected(result.request.global_index)


@WIDTHS
def test_publish_pins_an_admitted_request_to_its_epoch(small_params, max_workers):
    """A request admitted at epoch E decodes E's value even after E+1 lands."""
    registry = registry_for(small_params)
    target = 3
    old_value = registry.expected(target)
    new_value = b"\x42" * RECORD_BYTES

    async def main():
        async with runtime_for(registry, max_workers) as runtime:
            pinned = registry.make_request(target)  # admitted at epoch 0
            published = registry.publish(UpdateLog().put(target, new_value))
            assert published.epoch == 1
            old = await runtime.serve(pinned)
            fresh = await runtime.serve_index(target)
        return old, fresh

    old, fresh = asyncio.run(main())
    assert old.request.epoch == 0
    assert registry.decode(old.request, old.response) == old_value
    assert fresh.request.epoch == 1
    assert registry.decode(fresh.request, fresh.response) == new_value
    assert registry.expected(target) == new_value


@WIDTHS
def test_delete_serves_a_zero_tombstone(small_params, max_workers):
    registry = registry_for(small_params)
    target = 6
    assert registry.expected(target) != b"\0" * RECORD_BYTES

    async def main():
        async with runtime_for(registry, max_workers) as runtime:
            registry.publish(UpdateLog().delete(target))
            return await runtime.serve_index(target)

    result = asyncio.run(main())
    assert result.request.epoch == 1
    assert registry.decode(result.request, result.response) == b"\0" * RECORD_BYTES


@WIDTHS
def test_publish_racing_a_request_spike_is_never_wrong(small_params, max_workers):
    """Requests admitted at epoch 0 decode epoch-0 bytes although the
    publish lands while their windows are on the pool; requests admitted
    after it decode epoch-1 bytes."""
    registry = registry_for(small_params, seed=31)
    expected_old = [registry.expected(i) for i in range(NUM_RECORDS)]
    log = UpdateLog()
    for i in range(NUM_RECORDS):
        log.put(i, bytes([0x60 + i]) * RECORD_BYTES)

    async def main():
        async with runtime_for(registry, max_workers) as runtime:
            spike = [
                runtime.submit(registry.make_request(i)) for i in range(NUM_RECORDS)
            ]
            # Past the waiting window: the first windows are dispatched.
            await asyncio.sleep(2 * policy().waiting_window_s)
            published = registry.publish(log)
            old_results = await asyncio.gather(*spike)
            fresh = await asyncio.gather(
                *(runtime.serve_index(i) for i in range(NUM_RECORDS))
            )
        return old_results, fresh, published

    old_results, fresh, published = asyncio.run(main())
    assert published.epoch == 1
    for result, expected in zip(old_results, expected_old):
        assert result.request.epoch == 0
        assert registry.decode(result.request, result.response) == expected
    for i, result in enumerate(fresh):
        assert result.request.epoch == 1
        record = registry.decode(result.request, result.response)
        assert record == bytes([0x60 + i]) * RECORD_BYTES


def test_width_and_reruns_leave_the_seeded_bytes_alone(small_params):
    """``--seed`` fixes the records and the client: the default pool, a
    rerun of it and a one-worker pool return bitwise-equal responses."""

    def run_once(max_workers):
        registry = registry_for(small_params, seed=77, num_records=4)

        async def main():
            async with runtime_for(registry, max_workers) as runtime:
                return await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(4))
                )

        return [
            (
                r.request.epoch,
                [ct.a.residues.tobytes() for ct in r.response.plane_cts],
                [ct.b.residues.tobytes() for ct in r.response.plane_cts],
                registry.decode(r.request, r.response),
            )
            for r in asyncio.run(main())
        ]

    first = run_once(None)
    assert first == run_once(None)
    assert first == run_once(1)
