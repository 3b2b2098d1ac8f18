"""End-to-end: real cryptography through the multi-process cluster runtime.

Each test spawns real worker processes (multiprocessing spawn context) —
kept tiny so the whole module stays CI-friendly.
"""

import asyncio

import pytest

from repro.cluster import ClusterCoordinator, ClusterRegistry
from repro.mutate import UpdateLog
from repro.serve import ServeRuntime
from repro.systems.batching import BatchPolicy

RECORD_BYTES = 48
NUM_RECORDS = 8


@pytest.fixture()
def registry(small_params):
    return ClusterRegistry.random(
        small_params,
        num_records=NUM_RECORDS,
        record_bytes=RECORD_BYTES,
        num_shards=2,
        seed=21,
    )


def policy():
    return BatchPolicy(waiting_window_s=0.005, max_batch=4)


def test_two_workers_serve_byte_correct_records(registry):
    async def main():
        async with ClusterCoordinator(registry, num_workers=2) as coordinator:
            assert coordinator.live_workers == (0, 1)
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                results = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
            return results, coordinator.stats

    results, stats = asyncio.run(main())
    for result in results:
        record = registry.decode(result.request, result.response)
        assert record == registry.expected(result.request.global_index)
    assert stats.batches_sent >= 2  # one per shard at minimum
    assert stats.worker_deaths == 0


def test_epoch_publish_pins_inflight_requests_to_admitted_epoch(registry):
    """A request admitted at epoch E decodes E's value even after E+1 lands."""
    target = 3
    old_value = registry.expected(target)
    new_value = b"\x42" * RECORD_BYTES

    async def main():
        async with ClusterCoordinator(registry, num_workers=2) as coordinator:
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                pinned = registry.make_request(target)  # admitted at epoch 0
                result = await coordinator.publish(UpdateLog().put(target, new_value))
                assert result.epoch == 1
                assert result.lost_workers == ()
                old = await runtime.serve(pinned)
                fresh = await runtime.serve_index(target)
            return old, fresh, coordinator.stats

    old, fresh, stats = asyncio.run(main())
    assert old.request.epoch == 0
    assert registry.decode(old.request, old.response) == old_value
    assert fresh.request.epoch == 1
    assert registry.decode(fresh.request, fresh.response) == new_value
    assert registry.expected(target) == new_value
    assert stats.epochs_published == 1


def test_delete_publishes_tombstone_across_processes(registry):
    target = 6

    async def main():
        async with ClusterCoordinator(registry, num_workers=2) as coordinator:
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                await coordinator.publish(UpdateLog().delete(target))
                result = await runtime.serve_index(target)
            return result

    result = asyncio.run(main())
    assert registry.decode(result.request, result.response) == b"\0" * RECORD_BYTES


def test_same_seed_reproduces_identical_responses(small_params):
    """--seed threads through registry + worker startup: reruns are bitwise equal."""

    async def run_once():
        reg = ClusterRegistry.random(
            small_params,
            num_records=4,
            record_bytes=RECORD_BYTES,
            num_shards=2,
            seed=77,
        )
        async with ClusterCoordinator(reg, num_workers=2) as coordinator:
            runtime = ServeRuntime(reg, coordinator, policy())
            async with runtime:
                results = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(4))
                )
        return [
            (
                r.request.epoch,
                [ct.a.residues.tobytes() for ct in r.response.plane_cts],
                reg.decode(r.request, r.response),
            )
            for r in results
        ]

    first = asyncio.run(run_once())
    second = asyncio.run(run_once())
    assert first == second
