"""Failure injection for the cluster runtime: kill, stall, and race workers.

The acceptance bar is *zero incorrect responses*: a request caught in a
failure either retries to a byte-correct answer or surfaces a typed
error — it must never decode to wrong bytes.
"""

import asyncio
import os
import signal

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
        seed=31,
    )


def policy():
    return BatchPolicy(waiting_window_s=0.005, max_batch=4)


async def _kill_when_busy(coordinator, worker_id, timeout_s=10.0):
    """SIGKILL the worker as soon as it has a batch in flight."""
    worker = coordinator._workers[worker_id]
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not worker.inflight:
        if asyncio.get_running_loop().time() > deadline:
            break  # kill anyway; correctness assertions still apply
        await asyncio.sleep(0.001)
    worker.process.kill()


def test_kill_worker_mid_batch_retries_on_surviving_replica(registry):
    """replication=2: every shard survives one death with zero wrong bytes."""

    async def main():
        coordinator = ClusterCoordinator(registry, num_workers=2, replication=2)
        async with coordinator:
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                serves = asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
                killer = asyncio.ensure_future(_kill_when_busy(coordinator, 0))
                results = await serves
                await killer
            snap = coordinator.cluster_snapshot()
            return results, coordinator.stats, coordinator.live_workers, snap

    results, stats, live, snap = asyncio.run(main())
    for result in results:
        record = registry.decode(result.request, result.response)
        assert record == registry.expected(result.request.global_index)
    assert stats.worker_deaths == 1
    assert live == (1,)
    # The killed worker's fault shows up in the observable snapshot too.
    assert snap["worker_deaths"] == 1
    assert snap["live_workers"] == [1]
    assert snap["workers"]["0"]["alive"] is False
    assert snap["workers"]["1"]["alive"] is True
    assert snap["workers"]["1"]["last_seen_age_s"] >= 0.0
    assert snap["batches_sent"] >= 1
    import json

    json.dumps(snap)  # operator-facing: must stay JSON-serializable


def test_kill_sole_replica_rebalances_onto_survivor(registry):
    """replication=1: the orphaned shard is re-shipped to a live worker."""

    async def main():
        coordinator = ClusterCoordinator(registry, num_workers=2, replication=1)
        async with coordinator:
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                serves = asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
                killer = asyncio.ensure_future(_kill_when_busy(coordinator, 0))
                results = await serves
                await killer
                # Routing fully recovered: a fresh sweep also succeeds.
                again = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
            return results + again, coordinator.stats

    results, stats = asyncio.run(main())
    for result in results:
        record = registry.decode(result.request, result.response)
        assert record == registry.expected(result.request.global_index)
    assert stats.worker_deaths == 1
    assert stats.rebalanced_shards >= 1


def test_heartbeat_timeout_declares_stalled_worker_dead(registry):
    """A SIGSTOP'd worker stops heartbeating and fails like a crashed one."""

    async def main():
        coordinator = ClusterCoordinator(
            registry,
            num_workers=2,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.5,
        )
        async with coordinator:
            os.kill(coordinator._workers[0].process.pid, signal.SIGSTOP)
            deadline = asyncio.get_running_loop().time() + 15.0
            while 0 in coordinator.live_workers:
                assert asyncio.get_running_loop().time() < deadline, (
                    "heartbeat monitor never declared the stalled worker dead"
                )
                await asyncio.sleep(0.05)
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
    assert stats.worker_deaths == 1
    # The death was specifically a heartbeat timeout, not a process exit.
    assert stats.heartbeat_timeouts == 1


def test_epoch_publish_racing_request_spike_is_never_wrong(registry):
    """Requests admitted at epoch 0 decode epoch-0 bytes even if the publish
    broadcast lands first; requests admitted after decode epoch-1 bytes."""
    expected_old = [registry.expected(i) for i in range(NUM_RECORDS)]
    log = UpdateLog()
    for i in range(NUM_RECORDS):
        log.put(i, bytes([0x60 + i]) * RECORD_BYTES)

    async def main():
        async with ClusterCoordinator(registry, num_workers=2) as coordinator:
            runtime = ServeRuntime(
                registry, coordinator, policy()
            )
            async with runtime:
                pinned = [registry.make_request(i) for i in range(NUM_RECORDS)]
                spike = asyncio.gather(*(runtime.serve(r) for r in pinned))
                publish = coordinator.publish(log)
                old_results, publish_result = await asyncio.gather(spike, publish)
                fresh = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
            return old_results, fresh, publish_result

    old_results, fresh, publish_result = asyncio.run(main())
    assert publish_result.epoch == 1
    for result, expected in zip(old_results, expected_old):
        assert result.request.epoch == 0
        assert registry.decode(result.request, result.response) == expected
    for i, result in enumerate(fresh):
        assert result.request.epoch == 1
        record = registry.decode(result.request, result.response)
        assert record == bytes([0x60 + i]) * RECORD_BYTES
