"""Multi-process cluster QPS vs the single-process thread pool.

One claim, measured end to end: moving real-crypto shard replicas into
worker processes (``repro.cluster``) must scale aggregate QPS with cores
instead of saturating on one GIL, while staying *byte-correct* — every
decoded record equals ground truth, on every backend, even with a worker
killed mid-run.  The ISSUE's bar — >= 1.6x over the thread pool at two
workers — is asserted only on CI-class hardware (two or more schedulable
cores); on a single-core box the measurement is still taken and recorded
so the trajectory exists, but the scaling assertion cannot physically
hold and is skipped.

Also recorded: the analytic twin ``repro.systems.cluster.scaling_curve``
(gather + final-tournament serial tail), so model-vs-measured drift is
visible in one JSON artifact (BENCH_cluster.json).
"""

import asyncio
import json
import os
import pathlib
import time

import numpy as np

from conftest import params_for_gb, run_once

from repro.cluster import ClusterCoordinator, ClusterRegistry
from repro.params import PirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.systems.batching import BatchPolicy
from repro.systems.cluster import scaling_curve

#: BENCH_SMOKE=1 shrinks every knob for the CI smoke job: the scripts
#: must still run end to end, but results are not written or compared.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

NUM_RECORDS = 16 if SMOKE else 32
RECORD_BYTES = 64
NUM_SHARDS = 2 if SMOKE else 4
NUM_QUERIES = 16 if SMOKE else 64
WORKER_COUNTS = (1, 2) if SMOKE else (1, 2, 4)
SPEEDUP_BOUND = 1.6  # the ISSUE's 2-worker bar (CI-class hardware only)
MULTICORE = len(os.sched_getaffinity(0)) >= 2

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_cluster.json"


def _params() -> PirParams:
    return PirParams.small(n=256, d0=8, num_dims=2)


def _records() -> list[bytes]:
    rng = np.random.default_rng(97)
    return [rng.bytes(RECORD_BYTES) for _ in range(NUM_RECORDS)]


def _policy() -> BatchPolicy:
    return BatchPolicy(
        waiting_window_s=0.005, max_batch=max(4, NUM_QUERIES // NUM_SHARDS)
    )


async def _drive(registry, backend) -> tuple[float, list]:
    """Closed burst of NUM_QUERIES through the runtime; returns (s, results)."""
    runtime = ServeRuntime(registry, backend, _policy())
    async with runtime:
        start = time.monotonic()
        results = await asyncio.gather(
            *(
                runtime.serve_index(i % registry.num_records)
                for i in range(NUM_QUERIES)
            )
        )
        elapsed = time.monotonic() - start
    return elapsed, results


def _num_correct(registry, results) -> int:
    return sum(
        registry.decode(r.request, r.response)
        == registry.expected(r.request.global_index)
        for r in results
    )


def _thread_pool_point(params, records) -> dict:
    registry = RealShardRegistry(params, records, NUM_SHARDS, RECORD_BYTES, seed=7)

    async def main():
        return await _drive(registry, RealCryptoBackend(registry))

    elapsed, results = asyncio.run(main())
    return {
        "backend": "thread-pool",
        "workers": 1,
        "qps": NUM_QUERIES / elapsed,
        "correct": _num_correct(registry, results),
    }


def _cluster_point(params, records, workers: int) -> dict:
    registry = ClusterRegistry(params, records, NUM_SHARDS, RECORD_BYTES, seed=7)

    async def main():
        async with ClusterCoordinator(registry, num_workers=workers) as coord:
            elapsed, results = await _drive(registry, coord)
            return elapsed, results, coord.stats

    elapsed, results, stats = asyncio.run(main())
    return {
        "backend": "cluster",
        "workers": workers,
        "qps": NUM_QUERIES / elapsed,
        "correct": _num_correct(registry, results),
        "batches_sent": stats.batches_sent,
    }


def _chaos_point(params, records) -> dict:
    """Kill a worker mid-run: retries must leave zero incorrect responses."""
    registry = ClusterRegistry(params, records, NUM_SHARDS, RECORD_BYTES, seed=7)

    async def main():
        coord = ClusterCoordinator(registry, num_workers=2, replication=2)
        async with coord:
            runtime = ServeRuntime(registry, coord, _policy())
            async with runtime:
                serves = asyncio.gather(
                    *(
                        runtime.serve_index(i % registry.num_records)
                        for i in range(NUM_QUERIES)
                    )
                )

                async def killer():
                    worker = coord._workers[0]
                    loop = asyncio.get_running_loop()
                    deadline = loop.time() + 10.0
                    while not worker.inflight and loop.time() < deadline:
                        await asyncio.sleep(0.001)
                    worker.process.kill()

                _, results = await asyncio.gather(killer(), serves)
            return results, coord.stats

    results, stats = asyncio.run(main())
    return {
        "backend": "cluster-chaos",
        "workers": 2,
        "correct": _num_correct(registry, results),
        "total": len(results),
        "worker_deaths": stats.worker_deaths,
        "batches_retried": stats.batches_retried,
    }


def _model_points() -> list[dict]:
    return [
        {
            "num_systems": p.num_systems,
            "qps": p.qps,
            "speedup": p.speedup,
            "efficiency": p.efficiency,
        }
        for p in scaling_curve(params_for_gb(2), sizes=(1, 2, 4, 8))
    ]


def test_cluster_scaling(benchmark, report):
    params = _params()
    records = _records()

    def sweep():
        baseline = _thread_pool_point(params, records)
        cluster = [_cluster_point(params, records, w) for w in WORKER_COUNTS]
        chaos = _chaos_point(params, records)
        return baseline, cluster, chaos

    baseline, cluster, chaos = run_once(benchmark, sweep)
    model = _model_points()

    if not SMOKE:
        _OUT.write_text(
            json.dumps(
                {
                    "records": NUM_RECORDS,
                    "record_bytes": RECORD_BYTES,
                    "shards": NUM_SHARDS,
                    "queries": NUM_QUERIES,
                    "sched_cores": len(os.sched_getaffinity(0)),
                    "thread_pool": baseline,
                    "cluster": cluster,
                    "chaos": chaos,
                    "model_scaling": model,
                },
                indent=2,
            )
            + "\n"
        )

    lines = [f"{'backend':>12s} {'workers':>8s} {'QPS':>8s} {'vs pool':>8s} {'ok':>6s}"]
    for point in [baseline] + cluster:
        lines.append(
            f"{point['backend']:>12s} {point['workers']:>8d} "
            f"{point['qps']:>8.1f} {point['qps'] / baseline['qps']:>7.2f}x "
            f"{point['correct']:>3d}/{NUM_QUERIES}"
        )
    lines.append(
        f"chaos: {chaos['correct']}/{chaos['total']} correct after "
        f"{chaos['worker_deaths']} death(s), {chaos['batches_retried']} retried"
    )
    lines.append("model: " + ", ".join(
        f"{p['num_systems']}sys {p['speedup']:.2f}x" for p in model
    ))
    lines.append(
        "JSON skipped (smoke)" if SMOKE else f"JSON written to {_OUT.name}"
    )
    report(
        f"Cluster runtime — measured scaling on "
        f"{len(os.sched_getaffinity(0))} core(s) vs thread pool",
        lines,
    )

    # Byte-correctness is unconditional: every backend, every run.
    assert baseline["correct"] == NUM_QUERIES
    for point in cluster:
        assert point["correct"] == NUM_QUERIES
    # Zero incorrect responses under a mid-run worker kill.
    assert chaos["correct"] == chaos["total"]
    assert chaos["worker_deaths"] == 1
    # Modeled scaling is monotone and sublinear (serial gather tail).
    for prev, nxt in zip(model, model[1:]):
        assert nxt["speedup"] > prev["speedup"]
        assert nxt["efficiency"] <= prev["efficiency"] + 1e-9
    # The ISSUE's scaling bar, only where the hardware can express it.
    if MULTICORE and not SMOKE:
        two = next(p for p in cluster if p["workers"] == 2)
        assert two["qps"] >= SPEEDUP_BOUND * baseline["qps"], (
            f"2-worker cluster {two['qps']:.1f} QPS < "
            f"{SPEEDUP_BOUND}x thread pool {baseline['qps']:.1f} QPS"
        )
