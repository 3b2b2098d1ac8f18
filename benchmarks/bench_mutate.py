"""Online database updates: delta apply vs full re-preprocess, under churn.

Three halves, one claim: update cost must scale with the delta, not the
database.  The real-crypto half measures ``repro.mutate`` dirty-plane
delta application against a from-scratch ``preprocess()`` across churn
rate x apply-batch splits (coalescing a churn window into one apply beats
applying it write by write).  The serving half runs an open-loop load
test over the epoch-versioned registry while hot-swapping epochs mid-run:
every admitted request must decode byte-correct against the epoch it was
admitted under, with tail latency stable across the swaps.  The model
half prices the same delta path on IVE at paper scale (2 GiB DB).
Results land in BENCH_mutate.json so future PRs have a trajectory.
"""

import asyncio
import json
import os
import pathlib
import time

import numpy as np

from conftest import params_for_gb, run_once

from repro.errors import ServeError
from repro.he.poly import RingContext
from repro.mutate import (
    UpdateLog,
    VersionedDatabase,
    churn_update_curve,
)
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.serve import RealShardRegistry
from repro.serve.dispatcher import AdmissionConfig, ServeRuntime
from repro.serve.loadgen import poisson_arrivals
from repro.serve.metrics import percentile
from repro.serve.workers import RealCryptoBackend
from repro.systems.batching import BatchPolicy

#: BENCH_SMOKE=1 shrinks every knob for the CI smoke job: the scripts
#: must still run end to end, but results are not written or compared.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

# -- real-crypto delta sweep: one record per polynomial --------------------
DELTA_DIMS = 4 if SMOKE else 7  # 256 / 2048 polys at d0=16
RECORD_BYTES = 512  # exactly one 512 B record per n=256 polynomial
CHURNS = (0.01,) if SMOKE else (0.0025, 0.01)
SPLITS = (1,) if SMOKE else (1, 4)  # apply the window as 1 log vs 4 logs
SPEEDUP_BOUND = 3.0 if SMOKE else 10.0

# -- epoch-swap load test --------------------------------------------------
SWAP_RECORDS = 16 if SMOKE else 24
SWAP_QUERIES = 24 if SMOKE else 60
SWAP_EVERY = 8 if SMOKE else 15  # publish an epoch every N admissions
SWAP_RATE_QPS = 30.0  # below saturation, so swap lag (not queueing) is visible

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_mutate.json"


def _delta_sweep() -> dict:
    """Measured delta apply vs full preprocess at tiny real parameters."""
    params = PirParams.small(n=256, d0=16, num_dims=DELTA_DIMS)
    num_records = params.num_db_polys  # one record per polynomial
    rng = np.random.default_rng(11)
    records = [rng.bytes(RECORD_BYTES) for _ in range(num_records)]
    ring = RingContext(params)

    vdb = VersionedDatabase(params, records, RECORD_BYTES, ring=ring)
    start = time.monotonic()
    vdb.current.db.preprocess(ring)  # the full-rebuild baseline, timed
    full_s = time.monotonic() - start

    points = []
    for churn in CHURNS:
        updates = max(1, round(churn * num_records))
        for splits in SPLITS:
            indices = rng.choice(num_records, size=updates, replace=False)
            chunks = np.array_split(indices, min(splits, updates))
            start = time.monotonic()
            dirty = 0
            for chunk in chunks:
                log = UpdateLog()
                for idx in chunk:
                    log.put(int(idx), rng.bytes(RECORD_BYTES))
                dirty += vdb.apply(log).cost.polys_repacked
            apply_s = time.monotonic() - start
            cost = vdb.current.cost
            points.append(
                {
                    "churn": churn,
                    "updates": updates,
                    "splits": len(chunks),
                    "dirty_polys": dirty,
                    "apply_s": apply_s,
                    "speedup_vs_full": full_s / apply_s,
                    "counted_speedup": cost.full_polys / max(1, dirty),
                }
            )
    # Correctness: the churned database matches a from-scratch rebuild.
    fresh = PirDatabase.from_records(
        [vdb.record(i) for i in range(num_records)], params, RECORD_BYTES
    )
    identical = bool(np.array_equal(fresh.planes, vdb.current.db.planes))
    return {
        "num_records": num_records,
        "record_bytes": RECORD_BYTES,
        "full_preprocess_s": full_s,
        "byte_identical": identical,
        "points": points,
    }


def _epoch_swap_run() -> dict:
    """Open-loop load test with hot swaps mid-run (real crypto)."""
    params = PirParams.small(n=256, d0=8, num_dims=2)
    registry = RealShardRegistry.random(
        params,
        num_records=SWAP_RECORDS,
        record_bytes=32,
        num_shards=2,
        seed=7,
        retain=2,
    )
    policy = BatchPolicy(waiting_window_s=0.01, max_batch=8)
    arrivals = poisson_arrivals(SWAP_RATE_QPS, SWAP_QUERIES, seed=13)
    rng = np.random.default_rng(14)
    indices = rng.integers(0, SWAP_RECORDS, size=SWAP_QUERIES)

    truth = {0: [registry.expected(i) for i in range(SWAP_RECORDS)]}
    swap_costs = []

    async def main():
        runtime = ServeRuntime(
            registry,
            RealCryptoBackend(registry),
            policy,
            AdmissionConfig(max_queue_depth=1024),
        )
        runtime.start()
        loop = asyncio.get_running_loop()
        epoch_start = loop.time()
        futures = []
        for at, (offset, index) in enumerate(zip(arrivals, indices)):
            delay = epoch_start + float(offset) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if at and at % SWAP_EVERY == 0:
                log = UpdateLog()
                for idx in rng.choice(SWAP_RECORDS, size=3, replace=False):
                    log.put(int(idx), rng.bytes(32))
                published = registry.publish(log)
                swap_costs.append(published.cost.polys_repacked)
                truth[published.epoch] = [
                    registry.expected(i) for i in range(SWAP_RECORDS)
                ]
            request = registry.make_request(int(index))
            try:
                futures.append(runtime.submit(request))
            except ServeError:
                registry.release(request)  # a shed request must unpin
        await runtime.drain()
        return await asyncio.gather(*futures)

    results = asyncio.run(main())
    correct = 0
    latencies_by_epoch: dict[int, list[float]] = {}
    for result in results:
        request = result.request
        decoded = registry.decode(request, result.response)
        correct += decoded == truth[request.epoch][request.global_index]
        latencies_by_epoch.setdefault(request.epoch, []).append(result.latency_s)
    p99_by_epoch = {
        epoch: percentile(lats, 99) for epoch, lats in sorted(latencies_by_epoch.items())
    }
    return {
        "queries": SWAP_QUERIES,
        "swaps": len(swap_costs),
        "completed": len(results),
        "correct": correct,
        "dirty_polys_per_swap": swap_costs,
        "p99_ms_by_epoch": {str(e): p * 1e3 for e, p in p99_by_epoch.items()},
    }


def _model_points() -> list[dict]:
    """Paper-scale IVE update model on the 2 GiB Table I database."""
    return [
        {
            "churn": p.churn,
            "dirty_polys": p.dirty_polys,
            "apply_ms": p.apply_s * 1e3,
            "full_ms": p.full_s * 1e3,
            "speedup_vs_full": p.speedup,
            "placement": p.placement,
        }
        for p in churn_update_curve(params_for_gb(2), churns=(0.001, 0.01, 0.1))
    ]


def test_mutate_churn_and_epoch_swap(benchmark, report):
    real, swap, model = run_once(
        benchmark, lambda: (_delta_sweep(), _epoch_swap_run(), _model_points())
    )
    if not SMOKE:
        payload = {"real_crypto": real, "epoch_swap": swap, "model_2gib": model}
        _OUT.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"real crypto, {real['num_records']} x {real['record_bytes']} B records: "
        f"full preprocess {real['full_preprocess_s'] * 1e3:.0f} ms"
    ]
    lines.append(
        f"{'churn':>7s} {'splits':>6s} {'dirty':>6s} {'apply ms':>9s} {'speedup':>8s}"
    )
    for p in real["points"]:
        lines.append(
            f"{p['churn']:>6.2%} {p['splits']:>6d} {p['dirty_polys']:>6d} "
            f"{p['apply_s'] * 1e3:>9.2f} {p['speedup_vs_full']:>7.1f}x"
        )
    lines.append(
        f"epoch swaps under load: {swap['swaps']} swaps, "
        f"{swap['correct']}/{swap['completed']} byte-correct against the "
        "admitted epoch"
    )
    lines.append(
        "p99 by epoch (ms): "
        + ", ".join(f"{e}: {p:.1f}" for e, p in swap["p99_ms_by_epoch"].items())
    )
    lines.append("IVE model, 2 GiB DB:")
    for p in model:
        lines.append(
            f"{p['churn']:>6.2%} {p['dirty_polys']:>12d} polys "
            f"{p['apply_ms']:>8.2f} ms vs {p['full_ms']:>6.1f} ms "
            f"= {p['speedup_vs_full']:>7.1f}x ({p['placement']})"
        )
    lines.append("JSON skipped (smoke)" if SMOKE else f"JSON written to {_OUT.name}")
    report("Mutable PIR databases — delta apply, epoch swaps, update model", lines)

    # The churned database is byte-identical to a from-scratch rebuild...
    assert real["byte_identical"]
    # ...delta apply clears the speedup bound at <=1% churn (measured AND
    # counted work), in the real half and the paper-scale model...
    for p in real["points"]:
        if p["churn"] <= 0.01:
            assert p["speedup_vs_full"] >= SPEEDUP_BOUND, p
            assert p["counted_speedup"] >= SPEEDUP_BOUND, p
    model_1pct = next(p for p in model if p["churn"] == 0.01)
    assert model_1pct["speedup_vs_full"] >= 10.0
    # ...and no admitted request is lost or decoded against the wrong epoch
    # across hot swaps, with a sane tail in every epoch.
    assert swap["completed"] == swap["queries"]
    assert swap["correct"] == swap["completed"]
    assert swap["swaps"] >= 1
    p99s = list(swap["p99_ms_by_epoch"].values())
    assert all(p > 0 for p in p99s)
    if not SMOKE and min(p99s) > 0:
        assert max(p99s) / min(p99s) < 10.0  # stable tail across swaps
