"""Observability overhead: a traced+profiled run vs the bare hot path.

One claim, measured end to end: switching on per-request tracing and
kernel profiling (``--trace``) must cost at most 10% of the real-crypto
serving throughput.  The bare run and the instrumented run drive the
same closed burst through ``ServeRuntime`` + ``RealCryptoBackend``;
QPS is best-of-N to shave scheduler noise.  The instrumented run's
artifacts are sanity-checked inline — spans for every request, kernel
stages populated — so the benchmark cannot "win" by silently tracing
nothing.  Results land in BENCH_obs.json.
"""

import asyncio
import json
import os
import pathlib
import time

import numpy as np

from conftest import run_once

from repro.he.backend import get_backend
from repro.obs import KernelProfiler, Tracer
from repro.obs.profile import install as install_profiler
from repro.params import PirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.systems.batching import BatchPolicy

#: BENCH_SMOKE=1 shrinks every knob for the CI smoke job: the scripts
#: must still run end to end, but results are not written or compared.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

NUM_RECORDS = 16
RECORD_BYTES = 64
NUM_SHARDS = 2
NUM_QUERIES = 8 if SMOKE else 48
REPEATS = 1 if SMOKE else 3
OVERHEAD_BOUND = 0.10  # the ISSUE's bar: tracing costs <= 10% QPS

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_obs.json"


def _registry() -> RealShardRegistry:
    params = PirParams.small(n=256, d0=8, num_dims=2)
    rng = np.random.default_rng(97)
    records = [rng.bytes(RECORD_BYTES) for _ in range(NUM_RECORDS)]
    return RealShardRegistry(params, records, NUM_SHARDS, RECORD_BYTES, seed=7)


def _policy() -> BatchPolicy:
    return BatchPolicy(
        waiting_window_s=0.005, max_batch=max(4, NUM_QUERIES // NUM_SHARDS)
    )


def _burst(registry, traced: bool) -> dict:
    """One closed burst; returns QPS plus the run's obs artifacts."""
    tracer = Tracer() if traced else None
    profiler = KernelProfiler() if traced else None
    previous = install_profiler(profiler) if traced else None

    async def main():
        backend = RealCryptoBackend(registry, tracer=tracer)
        runtime = ServeRuntime(registry, backend, _policy(), tracer=tracer)
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

    try:
        elapsed, results = asyncio.run(main())
    finally:
        if traced:
            install_profiler(previous)
    correct = sum(
        registry.decode(r.request, r.response)
        == registry.expected(r.request.global_index)
        for r in results
    )
    return {
        "qps": NUM_QUERIES / elapsed,
        "correct": correct,
        "spans": len(tracer.spans) if traced else 0,
        "kernel_profile": profiler.snapshot() if traced else {},
    }


def _best_of(registry, traced: bool) -> dict:
    runs = [_burst(registry, traced) for _ in range(REPEATS)]
    return max(runs, key=lambda r: r["qps"])


def test_observability_overhead(benchmark, report):
    registry = _registry()

    def sweep():
        # Interleave-free ordering: bare first, instrumented second, so a
        # warm page cache if anything *favors* the instrumented run.
        return _best_of(registry, traced=False), _best_of(registry, traced=True)

    bare, traced = run_once(benchmark, sweep)
    overhead = 1.0 - traced["qps"] / bare["qps"]

    if not SMOKE:
        _OUT.write_text(
            json.dumps(
                {
                    "records": NUM_RECORDS,
                    "shards": NUM_SHARDS,
                    "queries": NUM_QUERIES,
                    "repeats": REPEATS,
                    "sched_cores": len(os.sched_getaffinity(0)),
                    "bare_qps": bare["qps"],
                    "traced_qps": traced["qps"],
                    "overhead": overhead,
                    "overhead_bound": OVERHEAD_BOUND,
                    "spans": traced["spans"],
                    "kernel_profile": traced["kernel_profile"],
                },
                indent=2,
            )
            + "\n"
        )

    lines = [
        f"{'run':>12s} {'QPS':>8s} {'ok':>6s} {'spans':>7s}",
        f"{'bare':>12s} {bare['qps']:>8.1f} "
        f"{bare['correct']:>3d}/{NUM_QUERIES} {bare['spans']:>7d}",
        f"{'traced':>12s} {traced['qps']:>8.1f} "
        f"{traced['correct']:>3d}/{NUM_QUERIES} {traced['spans']:>7d}",
        f"overhead {overhead:+.1%} (bound {OVERHEAD_BOUND:.0%})",
        "JSON skipped (smoke)" if SMOKE else f"JSON written to {_OUT.name}",
    ]
    report(
        "Observability — tracing + kernel profiling overhead on the "
        "real-crypto serving path",
        lines,
    )

    # Correctness is unconditional, instrumented or not.
    assert bare["correct"] == NUM_QUERIES
    assert traced["correct"] == NUM_QUERIES
    # The instrumented run actually observed the work it claims to.
    assert traced["spans"] >= NUM_QUERIES  # at least one span per request
    # Kernel stages are labelled ``stage@backend`` (the default backend here).
    backend = get_backend()
    for stage in ("expand", "rowsel", "coltor", "gemm"):
        label = f"{stage}@{backend.name}"
        assert traced["kernel_profile"][label]["calls"] > 0, label
    assert bare["spans"] == 0 and bare["kernel_profile"] == {}
    # The ISSUE's overhead bar (skipped in smoke: one tiny burst is noise).
    if not SMOKE:
        assert traced["qps"] >= (1.0 - OVERHEAD_BOUND) * bare["qps"], (
            f"instrumented {traced['qps']:.1f} QPS lost more than "
            f"{OVERHEAD_BOUND:.0%} vs bare {bare['qps']:.1f} QPS"
        )
