"""Hint tier: batched online answering, epoch refresh under load, economics.

Three halves, one claim: preprocessing moves the server's per-query work
offline without ever risking a wrong byte.  The real-crypto half measures
the batched online window (one ``DB @ Q`` GEMM) against per-query
answering and checks bit-identity.  The serving half runs an open-loop
load test over :class:`~repro.hintpir.serving.HintServeRegistry` while
publishing epochs mid-run: every completed request must decode
byte-correct against the ground truth *of its answering epoch*, or be
refused with a typed ``HintStale`` — never silently wrong.  The model
half prices the hint tier's online phase on IVE at paper scale against a
full RowSel/ColTor pass (the ROADMAP >=10x gate) and sweeps churn to
locate where hint refresh starts to dominate the client's wire budget.
Results land in BENCH_hintpir.json so future PRs have a trajectory.
"""

import asyncio
import json
import os
import pathlib
import time

import numpy as np

from conftest import run_once

from repro.errors import HintStale, ServeError
from repro.hintpir import (
    HintPirClient,
    HintPirServer,
    HintServeRegistry,
    churn_refresh_curve,
    crossover_churn,
    hintpir_vs_full,
)
from repro.mutate import UpdateLog
from repro.pir.simplepir import SimplePirParams
from repro.serve.dispatcher import AdmissionConfig, ServeRuntime
from repro.serve.loadgen import poisson_arrivals
from repro.serve.workers import RealCryptoBackend
from repro.systems.batching import BatchPolicy

#: BENCH_SMOKE=1 shrinks every knob for the CI smoke job: the scripts
#: must still run end to end, but results are not written or compared.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

# -- real-crypto batched window -------------------------------------------
BATCH_RECORDS = 128 if SMOKE else 512
RECORD_BYTES = 64
BATCHES = (1, 8) if SMOKE else (1, 8, 32, 64)
PARAMS = SimplePirParams(lwe_dim=64 if SMOKE else 256)

# -- epoch-publish load test ----------------------------------------------
SERVE_RECORDS = 16 if SMOKE else 32
SERVE_QUERIES = 24 if SMOKE else 80
PUBLISH_EVERY = 8 if SMOKE else 16  # publish an epoch every N admissions
SERVE_RATE_QPS = 120.0
RETAIN_EPOCHS = 2

# -- model gate ------------------------------------------------------------
DESIGN_BATCH = 64
SPEEDUP_BOUND = 10.0

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_hintpir.json"


def _batched_online() -> dict:
    """Batched window vs per-query answering, with bit-identity check."""
    rng = np.random.default_rng(5)
    records = [rng.bytes(RECORD_BYTES) for _ in range(BATCH_RECORDS)]
    server = HintPirServer(records, RECORD_BYTES, PARAMS, seed=1)
    client = HintPirClient(server, seed=2)
    t = server.transcript()

    points = []
    identical = True
    for batch in BATCHES:
        targets = rng.integers(0, BATCH_RECORDS, size=batch)
        queries = [client.build_query(int(i)) for i in targets]
        start = time.monotonic()
        window = server.answer_window(queries)
        window_s = time.monotonic() - start
        start = time.monotonic()
        singles = [server.answer(q) for q in queries]
        loop_s = time.monotonic() - start
        for query, got, want in zip(queries, window, singles):
            identical &= bool(np.array_equal(got.vector, want.vector))
            identical &= client.decode(query, got) == records[query.col]
        points.append(
            {
                "batch": batch,
                "window_ms": window_s * 1e3,
                "loop_ms": loop_s * 1e3,
                "per_query_us": window_s / batch * 1e6,
            }
        )
    return {
        "num_records": BATCH_RECORDS,
        "record_bytes": RECORD_BYTES,
        "offline_bytes": t.offline_bytes,
        "online_bytes": t.online_bytes,
        "db_bytes": t.db_bytes,
        "identical": identical,
        "points": points,
    }


def _epoch_publish_run() -> dict:
    """Open-loop load test with epoch publishes mid-run (real crypto).

    The acceptance invariant: across publishes, every completed request
    decodes byte-correct against its answering epoch's ground truth or
    raises the typed ``HintStale`` — ``wrong_bytes`` must stay zero.
    """
    registry = HintServeRegistry.random(
        num_records=SERVE_RECORDS,
        record_bytes=32,
        num_shards=2,
        params=SimplePirParams(lwe_dim=64),
        seed=7,
        retain_epochs=RETAIN_EPOCHS,
        client_history=1 << 20,
    )
    policy = BatchPolicy(waiting_window_s=0.01, max_batch=8)
    arrivals = poisson_arrivals(SERVE_RATE_QPS, SERVE_QUERIES, seed=13)
    rng = np.random.default_rng(14)
    indices = rng.integers(0, SERVE_RECORDS, size=SERVE_QUERIES)
    publishes = []

    async def main():
        backend = RealCryptoBackend(registry)
        runtime = ServeRuntime(
            registry, backend, policy, AdmissionConfig(max_queue_depth=1024)
        )
        runtime.start()
        loop = asyncio.get_running_loop()
        epoch_start = loop.time()
        futures = []
        for at, (offset, index) in enumerate(zip(arrivals, indices)):
            delay = epoch_start + float(offset) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if at and at % PUBLISH_EVERY == 0:
                log = UpdateLog()
                for idx in rng.choice(SERVE_RECORDS, size=3, replace=False):
                    log.put(int(idx), rng.bytes(32))
                reports = registry.publish(log)
                publishes.append(sum(r.patch_bytes for r in reports))
            try:
                futures.append(runtime.submit(registry.make_request(int(index))))
            except ServeError:
                pass
        await runtime.drain()
        results = await asyncio.gather(*futures)
        backend.close()
        return results

    results = asyncio.run(main())
    # Decode in answering-epoch order so bundled delta chains apply in
    # sequence (the same audit the CLI loadtest performs).
    results = sorted(results, key=lambda r: getattr(r.response, "epoch", -1))
    correct = wrong = stale = 0
    for result in results:
        try:
            decoded = registry.decode(result.request, result.response)
        except HintStale:
            stale += 1
            continue
        want = registry.expected(
            result.request.global_index, epoch=result.response.epoch
        )
        if decoded == want:
            correct += 1
        else:
            wrong += 1
    client_patches = sum(c.patched_epochs for c in registry._clients)
    return {
        "queries": SERVE_QUERIES,
        "completed": len(results),
        "decoded_live": correct,
        "wrong_bytes": wrong,
        "stale_rejections": stale,
        "epochs_published": len(publishes),
        "patch_bytes_per_publish": publishes,
        "client_patched_epochs": client_patches,
    }


def _model() -> dict:
    """Paper-scale online gate and churn refresh economics."""
    online = [
        {
            "batch": p.batch,
            "online_ms": p.online_s * 1e3,
            "per_query_us": p.per_query_s * 1e6,
            "full_pass_ms": p.full_pass_s * 1e3,
            "speedup": p.speedup,
        }
        for p in hintpir_vs_full(batches=(1, 16, DESIGN_BATCH, 256))
    ]
    curve = churn_refresh_curve()
    refresh = [
        {
            "churn": p.churn,
            "dirty_records": p.dirty_records,
            "patch_bytes": p.patch_bytes,
            "refresh_mode": p.refresh_mode,
            "refresh_fraction": p.refresh_fraction,
        }
        for p in curve
    ]
    return {
        "online": online,
        "refresh_curve": refresh,
        "crossover_churn": crossover_churn(curve),
    }


def test_hintpir_online_and_refresh(benchmark, report):
    real, serve, model = run_once(
        benchmark, lambda: (_batched_online(), _epoch_publish_run(), _model())
    )
    if not SMOKE:
        payload = {"real_crypto": real, "epoch_publish": serve, "model_paper": model}
        _OUT.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"real crypto, {real['num_records']} x {real['record_bytes']} B records: "
        f"offline {real['offline_bytes'] / 1024:.0f} KiB, "
        f"online {real['online_bytes']} B/query "
        f"({real['db_bytes'] / real['online_bytes']:.0f}x below the DB)"
    ]
    lines.append(f"{'batch':>6s} {'window ms':>10s} {'loop ms':>9s} {'us/query':>9s}")
    for p in real["points"]:
        lines.append(
            f"{p['batch']:>6d} {p['window_ms']:>10.2f} {p['loop_ms']:>9.2f} "
            f"{p['per_query_us']:>9.1f}"
        )
    lines.append(
        f"epoch publishes under load: {serve['epochs_published']} publishes, "
        f"{serve['decoded_live']} live-decoded + {serve['stale_rejections']} typed "
        f"stale of {serve['completed']} ({serve['wrong_bytes']} wrong bytes)"
    )
    lines.append("IVE model, paper scale:")
    for p in model["online"]:
        lines.append(
            f"batch {p['batch']:>4d}: {p['per_query_us']:>8.1f} us/query vs "
            f"full pass {p['full_pass_ms']:.2f} ms = {p['speedup']:>6.1f}x"
        )
    lines.append(
        "refresh crossover (churn where refresh > half the wire budget): "
        f"{model['crossover_churn']:.1%}"
    )
    lines.append("JSON skipped (smoke)" if SMOKE else f"JSON written to {_OUT.name}")
    report("Hint-PIR tier — batched online phase, epoch refresh, economics", lines)

    # The batched window is bit-identical to per-query answering and every
    # decode returned the exact record bytes...
    assert real["identical"]
    # ...the ROADMAP gate holds: hint-tier online service at the design
    # batch is >=10x below one full RowSel/ColTor pass at paper scale...
    design = next(p for p in model["online"] if p["batch"] == DESIGN_BATCH)
    assert design["speedup"] >= SPEEDUP_BOUND, design
    # ...the churn sweep exposes a refresh-dominated regime (crossover
    # exists strictly inside the swept range)...
    assert model["crossover_churn"] is not None
    assert 0.0 < model["crossover_churn"] < 1.0
    # ...and publishes mid-traffic never produce a wrong byte: every
    # completed request decodes correct against its epoch or is refused
    # with the typed HintStale.
    assert serve["completed"] == serve["queries"]
    assert serve["wrong_bytes"] == 0
    assert serve["epochs_published"] >= 1
    assert serve["decoded_live"] + serve["stale_rejections"] == serve["completed"]
    assert serve["decoded_live"] > 0
