"""Compute-backend hot path: reference vs ``eager`` vs ``native``.

Two rungs, each measured end to end on ``PirServer.answer``:

* **toy** (N = 256, 1 MiB DB, RowSel-dominated) — the three-way ladder.
  The ``eager`` backend (stacked numpy kernels, ``repro.he.backend``)
  must keep its >= 5x over the per-poly reference oracle, and the
  ``native`` backend (the same kernels compiled, ``repro.he.native``)
  must be >= 2x faster again than ``eager``.
* **paper** (N = 2^12, D0 = 64 x 2^4 columns of 8 KiB records: one
  64 MiB uint32 plane tensor, far beyond L2) — ``eager`` vs ``native`` only;
  the per-poly reference would take minutes here.  ``native`` must be
  >= 2x over ``eager``.  One profiled answer per backend records where
  the time goes (``stage_s``; stages nest, so they do not sum to the
  total).

Where the native library cannot be built the ``native`` rung is skipped
with that reason (the toy rung still times eager against the reference)
and no JSON is written.

On both rungs every backend produces *byte-identical* ``PirResponse``
transcripts — backends only reassociate exact modular arithmetic, so any
divergence is a bug, not noise.

A third, *window* rung measures the dispatch window as one tensor
program: ``answer_batch`` of Q = 8 queries on the toy geometry and one
keyword-PIR pass (36 bucket queries) on its bucket geometry, each
against the same queries answered one ``answer`` at a time.  Responses
must be byte-identical; the speedup is whatever the scratch-budget group
size buys at that geometry (groups of one on the toy rung — its single
query already outgrows the budget — groups of seven on the kv buckets).

Also timed: database preprocessing (one batched CRT+NTT per plane vs one
call per polynomial on the toy rung, ``native`` vs ``eager`` on the
paper rung), the cost the serving layer sees on every epoch build.
Results land in BENCH_hotpath.json, stamped with the commit and the
default backend, so future PRs have a trajectory; ``bench_guard`` holds
the ``byte_identical`` / ``decoded_ok`` / ``identical`` leaves to exact
match.
"""

import json
import os
import pathlib
import subprocess
import time

# Before numpy loads its BLAS: with two OpenBLAS threads on a two-core
# box a fresh process now and then lands both on one core and the
# N = 256 dgemms stall ~10x, which trips the toy-rung speedup bound.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import pytest  # noqa: E402
from conftest import run_once  # noqa: E402

from repro.he import native  # noqa: E402
from repro.he.backend import get_backend  # noqa: E402
from repro.he.poly import Domain, RingContext  # noqa: E402
from repro.kvpir.server import KvPirProtocol  # noqa: E402
from repro.obs.profile import profiled  # noqa: E402
from repro.params import PirParams  # noqa: E402
from repro.pir.database import PirDatabase, PreprocessedDatabase  # noqa: E402
from repro.pir.protocol import PirProtocol  # noqa: E402
from repro.pir.server import PirServer  # noqa: E402

#: BENCH_SMOKE=1 shrinks every knob for the CI smoke job: the scripts
#: must still run end to end, but results are not written or compared.
SMOKE = bool(os.environ.get("BENCH_SMOKE"))

# Mid-size, RowSel-dominated geometry: 2048 polynomials (D0=32 x 2^6
# columns) of 512 B records at n=256 — a 1 MiB database whose answer
# path spends most of its time in the RowSel GEMM and ColTor rounds.
DIMS = 3 if SMOKE else 6
D0 = 8 if SMOKE else 32
NUM_QUERIES = 1 if SMOKE else 3
RECORD_BYTES = 512
EAGER_BOUND = 5.0  # eager over the per-poly oracle
NATIVE_BOUND = 2.0  # native over eager
PREPROCESS_BOUND = 3.0  # per-poly preprocess is already vectorised

# Paper-shaped rung: the e2e benchmark's plain_n4096_direct geometry.
PAPER_D0 = 8 if SMOKE else 64
PAPER_DIMS = 1 if SMOKE else 4
PAPER_RECORD_BYTES = 8192
PAPER_NATIVE_BOUND = 2.0  # native over eager at N = 2^12

#: Why the native rung cannot run on this machine, or None when it can.
NATIVE_MISSING = None if native.load_library() is not None else (
    "the native kernels could not be built here (no C compiler, or the "
    "build or load failed): the native rung has nothing to measure"
)

# Window rung: Q queries through answer_batch, and one kv lookup pass.
WINDOW_QUERIES = 2 if SMOKE else 8
KV_KEYS = 64 if SMOKE else 2048
KV_LOOKUPS = 2 if SMOKE else 8

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"


def _commit() -> str | None:
    """The checkout's commit, ``-dirty`` when the tree differs from it."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=_OUT.parent, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _preprocess_reference(db: PirDatabase, ring: RingContext) -> tuple[float, object]:
    """The pre-batching preprocess: one CRT+NTT call per polynomial."""
    start = time.monotonic()
    planes = [
        [ring.from_small_coeffs(coeffs, domain=Domain.NTT).residues for coeffs in plane]
        for plane in db.planes
    ]
    elapsed = time.monotonic() - start
    return elapsed, PreprocessedDatabase(
        db.layout, ring, np.array(planes, dtype=np.uint32)
    )


def _identical(responses, oracle_responses) -> bool:
    return all(
        np.array_equal(f.a.residues, r.a.residues)
        and np.array_equal(f.b.residues, r.b.residues)
        for fr, rr in zip(responses, oracle_responses)
        for f, r in zip(fr.plane_cts, rr.plane_cts)
    )


def _run() -> dict:
    params = PirParams.small(n=256, d0=D0, num_dims=DIMS)
    num_records = params.num_db_polys  # one record per polynomial
    db = PirDatabase.random(params, num_records, RECORD_BYTES, seed=31)
    protocol = PirProtocol(params, db, seed=32, backend="eager")
    ring = protocol.server.ring
    setup = protocol.client.setup_message()
    servers = {"eager": protocol.server}
    if NATIVE_MISSING is None:
        servers["native"] = PirServer(protocol.server.db, setup, backend="native")

    # -- preprocessing: batched (current) vs per-poly (reference) ---------
    start = time.monotonic()
    pre_fast = db.preprocess(ring)
    pre_fast_s = time.monotonic() - start
    pre_ref_s, pre_ref = _preprocess_reference(db, ring)
    pre_identical = bool(np.array_equal(pre_fast.tensor, pre_ref.tensor))

    # -- answer path: reference oracle, then each backend -----------------
    rng = np.random.default_rng(33)
    indices = [int(i) for i in rng.choice(num_records, size=NUM_QUERIES, replace=False)]
    queries = [protocol.client.build_query(i, db.layout) for i in indices]
    for server in servers.values():
        server.answer(queries[0])  # warm caches (twiddles, kernel tables)
    protocol.server.answer_reference(queries[0])

    start = time.monotonic()
    ref = [protocol.server.answer_reference(q) for q in queries]
    ref_s = time.monotonic() - start

    timings, responses = _interleaved_best(servers, queries, 1 if SMOKE else 2)

    decoded_ok = all(
        protocol.client.decode_response(resp, idx, db.layout) == db.record(idx)
        for name in servers
        for resp, idx in zip(responses[name], indices)
    )
    answer = {
        "queries": NUM_QUERIES,
        "reference_s_per_query": ref_s / NUM_QUERIES,
        "eager": {
            "s_per_query": timings["eager"] / NUM_QUERIES,
            "speedup_vs_reference": ref_s / timings["eager"],
            "byte_identical": _identical(responses["eager"], ref),
        },
        "decoded_ok": decoded_ok,
    }
    if "native" in servers:
        answer["native"] = {
            "s_per_query": timings["native"] / NUM_QUERIES,
            "speedup_vs_reference": ref_s / timings["native"],
            "speedup_vs_eager": timings["eager"] / timings["native"],
            "byte_identical": _identical(responses["native"], ref),
        }
    return {
        "environment": {"commit": _commit(), "backend": get_backend().name},
        "params": {
            "n": params.n,
            "d0": params.d0,
            "num_dims": params.num_dims,
            "num_polys": params.num_db_polys,
            "record_bytes": RECORD_BYTES,
            "db_bytes": num_records * RECORD_BYTES,
        },
        "answer": answer,
        "preprocess": {
            "fast_s": pre_fast_s,
            "reference_s": pre_ref_s,
            "speedup": pre_ref_s / pre_fast_s,
            "identical": pre_identical,
        },
    }


def _interleaved_best(servers: dict, queries, passes: int) -> tuple[dict, dict]:
    """Best-of-``passes`` answer seconds per backend, passes interleaved.

    A load spike on the shared runner should not land entirely on one
    backend's sample.
    """
    timings = {name: float("inf") for name in servers}
    responses: dict[str, list] = {}
    for _ in range(passes):
        for name, server in servers.items():
            start = time.monotonic()
            responses[name] = [server.answer(q) for q in queries]
            timings[name] = min(timings[name], time.monotonic() - start)
    return timings, responses


def _run_paper() -> dict:
    params = PirParams.functional(d0=PAPER_D0, num_dims=PAPER_DIMS)
    num_records = params.num_db_polys  # one 8 KiB record per polynomial
    db = PirDatabase.random(params, num_records, PAPER_RECORD_BYTES, seed=41)
    ring = RingContext(params)
    db.preprocess(ring, backend="native")  # warm: kernel tables, page faults

    pre_s, pres = {}, {}
    for name in ("native", "eager"):
        start = time.monotonic()
        pres[name] = db.preprocess(ring, backend=name)
        pre_s[name] = time.monotonic() - start
    pre_identical = all(
        np.array_equal(pres["native"].plane_tensor(p), pres["eager"].plane_tensor(p))
        for p in range(pres["native"].plane_count)
    )
    del pres["eager"]

    protocol = PirProtocol(params, db, seed=42, backend="native")
    setup = protocol.client.setup_message()
    servers = {
        "eager": PirServer(pres["native"], setup, backend="eager"),
        "native": PirServer(pres["native"], setup, backend="native"),
    }
    index = int(np.random.default_rng(43).integers(num_records))
    queries = [protocol.client.build_query(index, db.layout)]
    for server in servers.values():
        server.answer(queries[0])  # warm caches (twiddles, kernel tables, gathers)
    timings, responses = _interleaved_best(servers, queries, 1 if SMOKE else 2)

    stage_s = {}
    for name, server in servers.items():
        with profiled() as profiler:
            server.answer(queries[0])
        stage_s[name] = {
            stage.partition("@")[0]: stats["seconds"]
            for stage, stats in profiler.snapshot().items()
        }
    return {
        "params": {
            "n": params.n,
            "d0": params.d0,
            "num_dims": params.num_dims,
            "num_polys": params.num_db_polys,
            "record_bytes": PAPER_RECORD_BYTES,
            "plane_tensor_bytes": pres["native"].plane_tensor(0).nbytes,
        },
        "answer": {
            "eager_s_per_query": timings["eager"],
            "native": {
                "s_per_query": timings["native"],
                "speedup_vs_eager": timings["eager"] / timings["native"],
                "byte_identical": _identical(
                    responses["native"], responses["eager"]
                ),
            },
            "decoded_ok": protocol.client.decode_response(
                responses["native"][0], index, db.layout
            ) == db.record(index),
            "stage_s": stage_s,
        },
        "preprocess": {
            "eager_s": pre_s["eager"],
            "native_s": pre_s["native"],
            "speedup": pre_s["eager"] / pre_s["native"],
            "identical": pre_identical,
        },
    }


def _looped_vs_stacked(looped, stacked, passes: int) -> dict:
    """Best-of-``passes`` seconds of both callables, interleaved."""
    best = {"looped": float("inf"), "stacked": float("inf")}
    responses = {}
    for _ in range(passes):
        for name, call in (("looped", looped), ("stacked", stacked)):
            start = time.monotonic()
            responses[name] = call()
            best[name] = min(best[name], time.monotonic() - start)
    return {
        "looped_s": best["looped"],
        "stacked_s": best["stacked"],
        "speedup": best["looped"] / best["stacked"],
        "byte_identical": _identical(responses["stacked"], responses["looped"]),
    }


def _run_window() -> dict:
    passes = 1 if SMOKE else 5
    # -- plain: the toy rung's geometry, Q queries in one window ----------
    params = PirParams.small(n=256, d0=D0, num_dims=DIMS)
    db = PirDatabase.random(params, params.num_db_polys, RECORD_BYTES, seed=51)
    protocol = PirProtocol(params, db, seed=52)
    server = protocol.server
    rng = np.random.default_rng(53)
    indices = [int(i) for i in rng.integers(db.num_records, size=WINDOW_QUERIES)]
    queries = protocol.client.build_queries(indices, [db.layout] * len(indices))
    server.answer_batch(queries)  # warm
    plain = _looped_vs_stacked(
        lambda: [server.answer(q) for q in queries],
        lambda: server.answer_batch(queries),
        passes,
    )
    plain.update(queries=len(queries), group_size=server.group_size)

    # -- kv: one lookup window = one pass over every bucket ---------------
    items = {rng.bytes(12): rng.bytes(32) for _ in range(KV_KEYS)}
    kv = KvPirProtocol(
        PirParams.small(n=256, d0=32, num_dims=6), items,
        max_lookup_batch=KV_LOOKUPS, seed=54,
    )
    keys = list(items)[: KV_LOOKUPS - 1] + [b"absent key"]
    plan = kv.client.plan(keys)
    query = kv.client.build_queries(plan)
    batch_server = kv.server.batch_server
    kv.server.answer(query)  # warm

    def looped():
        return [
            bucket.answer(q)
            for chunk in query.chunks for rnd in chunk.rounds
            for bucket, q in zip(batch_server.servers, rnd)
        ]

    def stacked():
        return [
            response
            for chunk in kv.server.answer(query).chunks for rnd in chunk.rounds
            for response in rnd
        ]

    kv_pass = _looped_vs_stacked(looped, stacked, passes)
    bucket = batch_server.servers[0]
    kv_pass.update(
        bucket_queries=sum(len(r) for c in query.chunks for r in c.rounds),
        bucket_d0=bucket.params.d0,
        bucket_dims=bucket.params.num_dims,
        group_size=bucket.group_size,
    )
    return {"plain": plain, "kv": kv_pass}


def test_hotpath_speedup_and_equivalence(benchmark, report):
    result = run_once(
        benchmark,
        lambda: {
            **_run(),
            "paper": None if NATIVE_MISSING else _run_paper(),
            "window": _run_window(),
        },
    )
    written = not SMOKE and NATIVE_MISSING is None
    if written:
        _OUT.write_text(json.dumps(result, indent=2) + "\n")

    p, ans, pre = result["params"], result["answer"], result["preprocess"]
    eager, fast = ans["eager"], ans.get("native")
    ladder = (
        f" -> native {fast['s_per_query'] * 1e3:.1f} ms"
        f" ({fast['speedup_vs_eager']:.1f}x over eager,"
        f" {fast['speedup_vs_reference']:.1f}x over reference)"
        if fast else f"; native skipped: {NATIVE_MISSING}"
    )
    report(
        "Compute-backend hot path — answer pipeline and preprocessing",
        [
            f"geometry: D0={p['d0']} x 2^{p['num_dims']} = {p['num_polys']} polys, "
            f"n={p['n']}, {p['db_bytes'] / 2**20:.1f} MiB raw DB",
            f"answer (per query): reference {ans['reference_s_per_query'] * 1e3:.1f} ms"
            f" -> eager {eager['s_per_query'] * 1e3:.1f} ms"
            f" ({eager['speedup_vs_reference']:.1f}x){ladder}",
            f"transcripts byte-identical: eager {eager['byte_identical']}"
            + (f", native {fast['byte_identical']}" if fast else "")
            + f"; decoded correctly: {ans['decoded_ok']}",
            f"preprocess: per-poly {pre['reference_s'] * 1e3:.0f} ms -> batched "
            f"{pre['fast_s'] * 1e3:.0f} ms = {pre['speedup']:.1f}x "
            f"(identical: {pre['identical']})",
            f"JSON written to {_OUT.name}" if written else "JSON skipped",
        ],
    )

    paper = result["paper"]
    if paper:
        pp, pans, ppre = paper["params"], paper["answer"], paper["preprocess"]
        pfast = pans["native"]
        shares = ", ".join(
            f"{stage} {pans['stage_s']['eager'].get(stage, 0) * 1e3:.0f}"
            f" -> {pans['stage_s']['native'].get(stage, 0) * 1e3:.0f}"
            for stage in ("expand", "rowsel", "coltor", "ntt_fwd", "ntt_inv", "decompose")
        )
        report(
            "Compute-backend hot path — paper-shaped rung (N = 2^12)",
            [
                f"geometry: D0={pp['d0']} x 2^{pp['num_dims']} = {pp['num_polys']} polys, "
                f"n={pp['n']}, {pp['plane_tensor_bytes'] / 2**20:.0f} MiB plane tensor",
                f"answer (per query): eager {pans['eager_s_per_query'] * 1e3:.0f} ms"
                f" -> native {pfast['s_per_query'] * 1e3:.0f} ms"
                f" ({pfast['speedup_vs_eager']:.1f}x); byte-identical: "
                f"{pfast['byte_identical']}; decoded correctly: {pans['decoded_ok']}",
                f"stage ms, eager -> native (nested): {shares}",
                f"preprocess: eager {ppre['eager_s']:.2f} s -> native "
                f"{ppre['native_s']:.2f} s = {ppre['speedup']:.1f}x "
                f"(identical: {ppre['identical']})",
            ],
        )

    window = result["window"]
    wplain, wkv = window["plain"], window["kv"]
    report(
        "Compute-backend hot path — the dispatch window as one tensor program",
        [
            f"plain answer_batch, Q={wplain['queries']} (groups of "
            f"{wplain['group_size']}): looped {wplain['looped_s'] * 1e3:.0f} ms -> "
            f"stacked {wplain['stacked_s'] * 1e3:.0f} ms ({wplain['speedup']:.2f}x); "
            f"byte-identical: {wplain['byte_identical']}",
            f"kv pass, {wkv['bucket_queries']} bucket queries at D0={wkv['bucket_d0']} x "
            f"2^{wkv['bucket_dims']} (groups of {wkv['group_size']}): looped "
            f"{wkv['looped_s'] * 1e3:.0f} ms -> stacked {wkv['stacked_s'] * 1e3:.0f} ms "
            f"({wkv['speedup']:.2f}x); byte-identical: {wkv['byte_identical']}",
        ],
    )

    # No backend may ever diverge from the oracle...
    assert wplain["byte_identical"]
    assert wkv["byte_identical"]
    assert eager["byte_identical"]
    assert ans["decoded_ok"]
    assert pre["identical"]
    if paper:
        assert pfast["byte_identical"]
        assert pans["decoded_ok"]
        assert ppre["identical"]
        assert fast["byte_identical"]
    # ...and each must clear its speedup bound end to end.  A single tiny
    # query on a shared CI runner is not a stable timing sample, so the
    # smoke job only checks equivalence — the speedup claims are asserted
    # at full size.
    if not SMOKE:
        assert eager["speedup_vs_reference"] >= EAGER_BOUND, eager
        assert pre["speedup"] >= PREPROCESS_BOUND, pre
        if paper:
            assert fast["speedup_vs_eager"] >= NATIVE_BOUND, fast
            assert pfast["speedup_vs_eager"] >= PAPER_NATIVE_BOUND, pfast
    if NATIVE_MISSING:
        pytest.skip(NATIVE_MISSING)
