"""Compute-backend hot path: reference vs ``eager`` vs ``planned``.

Two rungs, each measured end to end on ``PirServer.answer``:

* **toy** (N = 256, 1 MiB DB, RowSel-dominated) — the three-way ladder.
  The ``eager`` backend (stacked tensor kernels in ``repro.he.batched``)
  must keep its >= 5x over the per-poly reference oracle, and the
  ``planned`` backend (dense GEMM-form NTT plans + Barrett reduction +
  tensor-resident ColTor, ``repro.he.backend``) must be >= 2x faster
  again than ``eager``.
* **paper** (N = 2^12, D0 = 64 x 2^4 columns of 8 KiB records: one
  128 MiB plane tensor, far beyond L2) — ``eager`` vs ``planned`` only;
  the per-poly reference would take minutes here.  ``planned`` runs its
  four-step NTT plan and NTT-domain substitution and must be >= 2x over
  ``eager`` (the ROADMAP gate for "make ``planned`` real at the paper's
  ring degree").  One profiled answer per backend records where the
  time goes (``stage_s``; stages nest, so they do not sum to the total).

On both rungs every backend produces *byte-identical* ``PirResponse``
transcripts — backends only reassociate exact modular arithmetic, so any
divergence is a bug, not noise.

A third, *window* rung measures the dispatch window as one tensor
program: ``answer_batch`` of Q = 8 queries on the toy geometry and one
keyword-PIR pass (36 bucket queries) on its bucket geometry, each
against the same queries answered one ``answer`` at a time.  Responses
must be byte-identical; the speedup is whatever the scratch-budget group
size buys at that geometry (groups of one on the toy rung — its single
query already outgrows the budget — groups of six on the kv buckets).

Also timed: database preprocessing (one batched CRT+NTT per plane vs one
call per polynomial on the toy rung, ``planned`` vs ``eager`` on the
paper rung), the cost the serving layer sees on every epoch build.
Results land in BENCH_hotpath.json so future PRs have a trajectory;
``bench_guard`` holds the ``byte_identical`` / ``decoded_ok`` /
``identical`` leaves to exact match.
"""

import json
import os
import pathlib
import time

# Before numpy loads its BLAS: with two OpenBLAS threads on a two-core
# box a fresh process now and then lands both on one core and the
# N = 256 dgemms stall ~10x, which trips the toy-rung speedup bound.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from conftest import run_once  # noqa: E402

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
EAGER_BOUND = 5.0  # eager over the per-poly oracle (pre-backend ISSUE bound)
PLANNED_BOUND = 2.0  # planned over eager (this ISSUE's gate)
PREPROCESS_BOUND = 3.0  # per-poly preprocess is already vectorised

# Paper-shaped rung: the e2e benchmark's plain_n4096_direct geometry.
PAPER_D0 = 8 if SMOKE else 64
PAPER_DIMS = 1 if SMOKE else 4
PAPER_RECORD_BYTES = 8192
PAPER_PLANNED_BOUND = 2.0  # planned over eager at N = 2^12 (ROADMAP gate)

# Window rung: Q queries through answer_batch, and one kv lookup pass.
WINDOW_QUERIES = 2 if SMOKE else 8
KV_KEYS = 64 if SMOKE else 2048
KV_LOOKUPS = 2 if SMOKE else 8

_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"


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
    protocol = PirProtocol(params, db, seed=32, backend="planned")
    ring = protocol.server.ring
    setup = protocol.client.setup_message()
    servers = {
        "eager": PirServer(protocol.server.db, setup, backend="eager"),
        "planned": protocol.server,
    }

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
        server.answer(queries[0])  # warm caches (twiddles, plans, tensors)
    protocol.server.answer_reference(queries[0])

    start = time.monotonic()
    ref = [protocol.server.answer_reference(q) for q in queries]
    ref_s = time.monotonic() - start

    timings, responses = _interleaved_best(servers, queries, 1 if SMOKE else 2)

    decoded_ok = all(
        protocol.client.decode_response(resp, idx, db.layout) == db.record(idx)
        for resp, idx in zip(responses["planned"], indices)
    )
    return {
        "params": {
            "n": params.n,
            "d0": params.d0,
            "num_dims": params.num_dims,
            "num_polys": params.num_db_polys,
            "record_bytes": RECORD_BYTES,
            "db_bytes": num_records * RECORD_BYTES,
        },
        "answer": {
            "queries": NUM_QUERIES,
            "reference_s_per_query": ref_s / NUM_QUERIES,
            "eager": {
                "s_per_query": timings["eager"] / NUM_QUERIES,
                "speedup_vs_reference": ref_s / timings["eager"],
                "byte_identical": _identical(responses["eager"], ref),
            },
            "planned": {
                "s_per_query": timings["planned"] / NUM_QUERIES,
                "speedup_vs_reference": ref_s / timings["planned"],
                "speedup_vs_eager": timings["eager"] / timings["planned"],
                "byte_identical": _identical(responses["planned"], ref),
            },
            "decoded_ok": decoded_ok,
        },
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
    db.preprocess(ring, backend="planned")  # warm: plan build, page faults

    pre_s, pres = {}, {}
    for name in ("planned", "eager"):
        start = time.monotonic()
        pres[name] = db.preprocess(ring, backend=name)
        pre_s[name] = time.monotonic() - start
    pre_identical = all(
        np.array_equal(pres["planned"].plane_tensor(p), pres["eager"].plane_tensor(p))
        for p in range(pres["planned"].plane_count)
    )
    del pres["eager"]

    protocol = PirProtocol(params, db, seed=42, backend="planned")
    setup = protocol.client.setup_message()
    servers = {
        "eager": PirServer(pres["planned"], setup, backend="eager"),
        "planned": PirServer(pres["planned"], setup, backend="planned"),
    }
    index = int(np.random.default_rng(43).integers(num_records))
    queries = [protocol.client.build_query(index, db.layout)]
    for server in servers.values():
        server.answer(queries[0])  # warm caches (twiddles, plans, gathers)
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
            "plane_tensor_bytes": pres["planned"].plane_tensor(0).nbytes,
        },
        "answer": {
            "eager_s_per_query": timings["eager"],
            "planned": {
                "s_per_query": timings["planned"],
                "speedup_vs_eager": timings["eager"] / timings["planned"],
                "byte_identical": _identical(
                    responses["planned"], responses["eager"]
                ),
            },
            "decoded_ok": protocol.client.decode_response(
                responses["planned"][0], index, db.layout
            ) == db.record(index),
            "stage_s": stage_s,
        },
        "preprocess": {
            "eager_s": pre_s["eager"],
            "planned_s": pre_s["planned"],
            "speedup": pre_s["eager"] / pre_s["planned"],
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
    protocol = PirProtocol(params, db, seed=52, backend="planned")
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
        lambda: {**_run(), "paper": _run_paper(), "window": _run_window()},
    )
    if not SMOKE:
        _OUT.write_text(json.dumps(result, indent=2) + "\n")

    p, ans, pre = result["params"], result["answer"], result["preprocess"]
    eager, planned = ans["eager"], ans["planned"]
    report(
        "Compute-backend hot path — answer pipeline and preprocessing",
        [
            f"geometry: D0={p['d0']} x 2^{p['num_dims']} = {p['num_polys']} polys, "
            f"n={p['n']}, {p['db_bytes'] / 2**20:.1f} MiB raw DB",
            f"answer (per query): reference {ans['reference_s_per_query'] * 1e3:.1f} ms"
            f" -> eager {eager['s_per_query'] * 1e3:.1f} ms"
            f" ({eager['speedup_vs_reference']:.1f}x)"
            f" -> planned {planned['s_per_query'] * 1e3:.1f} ms"
            f" ({planned['speedup_vs_eager']:.1f}x over eager,"
            f" {planned['speedup_vs_reference']:.1f}x over reference)",
            f"transcripts byte-identical: eager {eager['byte_identical']}, "
            f"planned {planned['byte_identical']}; "
            f"decoded correctly: {ans['decoded_ok']}",
            f"preprocess: per-poly {pre['reference_s'] * 1e3:.0f} ms -> batched "
            f"{pre['fast_s'] * 1e3:.0f} ms = {pre['speedup']:.1f}x "
            f"(identical: {pre['identical']})",
            "JSON skipped (smoke)" if SMOKE else f"JSON written to {_OUT.name}",
        ],
    )

    paper = result["paper"]
    pp, pans, ppre = paper["params"], paper["answer"], paper["preprocess"]
    pplanned = pans["planned"]
    shares = ", ".join(
        f"{stage} {pans['stage_s']['eager'].get(stage, 0) * 1e3:.0f}"
        f" -> {pans['stage_s']['planned'].get(stage, 0) * 1e3:.0f}"
        for stage in ("expand", "rowsel", "coltor", "ntt_fwd", "ntt_inv", "decompose")
    )
    report(
        "Compute-backend hot path — paper-shaped rung (N = 2^12)",
        [
            f"geometry: D0={pp['d0']} x 2^{pp['num_dims']} = {pp['num_polys']} polys, "
            f"n={pp['n']}, {pp['plane_tensor_bytes'] / 2**20:.0f} MiB plane tensor",
            f"answer (per query): eager {pans['eager_s_per_query'] * 1e3:.0f} ms"
            f" -> planned {pplanned['s_per_query'] * 1e3:.0f} ms"
            f" ({pplanned['speedup_vs_eager']:.1f}x); byte-identical: "
            f"{pplanned['byte_identical']}; decoded correctly: {pans['decoded_ok']}",
            f"stage ms, eager -> planned (nested): {shares}",
            f"preprocess: eager {ppre['eager_s']:.2f} s -> planned "
            f"{ppre['planned_s']:.2f} s = {ppre['speedup']:.1f}x "
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
    assert pplanned["byte_identical"]
    assert pans["decoded_ok"]
    assert ppre["identical"]
    assert eager["byte_identical"]
    assert planned["byte_identical"]
    assert ans["decoded_ok"]
    assert pre["identical"]
    # ...and each must clear its speedup bound end to end.  A single tiny
    # query on a shared CI runner is not a stable timing sample, so the
    # smoke job only checks equivalence — the speedup claims are asserted
    # at full size.
    if not SMOKE:
        assert eager["speedup_vs_reference"] >= EAGER_BOUND, eager
        assert planned["speedup_vs_eager"] >= PLANNED_BOUND, planned
        assert pre["speedup"] >= PREPROCESS_BOUND, pre
        assert pplanned["speedup_vs_eager"] >= PAPER_PLANNED_BOUND, pplanned
