"""Per-layer probes and staged replays of the traced run.

Every function times a layer from outside, through its public calls.
Where a production call hides its stages, the replay calls the public
stage functions in the production order and insists on a byte-identical
result (``ReplayMismatch`` otherwise).  Spans go to the run's
``SpanLog``; the metric functions at the bottom read them back.
"""

from __future__ import annotations

import asyncio
import statistics

import numpy as np

from e2e_harness import now, percentile, unattributed_share
from repro.hashing.cuckoo import cuckoo_assign
from repro.he import modmath
from repro.he.backend import PLAN_MAX_N, get_backend
from repro.he.batched import BfvCiphertextVec, RnsPolyVec
from repro.he.poly import Domain
from repro.he.rgsw import rgsw_encrypt
from repro.hintpir.protocol import HintPirServer
from repro.mutate.log import UpdateLog
from repro.mutate.serving import VersionedShardRegistry
from repro.params import PirParams
from repro.pir.client import PirClient, PirResponse
from repro.pir.database import PirDatabase
from repro.pir.rowsel import rowsel_plane_tensor
from repro.pir.server import PirServer
from repro.systems.scale_up import ScaleUpSystem

#: Polynomials per fixed-shape ``he`` probe call, and calls per probe.
HE_BATCH = 8
HE_REPS = 5
#: The hint-tier GEMM probe: one full-size shard (a record is a column
#: of one-byte entries) against a 32-wide dispatch window, mod 2^28.
GEMM_SHAPE = (256, 1024)
GEMM_WINDOW = 32
GEMM_Q = 1 << 28


class ReplayMismatch(AssertionError):
    """A staged replay disagreed with the production call it replays."""


def median_seconds(call, reps: int = HE_REPS) -> float:
    times = []
    for _ in range(reps):
        start = now()
        call()
        times.append(now() - start)
    return statistics.median(times)


# -- he ---------------------------------------------------------------------


def gemm_probe() -> dict:
    backend, rng = get_backend(), np.random.default_rng(0)
    db = rng.integers(0, 256, size=GEMM_SHAPE, dtype=np.int64)
    window = rng.integers(0, GEMM_Q, size=(GEMM_SHAPE[1], GEMM_WINDOW), dtype=np.int64)
    gemm_s = median_seconds(lambda: backend.modular_gemm(db, window, GEMM_Q))
    return {"he.modular_gemm_ms": gemm_s * 1e3}


def he_probe(client: PirClient) -> dict:
    """Fixed-shape kernel probes on ``get_backend()`` over the client's ring."""
    backend, ring, params = get_backend(), client.ring, client.params
    rng = np.random.default_rng(0)
    moduli = np.array(params.moduli, dtype=np.int64)[:, None]
    residues = rng.integers(0, 1 << 27, size=(HE_BATCH, ring.rns_count, ring.n)) % moduli
    coeff = RnsPolyVec(ring, residues, Domain.COEFF)
    cts = [client.bfv.encrypt(np.zeros(ring.n, dtype=np.int64), client.secret_key)] * HE_BATCH
    vec = BfvCiphertextVec.from_cts(cts)
    bit = rgsw_encrypt(client.bfv, client.gadget, 1, client.secret_key)
    per_poly_us = 1e6 / HE_BATCH
    return {
        "he.ntt_fwd_us_per_poly": per_poly_us
        * median_seconds(lambda: backend.ntt_forward(ring, residues)),
        "he.ntt_inv_us_per_poly": per_poly_us
        * median_seconds(lambda: backend.ntt_inverse(ring, residues)),
        "he.decompose_us_per_poly": per_poly_us
        * median_seconds(lambda: backend.decompose(client.gadget, coeff)),
        "he.ext_product_ms": 1e3
        * median_seconds(lambda: backend.external_product(bit, vec, client.gadget)),
        **gemm_probe(),
        "he.plan_engaged": int(backend.name == "planned" and params.n <= PLAN_MAX_N),
    }


# -- pir --------------------------------------------------------------------


def pir_build(log, params: PirParams, records, record_bytes: int, seed: int):
    """Key generation, packing and preprocessing, one span each.

    This is the direct workload's deployment build, and the staged set-up
    replay of the tiers whose registry constructor hides these steps.
    """
    t0 = now()
    client = PirClient(params, seed=seed)
    t1 = now()
    db = PirDatabase.from_records(records, params, record_bytes)
    t2 = now()
    pre = db.preprocess(client.ring)
    t3 = now()
    server = PirServer(pre, client.setup_message())
    t4 = now()
    if log is not None:
        root = log.add("pir.build", t0, t4)
        log.add("pir.keygen", t0, t1, root)
        log.add("pir.pack", t1, t2, root)
        log.add("pir.preprocess", t2, t3, root)
    return client, db, server


def pir_replay(log, client: PirClient, db: PirDatabase, server: PirServer, indices) -> None:
    """Per index: encode, production answer, staged answer, decode, compare.

    Production and staged answer swap order from one index to the next,
    so that whichever runs second (on memory the first just freed) does
    not tilt ``pir.unattributed_share`` one way.
    """
    params, backend = server.params, server.backend
    moduli = np.array(params.moduli, dtype=np.int64)[:, None]
    levels = modmath.ilog2(params.d0)

    def production(query):
        start = now()
        response = server.answer(query)
        return response.plane_cts, None, [("pir.answer", start, now(), {})]

    def staged(query):
        start = now()
        expanded = backend.expand(query.packed, server.evks, levels, server.gadget)
        stages, cts = [("pir.expand", start, now(), {})], []
        for plane in range(server.db.plane_count):
            tensor = rowsel_plane_tensor(server.db, plane)
            entries = backend.rowsel(expanded, tensor, moduli)
            stages.append(("pir.rowsel", stages[-1][2], now(), {"tensor_bytes": tensor.nbytes}))
            cts.append(backend.coltor(entries, query.selection_bits, server.gadget))
            stages.append(("pir.coltor", stages[-1][2], now(), {}))
        return cts, "pir.staged_answer", stages

    for turn, index in enumerate(indices):
        t0 = now()
        query = client.build_query(index, db.layout)
        t1 = now()
        answers = [call(query) for call in ((production, staged), (staged, production))[turn % 2]]
        t2 = now()
        record = client.decode_response(PirResponse(plane_cts=answers[0][0]), index, db.layout)
        t3 = now()
        for got, want in zip(answers[0][0], answers[1][0], strict=True):
            if not (
                np.array_equal(got.a.residues, want.a.residues)
                and np.array_equal(got.b.residues, want.b.residues)
            ):
                raise ReplayMismatch(f"staged pir answer differs at record {index}")
        if record != db.record(index):
            raise ReplayMismatch(f"pir replay decoded a wrong record {index}")
        root = log.add("pir.replay", t0, t3)
        log.add("pir.client_encode", t0, t1, root)
        log.add("pir.client_decode", t2, t3, root)
        for _, group, spans in answers:
            parent = root if group is None else log.add(group, spans[0][1], spans[-1][2], root)
            for name, start, end, args in spans:
                log.add(name, start, end, parent, **args)


def pir_unattributed_share(log) -> float:
    """1 - (fastest staged answer's stage times) / (fastest production answer).

    The fastest of the replayed queries on each side, not the median: the
    host flips between two speeds within seconds, which moves a single
    1.4 s call by a fifth, and only the fast state repeats.  Negative
    when the staged calls ran slower than the call they replay; either
    sign beyond the budget fails the run.
    """
    staged = min(
        sum(c["end_s"] - c["start_s"] for c in log.children[s["id"]])
        for s in log.named("pir.staged_answer")
    )
    return 1.0 - staged / (min(log.ms("pir.answer", "replay")) / 1e3)


def pir_metrics(log) -> dict:
    """``pir.*`` from the build and replay spans."""
    rowsel = log.named("pir.rowsel")
    # RowSel contracts the plane tensor once per ciphertext half.
    gib_s = [
        2 * s["tensor_bytes"] / (s["end_s"] - s["start_s"]) / 2**30 for s in rowsel
    ]
    return {
        "pir.client_encode_ms": statistics.median(log.ms("pir.client_encode")),
        "pir.answer_ms": statistics.median(log.ms("pir.answer", "replay")),
        "pir.expand_ms": statistics.median(log.ms("pir.expand")),
        "pir.rowsel_ms": statistics.median(log.ms("pir.rowsel")),
        "pir.coltor_ms": statistics.median(log.ms("pir.coltor")),
        "pir.unattributed_share": pir_unattributed_share(log),
        "pir.client_decode_ms": statistics.median(log.ms("pir.client_decode")),
        "pir.preprocess_s": statistics.median(log.ms("pir.preprocess")) / 1e3,
        "pir.keygen_s": statistics.median(log.ms("pir.keygen")) / 1e3,
        "pir.rowsel_gib_s": statistics.median(gib_s),
    }


# -- hashing / batchpir / kvpir ---------------------------------------------


async def kv_replay(log, dep, keys, items) -> dict:
    """One dispatch window replayed stage by stage against the production path."""
    registry = dep.registry
    client, server = registry.client(0), registry.server(0)
    served = await dep.runtime.serve_keys(keys)
    production = {r.request.key: r.response for r in served}
    t0 = now()
    plan = client.plan(keys)
    t1 = now()
    query = client.build_queries(plan)
    t2 = now()
    response = server.answer(query)
    t3 = now()
    values = client.decode(plan, response)
    t4 = now()
    if {k: values.get(k) for k in plan.keys} != production:
        raise ReplayMismatch("staged kv window differs from the served window")
    root = log.add("kv.replay", t0, t4, keys=len(plan.keys))
    log.add("kvpir.plan", t0, t1, root)
    log.add("kvpir.build_queries", t1, t2, root)
    log.add("batchpir.answer", t2, t3, root)
    log.add("kvpir.decode", t3, t4, root)
    bucket_queries = sum(len(rnd) for chunk in query.chunks for rnd in chunk.rounds)
    stored = list(items)
    build_s = median_seconds(lambda: cuckoo_assign(stored, client.layout.table), reps=3)
    return {
        "hashing.cuckoo_build_s": build_s,
        "kvpir.plan_ms": (t1 - t0) * 1e3,
        "kvpir.build_queries_ms": (t2 - t1) * 1e3,
        "batchpir.answer_ms": (t3 - t2) * 1e3,
        "kvpir.decode_ms": (t4 - t3) * 1e3,
        "kvpir.probes_per_key": plan.num_slots_probed / len(plan.keys),
        "batchpir.bucket_queries_per_window": bucket_queries,
        "batchpir.dummy_query_share": 1.0 - plan.num_slots_probed / bucket_queries,
    }


# -- hintpir / mutate -------------------------------------------------------


async def hint_replay(log, dep, indices) -> dict:
    """One window served, then answered again by ``answer_window`` directly."""
    registry = dep.registry
    requests = [registry.make_request(i) for i in indices]
    served = await asyncio.gather(*(dep.runtime.serve(r) for r in requests))
    per_rec_ms = []
    for shard in range(registry.num_shards):
        mine = [(r, s) for r, s in zip(requests, served) if r.shard_id == shard]
        if not mine:
            continue
        t0 = now()
        answers = registry.server(shard).answer_window([r.query for r, _ in mine])
        t1 = now()
        for answer, (_, result) in zip(answers, mine):
            if not np.array_equal(answer.vector, result.response.vector):
                raise ReplayMismatch("staged hint window differs from the served window")
        log.add("hintpir.answer_window", t0, t1, batch=len(mine))
        per_rec_ms.append((t1 - t0) * 1e3 / len(mine))
    return {"hintpir.answer_window_ms_per_rec": statistics.median(per_rec_ms)}


def hint_build_seconds(records, record_bytes: int) -> float:
    """Offline phase of one shard: pack the matrix and compute ``DB @ A``."""
    return median_seconds(lambda: HintPirServer(records, record_bytes), reps=3)


def mutate_probe(params: PirParams, records, record_bytes: int, updates, seed: int) -> dict:
    """One delta publish on the plain tier against a full registry build."""
    start = now()
    registry = VersionedShardRegistry(params, records, 2, record_bytes, seed=seed)
    full_s = now() - start
    log = UpdateLog()
    for index, record in updates:
        log.put(index, record)
    start = now()
    registry.publish(log)
    publish_s = now() - start
    return {
        "mutate.plain_publish_ms": publish_s * 1e3,
        "mutate.plain_speedup_vs_full": full_s / publish_s,
    }


# -- arch / systems (simulated: must repeat exactly) ------------------------


def arch_probe() -> dict:
    start = now()
    qps_2gib = ScaleUpSystem(PirParams.paper(256, 9)).qps(64)
    qps_32gib = ScaleUpSystem(PirParams.paper(256, 13)).qps(64)
    return {
        "arch.sim_qps_2gib_b64": qps_2gib,
        "arch.sim_qps_32gib_b64": qps_32gib,
        "arch.sim_host_ms": (now() - start) * 1e3,
    }


# -- serve ------------------------------------------------------------------


def serve_metrics(log, saturate: dict, solo: dict, paced: dict) -> dict:
    """``serve.*`` from the request spans of the traced phases."""
    batches = [s["batch"] for s in log.named("serve.service", "saturate")]
    served = [s for s in log.named("request", "solo") if s["ok"]]
    shares = [unattributed_share(log, s["id"]) for s in served]
    return {
        "serve.queue_wait_ms_p50": statistics.median(log.ms("serve.queue_wait", "saturate")),
        "serve.service_ms_p50": statistics.median(log.ms("serve.service", "saturate")),
        "serve.batch_size_mean": statistics.fmean(batches),
        "serve.solo_latency_p95_ms": solo["latency_p95_ms"],
        "serve.unattributed_share": statistics.median(shares),
        "serve.loop_lag_ms_p95": percentile(saturate["loop_lag_s"], 95) * 1e3,
        "serve.paced_latency_p50_ms": paced["latency_p50_ms"],
        "serve.paced_latency_p95_ms": paced["latency_p95_ms"],
        "serve.paced_queue_wait_ms_p95": percentile(log.ms("serve.queue_wait", "paced"), 95),
        "serve.paced_rejected_share": paced["rejected_share"],
        "bench.paced_lateness_ms_p95": paced["lateness_ms_p95"],
    }
