"""The four workloads: inputs from a seed, deployments, verification.

One process plays client and server, and a "record" is one full round
trip — client encode, the server path, decode, byte-compare — because
several tiers run client crypto inside the serving window.  Ground truth
is the generated inputs themselves (for the hint tier, the inputs with
the published update logs applied up to the answering epoch), never what
the program reports.

Geometry, window policy and paced rate are constants of each workload:
changing one changes what the numbers mean, so it needs a new baseline.
"""

from __future__ import annotations

import asyncio
import statistics
import zlib
from types import SimpleNamespace

import numpy as np

import e2e_layers as layers
from e2e_harness import now
from repro.errors import HintStale, KeyNotFound, QueueFullError, ReproError
from repro.hintpir.serving import HintCryptoBackend, HintServeRegistry
from repro.kvpir.serving import KvCryptoBackend, KvServeRegistry
from repro.mutate.log import UpdateLog
from repro.params import PirParams
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.serve.loadgen import poisson_arrivals
from repro.systems.batching import BatchPolicy

#: Items generated per phase; callers cycle through their share.
PHASE_ITEMS = 4096
#: Share of kv lookups that ask for a key the store does not hold.
ABSENT_SHARE = 0.10
#: Hint-tier publishes during saturate: period and share of records rewritten.
PUBLISH_PERIOD_S = 0.25
PUBLISH_CHURN = 0.01
PUBLISH_LOGS = 64
#: Queries of a traced pir staged replay (even: the order alternates).
REPLAY_QUERIES = 4


# -- deployments ------------------------------------------------------------


class Direct:
    """``PirClient`` and ``PirServer`` called directly, no serving stack."""

    rejected = 0

    def __init__(self, records, client, db, server):
        self.records, self.client, self.db, self.server = records, client, db, server

    async def close(self) -> None:
        pass

    def side_tasks(self, phase, stop, log):
        return []

    async def round_trip(self, index, log, due=None):
        layout, ok = self.db.layout, False
        t0 = now()
        try:
            query = self.client.build_query(index, layout)
            t1 = now()
            response = self.server.answer(query)
            t2 = now()
            got = self.client.decode_response(response, index, layout)
            t3 = now()
            ok = got == self.records[index]
            self.sample = (query, response)
        except ReproError:
            pass
        t4 = now()
        if log is not None:
            root = log.add("request", t0, t4, ok=ok)
            if ok:
                log.add("client.encode", t0, t1, root)
                log.add("pir.answer", t1, t2, root)
                log.add("client.decode", t2, t3, root)
        return t0, t4, ok

    def traffic(self) -> tuple[float, float]:
        params = self.client.params
        query, response = self.sample
        return (
            query.size_bytes(params) + response.size_bytes(params),
            self.client.setup_message().size_bytes(params),
        )


class Served:
    """A registry behind ``ServeRuntime``; every pool has one worker thread."""

    def __init__(self, registry, backend, policy: BatchPolicy, records):
        self.registry, self.records = registry, records
        self.runtime = ServeRuntime(registry, backend, policy)
        self.runtime.start()
        self.rejected = 0

    async def close(self) -> None:
        await self.runtime.drain()

    def side_tasks(self, phase, stop, log):
        return []

    def decode(self, request, result):
        return self.registry.decode(request, result.response)

    def truth(self, item, result):
        return self.records[item]

    async def round_trip(self, item, log, due=None):
        result, ok = None, False
        t0 = now()
        try:
            # serve_index/serve_key are exactly these two calls; split so
            # the client's encode is timed apart from the serving stack.
            request = self.registry.make_request(item)
            t1 = now()
            result = await self.runtime.serve(request)
            t2 = now()
            got = self.decode(request, result)
            t3 = now()
            ok = got == self.truth(item, result)
            self.sample = (request, result)
        except QueueFullError:
            self.rejected += 1
        except ReproError:
            pass
        t4 = now()
        start = t0 if due is None else due
        if log is not None:
            root = log.add("request", start, t4, ok=ok)
            if result is not None:
                log.add("client.encode", t0, t1, root)
                log.add("serve.queue_wait", result.arrival_s, result.dispatch_s, root)
                log.add(
                    "serve.service", result.dispatch_s, result.finish_s, root,
                    batch=result.batch_size,
                )
                log.add("client.decode", t2, t3, root)
        return start, t4, ok

    def traffic(self) -> tuple[float, float]:
        params = self.registry.params
        request, result = self.sample
        return (
            request.query.size_bytes(params) + result.response.size_bytes(params),
            self.registry.client.setup_message().size_bytes(params),
        )


class KvServed(Served):
    lookups = misses = 0

    def decode(self, request, result):
        self.lookups += 1
        try:
            return self.registry.decode(request, result.response)
        except KeyNotFound:
            self.misses += 1
            return None

    def truth(self, key, result):
        return self.records.get(key)

    def traffic(self) -> tuple[float, float]:
        """One solo lookup replayed, sized by the protocol's own accounting."""
        client, server = self.registry.client(0), self.registry.server(0)
        params = client.layout.batch.bucket_params
        plan = client.plan([self.sample[0].key])
        query = client.build_queries(plan)
        response = server.answer(query)
        return (
            query.size_bytes(params) + response.size_bytes(params),
            client.setup_message().size_bytes(params),
        )


class HintServed(Served):
    """Hint tier; a publisher rewrites records beside the saturate reads."""

    def __init__(self, registry, backend, policy, records, logs):
        super().__init__(registry, backend, policy, records)
        self.logs = logs
        self.truth_at = {0: list(records)}
        self.publish_s: list[float] = []
        self.stale_refusals = 0

    def decode(self, request, result):
        try:
            return self.registry.decode(request, result.response)
        except HintStale:
            self.stale_refusals += 1
            raise  # a typed refusal is a record not verified

    def truth(self, index, result):
        """The record as of the epoch the reply was computed against."""
        return self.truth_at[result.response.epoch][index]

    def side_tasks(self, phase, stop, log):
        return [self.publisher(stop, log)] if phase == "saturate" else []

    async def publisher(self, stop: asyncio.Event, log) -> None:
        while True:
            try:
                await asyncio.wait_for(stop.wait(), PUBLISH_PERIOD_S)
                return
            except asyncio.TimeoutError:
                self.publish_next(log)

    def publish_next(self, log) -> None:
        """Publish the next update log and record the new epoch's ground truth.

        Synchronous on the event loop, like a deployment's own publisher:
        no reply of the new epoch is decoded before its truth lands.
        """
        updates, update_log = self.logs[len(self.publish_s) % len(self.logs)]
        t0 = now()
        self.registry.publish(update_log)
        t1 = now()
        truth = list(self.truth_at[self.registry.epoch - 1])
        for index, record in updates:
            truth[index] = record
        self.truth_at[self.registry.epoch] = truth
        self.publish_s.append(t1 - t0)
        if log is not None:
            log.add("hintpir.publish", t0, t1, updates=len(updates))

    def traffic(self) -> tuple[float, float]:
        transcript = self.registry.transcript()
        return transcript.online_bytes, transcript.offline_bytes


# -- workloads --------------------------------------------------------------


def _indices(rng, num_records: int, count: int = PHASE_ITEMS) -> list[int]:
    return rng.integers(0, num_records, size=count).tolist()


def _paced(rng, rate: float, seconds: float) -> np.ndarray:
    count = max(4, int(rate * seconds))
    return poisson_arrivals(rate, count, seed=int(rng.integers(1 << 31)))


class Workload:
    """Base: index-addressed records, phases of random indices."""

    name = why = ""
    #: Callers of the throughput phase; 1 means one phase gives both timings.
    clients = 16
    #: Open-loop rate of the traced-only paced phase, records per second:
    #: 35 % of the first committed baseline throughput, never adapted.
    paced_rate: float | None = None

    def size(self, smoke: bool) -> SimpleNamespace:
        raise NotImplementedError

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([seed, zlib.crc32(self.name.encode())])

    def inputs(self, seed: int, smoke: bool, paced_s: float) -> SimpleNamespace:
        size, rng = self.size(smoke), self.rng(seed)
        records = [rng.bytes(size.record_bytes) for _ in range(size.records)]
        inputs = SimpleNamespace(
            seed=seed,
            smoke=smoke,
            size=size,
            records=records,
            saturate=_indices(rng, size.records),
            solo=_indices(rng, size.records),
            first=int(rng.integers(size.records)),
        )
        if self.paced_rate:
            inputs.paced_due = _paced(rng, self.paced_rate, paced_s)
        return inputs

    async def deploy(self, inputs, log):
        raise NotImplementedError

    async def layer_metrics(self, dep, inputs, log, phases: dict) -> dict:
        """Per-layer metrics this workload measures on its own deployment."""
        raise NotImplementedError


class PlainDirect(Workload):
    name = "plain_n4096_direct"
    why = (
        "paper ring degree N=2^12, DB beyond L2, no serving stack: he and pir do all the "
        "work, serve changes must show nothing"
    )
    clients = 1

    def size(self, smoke):
        if smoke:
            return SimpleNamespace(
                params=PirParams.small(n=256, d0=8, num_dims=2), records=32, record_bytes=512
            )
        return SimpleNamespace(
            params=PirParams.functional(d0=64, num_dims=4), records=1024, record_bytes=8192
        )

    async def deploy(self, inputs, log):
        size = inputs.size
        built = layers.pir_build(log, size.params, inputs.records, size.record_bytes, inputs.seed)
        return Direct(inputs.records, *built)

    async def layer_metrics(self, dep, inputs, log, phases):
        layers.pir_replay(log, dep.client, dep.db, dep.server, inputs.solo[:REPLAY_QUERIES])
        return {**layers.he_probe(dep.client), **layers.pir_metrics(log)}


class PlainServe(Workload):
    name = "plain_n256_serve"
    why = (
        "same protocol on a toy ring through admission, window, pool and answer_batch: "
        "kernel shares invert and the serving stack is a visible slice"
    )
    paced_rate = 4.0

    def size(self, smoke):
        if smoke:
            return SimpleNamespace(
                params=PirParams.small(n=256, d0=8, num_dims=2), records=256, record_bytes=64
            )
        return SimpleNamespace(
            params=PirParams.small(n=256, d0=32, num_dims=6), records=32768, record_bytes=64
        )

    async def deploy(self, inputs, log):
        size = inputs.size
        registry = RealShardRegistry(
            size.params, inputs.records, 2, size.record_bytes, seed=inputs.seed
        )
        backend = RealCryptoBackend(registry, max_workers=1)
        return Served(registry, backend, BatchPolicy(0.002, max_batch=8), inputs.records)

    async def layer_metrics(self, dep, inputs, log, phases):
        size, rng = inputs.size, np.random.default_rng(inputs.seed)
        shard = inputs.records[: dep.registry.map.sizes[0]]
        built = layers.pir_build(log, size.params, shard, size.record_bytes, inputs.seed)
        layers.pir_replay(log, *built, _indices(rng, len(shard), REPLAY_QUERIES))
        return {
            **layers.he_probe(built[0]),
            **layers.pir_metrics(log),
            **layers.serve_metrics(log, **phases),
            **layers.mutate_probe(
                size.params, inputs.records, size.record_bytes,
                _updates(rng, inputs.records, size.record_bytes), inputs.seed,
            ),
        }


class KvServe(Workload):
    name = "kv_n256_serve"
    why = (
        "cuckoo-bucket databases with dummy-padded passes: a solo lookup pays a whole pass, "
        "a full window of 8 shares it; hashing/batchpir/kvpir show here only"
    )
    paced_rate = 5.0

    def size(self, smoke):
        if smoke:
            return SimpleNamespace(
                params=PirParams.small(n=256, d0=8, num_dims=2), records=64, record_bytes=32,
                lookup_batch=2,
            )
        return SimpleNamespace(
            params=PirParams.small(n=256, d0=32, num_dims=6), records=2048, record_bytes=32,
            lookup_batch=8,
        )

    def inputs(self, seed, smoke, paced_s):
        size, rng = self.size(smoke), self.rng(seed)
        drawn = {rng.bytes(12): rng.bytes(size.record_bytes) for _ in range(size.records * 2)}
        keys = list(drawn)
        items = {k: drawn[k] for k in keys[: size.records]}
        absent = keys[size.records : size.records + max(1, int(size.records * ABSENT_SHARE))]
        pool = keys[: size.records] + absent

        def lookups(count=PHASE_ITEMS):
            return [pool[i] for i in rng.integers(0, len(pool), size=count)]

        return SimpleNamespace(
            seed=seed, smoke=smoke, size=size, records=items, first=keys[0],
            saturate=lookups(), solo=lookups(),
            paced_due=_paced(rng, self.paced_rate, paced_s),
            # The replayed window: full width, one lookup of it a miss.
            window=pool[: size.lookup_batch - 1] + absent[:1],
        )

    async def deploy(self, inputs, log):
        size = inputs.size
        registry = KvServeRegistry(
            size.params, inputs.records, num_shards=1, max_lookup_batch=size.lookup_batch,
            seed=inputs.seed,
        )
        backend = KvCryptoBackend(registry, max_workers=1)
        policy = BatchPolicy(0.002, max_batch=size.lookup_batch)
        return KvServed(registry, backend, policy, inputs.records)

    async def layer_metrics(self, dep, inputs, log, phases):
        # pir on the tier's own geometry: bucket 0 of the cuckoo slot table.
        bucket = dep.registry.server(0).db.batch_db.bucket_dbs[0]
        records = [bucket.record(i) for i in range(bucket.num_records)]
        record_bytes = bucket.layout.record_bytes
        built = layers.pir_build(log, bucket.params, records, record_bytes, inputs.seed)
        layers.pir_replay(log, *built, range(min(REPLAY_QUERIES, len(records))))
        return {
            **layers.he_probe(built[0]),
            **layers.pir_metrics(log),
            **layers.serve_metrics(log, **phases),
            **await layers.kv_replay(log, dep, inputs.window, inputs.records),
            "kvpir.miss_share": dep.misses / dep.lookups,
        }


def _updates(rng, records, record_bytes: int) -> list[tuple[int, bytes]]:
    """One publish: PUBLISH_CHURN of the records rewritten with fresh bytes."""
    count = max(1, int(len(records) * PUBLISH_CHURN))
    chosen = rng.choice(len(records), size=count, replace=False)
    return [(int(i), rng.bytes(record_bytes)) for i in chosen]


class HintPublish(Workload):
    name = "hint_publish_serve"
    why = (
        "cache-resident hint tier with 1% churn published every 0.25 s beside the reads: "
        "no NTT runs, client code, asyncio and epoch bookkeeping dominate"
    )
    paced_rate = 210.0

    def size(self, smoke):
        records, record_bytes = (256, 64) if smoke else (2048, 256)
        return SimpleNamespace(records=records, record_bytes=record_bytes)

    def inputs(self, seed, smoke, paced_s):
        inputs = super().inputs(seed, smoke, paced_s)
        rng = np.random.default_rng([seed, 1])
        inputs.logs = []
        for _ in range(PUBLISH_LOGS):
            updates = _updates(rng, inputs.records, inputs.size.record_bytes)
            update_log = UpdateLog()
            for index, record in updates:
                update_log.put(index, record)
            inputs.logs.append((updates, update_log))
        return inputs

    async def deploy(self, inputs, log):
        registry = HintServeRegistry(
            inputs.records, inputs.size.record_bytes, num_shards=2, seed=inputs.seed,
            retain_epochs=8, client_seed=inputs.seed + 1,
        )
        backend = HintCryptoBackend(registry, max_workers=1)
        policy = BatchPolicy(0.001, max_batch=32)
        return HintServed(registry, backend, policy, inputs.records, inputs.logs)

    async def layer_metrics(self, dep, inputs, log, phases):
        registry, size = dep.registry, inputs.size
        clients = [registry.client(s) for s in range(registry.num_shards)]
        shard = [inputs.records[int(g)] for g in registry.map.members(0)]
        plain = PlainServe().size(inputs.smoke)
        rng = np.random.default_rng(inputs.seed)
        if not dep.publish_s:  # a smoke saturate can end before the first period does
            dep.publish_next(log)
        plain_records = [rng.bytes(plain.record_bytes) for _ in range(plain.records)]
        return {
            **layers.gemm_probe(),
            **layers.serve_metrics(log, **phases),
            **await layers.hint_replay(log, dep, inputs.solo[: layers.GEMM_WINDOW]),
            "hintpir.client_encode_ms": statistics.median(log.ms("client.encode", "solo")),
            "hintpir.client_decode_ms": statistics.median(log.ms("client.decode", "solo")),
            "hintpir.hint_build_s": layers.hint_build_seconds(shard, size.record_bytes),
            "hintpir.publish_ms_p50": statistics.median(dep.publish_s) * 1e3,
            "hintpir.patched_epochs": sum(c.patched_epochs for c in clients),
            "hintpir.stale_refusals": dep.stale_refusals,
            "hintpir.hint_downloads": sum(c.downloads for c in clients),
            "mutate.updates_per_publish": statistics.fmean(len(u) for u, _ in inputs.logs),
            **layers.mutate_probe(
                plain.params, plain_records, plain.record_bytes,
                _updates(rng, plain_records, plain.record_bytes), inputs.seed,
            ),
        }


WORKLOADS = {w.name: w for w in (PlainDirect(), PlainServe(), KvServe(), HintPublish())}
