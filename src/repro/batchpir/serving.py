"""Batch PIR behind the serving runtime's dispatch windows.

A waiting-window batch in ``repro.serve`` normally shares one database
scan across queries that each still run their own pipeline.  This module
goes one step further: the queries of one dispatch window are coalesced
into a single cuckoo-batched pass — k distinct indices cost one pass over
the replicated bucket set instead of k scans.

:class:`BatchServeRegistry` is a :class:`~repro.serve.registry.ServingMode`
like ``RealShardRegistry``: requests are routed by the same ``ShardMap``,
each shard is an independent batch-PIR deployment (own hash seed, own
bucket set), and the one thread executor runs its ``answer_window``.
Because the cuckoo plan must be built from the WHOLE window's index set,
requests carry no prebuilt query; the per-bucket queries are constructed
at dispatch time and the window returns decoded record bytes.
"""

from __future__ import annotations

import numpy as np

from repro.batchpir.client import BatchPirClient
from repro.batchpir.layout import BatchDatabase, BatchLayout
from repro.batchpir.server import BatchPirServer
from repro.hashing.cuckoo import CuckooConfig
from repro.params import PirParams
from repro.serve.registry import ServeRequest, ServingMode, ShardMap


class BatchServeRegistry(ServingMode):
    """Per-shard batch-PIR deployments over one logical record set."""

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        max_batch: int,
        num_shards: int = 1,
        record_bytes: int | None = None,
        hash_seed: int = 0,
        seed: int | None = None,
        backend: str | None = None,
    ):
        self.params = params
        self.max_batch = max_batch
        self.map = ShardMap(len(records), num_shards)
        self._records = list(records)
        size = record_bytes if record_bytes is not None else len(records[0])
        self._clients: list[BatchPirClient] = []
        self._servers: list[BatchPirServer] = []
        for shard_id in range(num_shards):
            shard_records = records[self.map.span(shard_id)]
            config = CuckooConfig.for_batch(max_batch, seed=hash_seed + shard_id)
            layout = BatchLayout.build(params, len(shard_records), size, config)
            db = BatchDatabase(layout, shard_records)
            client = BatchPirClient(layout, seed=seed)
            self._clients.append(client)
            self._servers.append(
                BatchPirServer(
                    db, client.pir.ring, client.setup_message(), backend=backend
                )
            )

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_records: int,
        record_bytes: int,
        max_batch: int,
        num_shards: int = 1,
        seed: int | None = None,
        **kwargs,
    ) -> "BatchServeRegistry":
        rng = np.random.default_rng(seed)
        records = [rng.bytes(record_bytes) for _ in range(num_records)]
        return cls(
            params, records, max_batch, num_shards, record_bytes, seed=seed, **kwargs
        )

    def client(self, shard_id: int) -> BatchPirClient:
        return self._clients[self.map.check_shard(shard_id)]

    def server(self, shard_id: int) -> BatchPirServer:
        return self._servers[self.map.check_shard(shard_id)]

    def make_request(self, global_index: int) -> ServeRequest:
        """Route only — the batch query is planned per dispatch window."""
        shard_id, local = self.map.route(global_index)
        return ServeRequest(
            global_index=global_index, shard_id=shard_id, local_index=local
        )

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """Coalesce the window into cuckoo-batched passes; decoded records.

        The window's distinct shard-local indices are chunked to the
        deployment's design batch size and each chunk runs one
        plan -> encrypt -> per-bucket answer -> decode round trip;
        duplicate indices within a window share one retrieval.
        """
        client = self.client(shard_id)
        server = self.server(shard_id)
        distinct = list(dict.fromkeys(r.local_index for r in requests))
        records: dict[int, bytes] = {}
        for at in range(0, len(distinct), self.max_batch):
            plan = client.plan(distinct[at : at + self.max_batch])
            response = server.answer(client.build_queries(plan))
            records.update(client.decode(plan, response))
        return [records[r.local_index] for r in requests]

    def decode(self, request: ServeRequest, response: bytes) -> bytes:
        """Symmetry with RealShardRegistry: responses arrive decoded."""
        return response

    def expected(self, global_index: int) -> bytes:
        """Ground-truth record bytes (for verification in tests/examples)."""
        return self._records[self.map.check_record(global_index)]
