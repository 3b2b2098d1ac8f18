"""Keyword-PIR server and end-to-end protocol harness.

The server is the batch-PIR server over the slot table: every chunk of a
lookup plan runs one cuckoo-batched pass (the buckets' ExpandQuery ->
RowSel -> ColTor pipelines as one stacked window), so the server-side cost of a window of
keyword lookups is ``ceil(distinct probes / design batch)`` passes over
the replicated bucket set — the same amortization engine as
:mod:`repro.batchpir`, fed ~``num_hashes`` probes per key.

``KvPirProtocol`` mirrors :class:`repro.pir.protocol.PirProtocol` /
:class:`repro.batchpir.server.BatchPirProtocol` for the keyword flow and
keeps the same communication transcript accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batchpir.server import BatchPirServer
from repro.errors import KeyNotFound
from repro.he.backend import ComputeBackend
from repro.hashing.cuckoo import key_bytes
from repro.kvpir.client import KvPirClient, KvPlan, KvQuery, KvResponse
from repro.kvpir.layout import (
    DEFAULT_LOOKUP_BATCH,
    DEFAULT_TAG_BYTES,
    KvDatabase,
)
from repro.params import PirParams
from repro.pir.client import ClientSetup
from repro.pir.protocol import Transcript


class KvPirServer:
    """Batch-PIR server over the cuckoo slot table.

    ``backend`` is forwarded to the batch server (the registry default
    when unset).
    """

    def __init__(
        self,
        db: KvDatabase,
        ring,
        setup: ClientSetup,
        backend: str | ComputeBackend | None = None,
    ):
        self.layout = db.layout
        self.db = db
        self.batch_server = BatchPirServer(db.batch_db, ring, setup, backend=backend)

    def answer(self, query: KvQuery) -> KvResponse:
        return KvResponse(chunks=[self.batch_server.answer(q) for q in query.chunks])


@dataclass
class KvLookupResult:
    """Returned by :meth:`KvPirProtocol.lookup_many`."""

    values: dict[bytes, bytes]
    missing: tuple[bytes, ...]
    plan: KvPlan


class KvPirProtocol:
    """A keyword client/server pair over one key-value mapping."""

    def __init__(
        self,
        params: PirParams,
        items: dict[bytes, bytes],
        tag_bytes: int = DEFAULT_TAG_BYTES,
        max_lookup_batch: int = DEFAULT_LOOKUP_BATCH,
        hash_seed: int = 0,
        seed: int | None = None,
        backend: str | ComputeBackend | None = None,
    ):
        self.db = KvDatabase.from_items(
            params,
            items,
            tag_bytes=tag_bytes,
            max_lookup_batch=max_lookup_batch,
            hash_seed=hash_seed,
        )
        self.layout = self.db.layout
        self.client = KvPirClient(self.layout, seed=seed)
        setup = self.client.setup_message()
        self.server = KvPirServer(
            self.db, self.client.batch.pir.ring, setup, backend=backend
        )
        self.transcript = Transcript(
            setup_bytes=setup.size_bytes(self.layout.batch.bucket_params)
        )

    def lookup_many(self, keys: list[bytes], strict: bool = False) -> KvLookupResult:
        """Full round trip for a batch of keys: plan, probe, tag-decode.

        With ``strict`` the first absent key raises
        :class:`~repro.errors.KeyNotFound`; otherwise absent keys are
        reported in ``missing``.
        """
        plan = self.client.plan(keys)
        query = self.client.build_queries(plan)
        response = self.server.answer(query)
        values = self.client.decode(plan, response)
        params = self.layout.batch.bucket_params
        self.transcript.query_bytes += query.size_bytes(params)
        self.transcript.response_bytes += response.size_bytes(params)
        self.transcript.queries_served += len(plan.keys)
        missing = tuple(k for k in plan.keys if k not in values)
        if strict and missing:
            raise KeyNotFound(missing[0])
        return KvLookupResult(values=values, missing=missing, plan=plan)

    def lookup(self, key: bytes) -> bytes:
        """One key's value; absent keys raise :class:`KeyNotFound`."""
        result = self.lookup_many([key], strict=True)
        return result.values[key_bytes(key)]
