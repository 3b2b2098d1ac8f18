"""Batch PIR server and end-to-end protocol harness.

The server runs the standard ExpandQuery -> RowSel -> ColTor pipeline for
every bucket of a round as one stacked dispatch window — each query
against its own bucket's small preprocessed database.  One full batch
pass therefore scans ``replication_factor * D``
polynomials in total (independent of k), versus ``k * D`` for k separate
single-query retrievals: the amortization that makes multi-record
workloads (contact discovery, feed assembly, CT auditing) affordable.

``BatchPirProtocol`` mirrors :class:`repro.pir.protocol.PirProtocol` for
the batched flow and keeps the same communication transcript accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.batchpir.client import (
    BatchPirClient,
    BatchPlan,
    BatchQuery,
    BatchResponse,
)
from repro.batchpir.layout import BatchDatabase, BatchLayout
from repro.errors import ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.he.backend import ComputeBackend
from repro.params import PirParams
from repro.pir.client import ClientSetup
from repro.pir.protocol import Transcript
from repro.pir.server import PirServer


class BatchPirServer:
    """One PirServer per bucket over a single stacked bucket tensor.

    All buckets share one geometry and the client's evaluation keys, so
    a pass — every (round, bucket) query — is one dispatch window of the
    stacked :meth:`~repro.pir.server.PirServer.answer_window` pipeline,
    each query running against its own bucket's plane tensor.  Those
    tensors are views of the one ``(buckets, planes, cols, d0, rns, n)``
    allocation preprocessing made; the per-bucket servers (kept for
    their databases, which delta updates write through, and for
    ``answer_reference``) are views of it too.

    ``backend`` selects the compute backend (the registry default when
    unset).
    """

    def __init__(
        self,
        db: BatchDatabase,
        ring,
        setup: ClientSetup,
        backend: str | ComputeBackend | None = None,
    ):
        self.layout = db.layout
        self.db = db
        tensor, pres = db.preprocess(ring, backend=backend)
        self.servers = [PirServer(pre, setup, backend=backend) for pre in pres]
        d0 = self.layout.bucket_params.d0
        self._planes = tensor.reshape(
            tensor.shape[:2] + (-1, d0) + tensor.shape[3:]
        )

    def answer(self, query: BatchQuery) -> BatchResponse:
        """Every round is one stacked window over all buckets."""
        for index, queries in enumerate(query.rounds):
            if len(queries) != self.layout.num_buckets:
                raise ParameterError(
                    f"batch round {index} has {len(queries)} queries, layout "
                    f"has {self.layout.num_buckets} buckets"
                )
        planes = [self._planes[:, p] for p in range(self._planes.shape[1])]
        return BatchResponse(rounds=[
            self.servers[0].answer_window(queries, planes)
            for queries in query.rounds
        ])


@dataclass
class BatchRetrievalResult:
    """Returned by :meth:`BatchPirProtocol.retrieve_batch`."""

    records: list[bytes]
    plan: BatchPlan
    num_rounds: int


class BatchPirProtocol:
    """A batch client/server pair over one logical record set."""

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        max_batch: int,
        record_bytes: int | None = None,
        hash_seed: int = 0,
        seed: int | None = None,
        config: CuckooConfig | None = None,
        backend: str | ComputeBackend | None = None,
    ):
        size = record_bytes if record_bytes is not None else len(records[0])
        self.config = (
            config
            if config is not None
            else CuckooConfig.for_batch(max_batch, seed=hash_seed)
        )
        self.layout = BatchLayout.build(params, len(records), size, self.config)
        self.db = BatchDatabase(self.layout, records)
        self.client = BatchPirClient(self.layout, seed=seed)
        setup = self.client.setup_message()
        self.server = BatchPirServer(
            self.db, self.client.pir.ring, setup, backend=backend
        )
        self.transcript = Transcript(
            setup_bytes=setup.size_bytes(self.layout.bucket_params)
        )

    def retrieve_batch(self, indices: list[int]) -> BatchRetrievalResult:
        """Full round trip: plan, encrypt, answer per bucket, decode."""
        plan = self.client.plan(indices)
        query = self.client.build_queries(plan)
        response = self.server.answer(query)
        decoded = self.client.decode(plan, response)
        params = self.layout.bucket_params
        self.transcript.query_bytes += query.size_bytes(params)
        self.transcript.response_bytes += response.size_bytes(params)
        self.transcript.queries_served += len(indices)
        return BatchRetrievalResult(
            records=[decoded[int(g)] for g in indices],
            plan=plan,
            num_rounds=plan.num_rounds,
        )
