"""Hint-PIR behind the serving runtime's dispatch windows.

Requests route by a *keyed* hash of the record index
(:class:`HintShardMap`, mirroring the keyword tier's
:class:`~repro.kvpir.serving.KeyShardMap`): shard placement is
unpredictable without the routing seed, so a client cannot aim load at
one replica, and each shard is an independent :class:`HintPirServer`
over its share of the records with its own LWE matrix and hint.

A dispatch window's queries are answered with one ``DB @ Q`` GEMM per
shard (:meth:`HintServeRegistry.answer_window` ->
:meth:`HintPirServer.answer_window`).  Staleness is *per-request data*:
an unpatchable hint resolves to a :class:`~repro.errors.HintStale` value
inside the response list — a raised exception would fail the whole
window, and staleness is an expected per-client condition, not a batch
fault — and :meth:`HintServeRegistry.decode` re-raises it typed at the
caller, exactly like the keyword tier's ``None`` -> ``KeyNotFound``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import HintPirError, HintStale
from repro.he.backend import ComputeBackend
from repro.hintpir.protocol import (
    HintPirClient,
    HintPirServer,
    HintPublishReport,
    HintTranscript,
)
from repro.mutate.log import UpdateLog
from repro.pir.simplepir import SimplePirParams
from repro.serve.registry import ServeRequest, ServingMode, ShardBounds
from repro.serve.workers import RealCryptoBackend

#: Domain-separation suffix for hint-tier shard routing (keyword routing
#: uses 0xfe; candidate hashes use ``bytes([i])``; the record tag 0xff).
_ROUTE_DOMAIN = b"\xfd"


class HintShardMap(ShardBounds):
    """Keyed-hash partition of a record index space across shards.

    The shard of record ``i`` is a keyed blake2b of the index — no
    contiguous ranges to probe — with a per-shard member directory so
    routing still yields a dense shard-local index (the column inside
    that shard's matrix).  Index validation is the shared
    :class:`~repro.serve.registry.ShardBounds`.
    """

    def __init__(self, num_records: int, num_shards: int, seed: int = 0):
        if num_shards < 1:
            raise HintPirError("need at least one shard")
        if num_records < num_shards:
            raise HintPirError(
                f"cannot spread {num_records} records across {num_shards} shards"
            )
        self.num_records = num_records
        self.num_shards = num_shards
        self.seed = seed
        key = seed.to_bytes(8, "little", signed=True) + _ROUTE_DOMAIN
        shard_of = np.empty(num_records, dtype=np.int64)
        for index in range(num_records):
            digest = hashlib.blake2b(
                index.to_bytes(8, "little"), digest_size=8, key=key
            ).digest()
            shard_of[index] = int.from_bytes(digest, "little") % num_shards
        self._shard_of = shard_of
        self._members = [
            np.flatnonzero(shard_of == s).astype(np.int64)
            for s in range(num_shards)
        ]
        for shard_id, members in enumerate(self._members):
            if members.size == 0:
                raise HintPirError(
                    f"shard {shard_id} received no records; use fewer shards "
                    f"for {num_records} records"
                )
        local_of = np.empty(num_records, dtype=np.int64)
        for members in self._members:
            local_of[members] = np.arange(members.size)
        self._local_of = local_of

    def members(self, shard_id: int) -> np.ndarray:
        """Global record indices owned by ``shard_id``, in column order."""
        return self._members[self.check_shard(shard_id)]

    def route(self, global_index: int) -> tuple[int, int]:
        """Global record index -> (shard id, shard-local column)."""
        global_index = self.check_record(global_index)
        return int(self._shard_of[global_index]), int(self._local_of[global_index])

    def global_index(self, shard_id: int, local_index: int) -> int:
        members = self.members(shard_id)
        return int(members[self.check_local(shard_id, local_index, members.size)])


class HintServeRegistry(ServingMode):
    """Per-shard hint-PIR deployments over one logical record set.

    Each shard holds a :class:`HintPirServer` over its keyed share of the
    records and one :class:`HintPirClient` session (shared client ring,
    like :class:`~repro.serve.registry.RealShardRegistry`).  A global
    :meth:`publish` splits one update log by routing and advances every
    shard in the same logical epoch, so stale-hint handling is uniform
    across shards.
    """

    def __init__(
        self,
        records,
        record_bytes: int,
        params: SimplePirParams | None = None,
        num_shards: int = 1,
        seed: int = 0,
        retain_epochs: int = 4,
        hash_seed: int = 0,
        client_seed: int = 1,
        client_history: int = 8,
        truth_epochs: int | None = None,
        backend: str | ComputeBackend | None = None,
    ):
        self.params = params or SimplePirParams()
        self.record_bytes = record_bytes
        records = [bytes(r) for r in records]
        self.map = HintShardMap(len(records), num_shards, seed=hash_seed)
        self._records = records
        self.epoch = 0
        self.retain_epochs = retain_epochs
        #: epochs of ground truth to retain for :meth:`expected` audits;
        #: None keeps every epoch (fine at test scale, where the audit —
        #: "an answer from epoch e matches the records as of e" — must
        #: never be limited by bookkeeping).
        self.truth_epochs = truth_epochs
        #: Per-epoch ground truth for correctness audits: an answer from
        #: epoch ``e`` must decode to the record as of ``e`` — "current
        #: truth" would mislabel a correctly-served in-flight answer.
        self._truth: dict[int, list[bytes]] = {0: list(records)}
        self._servers: list[HintPirServer] = []
        self._clients: list[HintPirClient] = []
        for shard_id in range(num_shards):
            members = self.map.members(shard_id)
            server = HintPirServer(
                [records[int(g)] for g in members],
                record_bytes,
                self.params,
                seed=seed + shard_id,
                retain_epochs=retain_epochs,
                backend=backend,
            )
            self._servers.append(server)
            self._clients.append(
                HintPirClient(
                    server, seed=client_seed + shard_id, history=client_history
                )
            )

    @classmethod
    def random(
        cls,
        num_records: int,
        record_bytes: int,
        num_shards: int = 1,
        params: SimplePirParams | None = None,
        seed: int | None = None,
        **kwargs,
    ) -> "HintServeRegistry":
        rng = np.random.default_rng(seed)
        records = [rng.bytes(record_bytes) for _ in range(num_records)]
        return cls(
            records,
            record_bytes,
            params,
            num_shards,
            seed=0 if seed is None else seed,
            **kwargs,
        )

    def server(self, shard_id: int) -> HintPirServer:
        return self._servers[self.map.check_shard(shard_id)]

    def client(self, shard_id: int) -> HintPirClient:
        return self._clients[self.map.check_shard(shard_id)]

    # -- request path ------------------------------------------------------

    def make_request(self, global_index: int) -> ServeRequest:
        """Route and build the Regev query, tagged with the client's epoch."""
        shard_id, local = self.map.route(global_index)
        query = self._clients[shard_id].build_query(local)
        return ServeRequest(
            global_index=int(global_index),
            shard_id=shard_id,
            local_index=local,
            query=query,
            epoch=query.hint_epoch,
        )

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """One batched GEMM; :class:`HintAnswer` or :class:`HintStale` each."""
        return self.server(shard_id).answer_window([r.query for r in requests])

    def decode(self, request: ServeRequest, response) -> bytes:
        """Record bytes, or the typed staleness the window resolved to."""
        if isinstance(response, HintStale):
            raise response
        client = self._clients[self.map.check_shard(request.shard_id)]
        return client.decode(request.query, response)

    def refresh(self, shard_id: int | None = None) -> int:
        """Full hint re-download (all shards by default); returns bytes moved."""
        shards = (
            range(self.num_shards) if shard_id is None else [shard_id]
        )
        moved = 0
        for s in shards:
            s = self.map.check_shard(s)
            self._clients[s].refresh(self._servers[s])
            moved += self._servers[s].transcript().offline_bytes
        return moved

    # -- epoch publishes ---------------------------------------------------

    def publish(self, log: UpdateLog) -> list[HintPublishReport]:
        """Apply one global update log as one epoch step on every shard."""
        writes, appends = log.coalesced(self.num_records)
        if appends:
            raise HintPirError(
                "hint-PIR publishes cannot append records (query geometry "
                "would change); rebuild the deployment instead"
            )
        shard_logs = [UpdateLog() for _ in range(self.num_shards)]
        truth = list(self._truth[self.epoch])
        for index in sorted(writes):
            shard_id, local = self.map.route(index)
            record = writes[index]
            if record is None:
                shard_logs[shard_id].delete(local)
                truth[index] = b"\x00" * self.record_bytes
            else:
                shard_logs[shard_id].put(local, record)
                truth[index] = bytes(record).ljust(self.record_bytes, b"\x00")
        reports = [
            self._servers[s].publish(shard_logs[s])
            for s in range(self.num_shards)
        ]
        self.epoch += 1
        self._records = truth
        self._truth[self.epoch] = truth
        if self.truth_epochs is not None:
            horizon = self.epoch - self.truth_epochs - 1
            for epoch in [e for e in self._truth if e <= horizon]:
                del self._truth[epoch]
        return reports

    # -- accounting / ground truth ----------------------------------------

    def transcript(self) -> HintTranscript:
        """Aggregate byte accounting across all shards.

        ``query_bytes``/``answer_bytes`` stay per-query (a query touches
        one shard); the offline fields sum — a client session downloads
        every shard's hint.
        """
        parts = [server.transcript() for server in self._servers]
        return HintTranscript(
            hint_bytes=sum(t.hint_bytes for t in parts),
            seed_bytes=sum(t.seed_bytes for t in parts),
            query_bytes=max(t.query_bytes for t in parts),
            answer_bytes=max(t.answer_bytes for t in parts),
            db_bytes=sum(t.db_bytes for t in parts),
        )

    def expected(self, global_index: int, epoch: int | None = None) -> bytes:
        """Ground truth at ``epoch`` (default: current), for verification."""
        index = self.map.check_record(global_index)
        epoch = self.epoch if epoch is None else epoch
        if epoch not in self._truth:
            raise HintPirError(
                f"no ground truth retained for epoch {epoch} (held: "
                f"{sorted(self._truth)})"
            )
        return self._truth[epoch][index]


#: The frozen ``benchmarks/e2e`` imports this name; every tier runs on the
#: one thread executor.
HintCryptoBackend = RealCryptoBackend
