"""Keyword PIR behind the serving runtime's dispatch windows.

Requests route by *key*: a keyed hash spreads the key space across
shards, each shard is an independent keyword-PIR deployment (own slot
table, own hash seeds) over its share of the keys, and a dispatch
window's lookups are coalesced — every key's candidate slots, deduped
across the window, run through amortized cuckoo-batched passes
(:meth:`KvServeRegistry.answer_window`, the keyword tier's
:class:`~repro.serve.registry.ServingMode` window).

Absent keys are first-class: the window resolves them to ``None`` so one
missing key cannot fail its whole batch, and ``decode`` converts that to
the typed :class:`~repro.errors.KeyNotFound` at the caller.
"""

from __future__ import annotations

import hashlib

from repro.errors import KeyNotFound, KvBuildError
from repro.hashing.cuckoo import key_bytes
from repro.kvpir.client import KvPirClient
from repro.kvpir.layout import (
    DEFAULT_LOOKUP_BATCH,
    DEFAULT_TAG_BYTES,
    KvDatabase,
    random_items,
)
from repro.kvpir.server import KvPirServer
from repro.params import PirParams
from repro.serve.registry import ServeRequest, ServingMode, ShardBounds
from repro.serve.workers import RealCryptoBackend

#: Domain-separation suffix for shard routing (candidate hashes use
#: ``bytes([i])``, the record tag uses 0xff).
_ROUTE_DOMAIN = b"\xfe"


class KeyShardMap(ShardBounds):
    """Keyed-hash partition of a keyspace across shards.

    Unlike :class:`~repro.serve.registry.ShardMap` there is no contiguous
    index range to split — any byte-string key must route without a
    directory, so the shard is a keyed blake2b of the key itself.  Shard
    ids are validated by the shared :meth:`ShardBounds.check_shard`.
    """

    def __init__(self, num_keys: int, num_shards: int, seed: int = 0):
        if num_shards < 1:
            raise KvBuildError("need at least one shard")
        self.num_records = num_keys
        self.num_shards = num_shards
        self.seed = seed

    def route(self, key: bytes) -> int:
        digest = hashlib.blake2b(
            key_bytes(key),
            digest_size=8,
            key=self.seed.to_bytes(8, "little") + _ROUTE_DOMAIN,
        ).digest()
        return int.from_bytes(digest, "little") % self.num_shards


class KvServeRegistry(ServingMode):
    """Per-shard keyword-PIR deployments over one logical key-value store."""

    def __init__(
        self,
        params: PirParams,
        items: dict[bytes, bytes],
        num_shards: int = 1,
        tag_bytes: int = DEFAULT_TAG_BYTES,
        max_lookup_batch: int = DEFAULT_LOOKUP_BATCH,
        hash_seed: int = 0,
        seed: int | None = None,
        backend: str | None = None,
    ):
        self.params = params
        self.max_lookup_batch = max_lookup_batch
        self.map = KeyShardMap(len(items), num_shards, seed=hash_seed)
        self._items = {key_bytes(k): v for k, v in items.items()}
        shard_items: list[dict[bytes, bytes]] = [{} for _ in range(num_shards)]
        for key, value in self._items.items():
            shard_items[self.map.route(key)][key] = value
        for shard_id, chunk in enumerate(shard_items):
            if not chunk:
                raise KvBuildError(
                    f"shard {shard_id} received no keys; use fewer shards "
                    f"for {len(items)} keys"
                )
        self._clients: list[KvPirClient] = []
        self._servers: list[KvPirServer] = []
        for shard_id, chunk in enumerate(shard_items):
            db = KvDatabase.from_items(
                params,
                chunk,
                tag_bytes=tag_bytes,
                max_lookup_batch=max_lookup_batch,
                hash_seed=hash_seed + 1 + shard_id,
            )
            client = KvPirClient(db.layout, seed=seed)
            self._clients.append(client)
            self._servers.append(
                KvPirServer(
                    db, client.batch.pir.ring, client.setup_message(),
                    backend=backend,
                )
            )

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_keys: int,
        value_bytes: int,
        num_shards: int = 1,
        key_bytes_len: int = 12,
        seed: int | None = None,
        **kwargs,
    ) -> "KvServeRegistry":
        items = random_items(num_keys, value_bytes, key_bytes_len, seed)
        return cls(params, items, num_shards, seed=seed, **kwargs)

    def client(self, shard_id: int) -> KvPirClient:
        return self._clients[self.map.check_shard(shard_id)]

    def server(self, shard_id: int) -> KvPirServer:
        return self._servers[self.map.check_shard(shard_id)]

    def make_request(self, key: bytes) -> ServeRequest:
        """Route a key; the slot probes are planned per dispatch window."""
        key = key_bytes(key)
        shard_id = self.map.route(key)
        # global_index is a stable key fingerprint for metrics/logging only.
        fingerprint = int.from_bytes(
            hashlib.blake2b(key, digest_size=4).digest(), "little"
        )
        return ServeRequest(
            global_index=fingerprint, shard_id=shard_id, local_index=0, key=key
        )

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """Coalesce the window's lookups into cuckoo-batched passes.

        The window's distinct keys expand to their deduped candidate slots
        and run through the shard's batch planner in design-size chunks;
        each request resolves to its value or ``None``.
        """
        client = self.client(shard_id)
        plan = client.plan([r.key for r in requests])
        response = self.server(shard_id).answer(client.build_queries(plan))
        values = client.decode(plan, response)
        return [values.get(r.key) for r in requests]

    def decode(self, request: ServeRequest, response: bytes | None) -> bytes:
        """Value bytes, or the typed miss if no candidate slot tag-matched."""
        if response is None:
            raise KeyNotFound(request.key)
        return response

    def expected(self, key: bytes) -> bytes | None:
        """Ground-truth value (None for absent keys), for tests/examples."""
        return self._items.get(key_bytes(key))


#: The frozen ``benchmarks/e2e`` imports this name; every tier runs on the
#: one thread executor.
KvCryptoBackend = RealCryptoBackend
