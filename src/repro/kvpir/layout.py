"""Key-value store encoding on top of the dense PIR layers.

Keyword PIR has to answer "what is the value of key k?" when the client
holds only the key — no plaintext directory mapping keys to record
indices.  The bridge is server-side cuckoo placement: every key hashes to
``num_hashes`` candidate slots of a dense table (plus a handful of
dedicated stash slots for keys whose eviction walk fails), the server
stores each record in exactly one of its candidates, and the client probes
*all* candidate slots of its key with ordinary index PIR.

Each slot stores ``tag(key) || value``: the keyed ``tag_bytes``-wide hash
lets the client recognize which probed slot (if any) actually holds its
key.  An absent key matches no tag and surfaces as the typed
:class:`~repro.errors.KeyNotFound`; a false positive requires a random
slot to collide with the key's tag, probability ``2**-(8 * tag_bytes)``
per probed slot.

The slot table is itself served as a cuckoo-batched PIR database
(:class:`~repro.batchpir.layout.BatchLayout`), so the ~``num_hashes``
index probes of one lookup — and of every other lookup in the same
window — amortize into a single batched pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.batchpir.layout import BatchDatabase, BatchLayout
from repro.errors import BatchPlanError, KvBuildError, ParameterError
from repro.hashing.cuckoo import (
    CuckooAssignment,
    CuckooConfig,
    cuckoo_assign,
    key_bytes,
    num_buckets_for,
)
from repro.he.poly import RingContext
from repro.params import PirParams

#: Default tag width.  8 bytes makes a false tag match (an absent key
#: decoding to garbage) a 2^-64-per-probe event — negligible even across
#: billions of lookups.
DEFAULT_TAG_BYTES = 8

#: Default number of keyword lookups one coalesced batch pass is sized for.
DEFAULT_LOOKUP_BATCH = 8

#: Stash capacity of the server-side slot table.  Stash slots are public,
#: always-probed positions, so the cap also bounds the per-lookup probe
#: count; 1.5x slot provisioning keeps the stash empty almost surely.
TABLE_STASH_SIZE = 8

#: Domain-separation suffix for the record tag hash (candidate hashes use
#: ``bytes([i])`` with i < num_hashes, shard routing uses 0xfe).
_TAG_DOMAIN = b"\xff"


def random_items(
    num_keys: int,
    value_bytes: int,
    key_bytes_len: int = 12,
    seed: int | None = None,
) -> dict[bytes, bytes]:
    """Distinct random byte-string keys mapped to random values.

    The single store generator behind ``KvDatabase.random``,
    ``KvServeRegistry.random``, the CLI, and the benchmark.
    """
    if num_keys < 1:
        raise ParameterError("need at least one key")
    if 256**key_bytes_len < 2 * num_keys:
        raise ParameterError(
            f"{key_bytes_len}-byte keys cannot yield {num_keys} distinct draws"
        )
    rng = np.random.default_rng(seed)
    items: dict[bytes, bytes] = {}
    while len(items) < num_keys:
        items[rng.bytes(key_bytes_len)] = rng.bytes(value_bytes)
    return items


def key_tag(key: bytes, tag_bytes: int, seed: int) -> bytes:
    """Keyed record tag: what a slot stores so the client can recognize it."""
    return hashlib.blake2b(
        key_bytes(key),
        digest_size=tag_bytes,
        key=seed.to_bytes(8, "little") + _TAG_DOMAIN,
    ).digest()


@dataclass
class KvLayout:
    """Public deployment geometry of one keyword-PIR store.

    Everything a client needs to query — table hashing, tag/value widths,
    stash occupancy, and the batched layout of the slot table — in O(1)
    space.  Which key sits in which slot stays on the server
    (:class:`KvDatabase`); the client only ever derives *candidate* slots
    from the key itself.
    """

    base_params: PirParams
    table: CuckooConfig
    tag_bytes: int
    value_bytes: int
    num_keys: int
    stash_slots: int
    batch: BatchLayout = field(repr=False)

    @classmethod
    def build(
        cls,
        params: PirParams,
        table: CuckooConfig,
        num_keys: int,
        value_bytes: int,
        tag_bytes: int,
        stash_slots: int,
        max_lookup_batch: int = DEFAULT_LOOKUP_BATCH,
    ) -> "KvLayout":
        if tag_bytes < 1:
            raise ParameterError("tag width must be at least one byte")
        if value_bytes < 1:
            raise ParameterError("values must be at least one byte")
        if max_lookup_batch < 1:
            raise ParameterError("design lookup batch must be at least 1")
        if table.num_hashes >= 0xFE:
            raise ParameterError(
                "keyword PIR reserves hash suffixes 0xfe/0xff for routing/tags"
            )
        num_slots = table.num_buckets + stash_slots
        probes = table.num_hashes + stash_slots
        batch_config = CuckooConfig.for_batch(
            max_lookup_batch * probes, seed=table.seed + 1
        )
        batch = BatchLayout.build(
            params, num_slots, tag_bytes + value_bytes, batch_config
        )
        return cls(
            base_params=params,
            table=table,
            tag_bytes=tag_bytes,
            value_bytes=value_bytes,
            num_keys=num_keys,
            stash_slots=stash_slots,
            batch=batch,
        )

    # -- geometry ---------------------------------------------------------
    @property
    def record_bytes(self) -> int:
        return self.tag_bytes + self.value_bytes

    @property
    def num_slots(self) -> int:
        """Dense PIR records backing the store: table slots + used stash."""
        return self.table.num_buckets + self.stash_slots

    @property
    def candidates_per_lookup(self) -> int:
        """Upper bound on slots one lookup probes (hash collisions dedupe)."""
        return self.table.num_hashes + self.stash_slots

    # -- key-derived quantities (no directory needed) ---------------------
    def candidate_slots(self, key: bytes) -> tuple[int, ...]:
        """Every slot that could hold ``key``: cuckoo candidates + stash."""
        cands = dict.fromkeys(self.table.candidates(key))
        stash = range(self.table.num_buckets, self.num_slots)
        return tuple(cands) + tuple(stash)

    def tag(self, key: bytes) -> bytes:
        return key_tag(key, self.tag_bytes, self.table.seed)

    def encode(self, key: bytes, value: bytes) -> bytes:
        """Slot record for one pair: ``tag(key) || value``."""
        if len(value) != self.value_bytes:
            raise ParameterError(
                f"value has {len(value)} bytes, store expects {self.value_bytes}"
            )
        return self.tag(key) + value

    def match(self, key: bytes, record: bytes) -> bytes | None:
        """Value if ``record`` is tagged for ``key``, else None."""
        if record[: self.tag_bytes] == self.tag(key):
            return record[self.tag_bytes : self.record_bytes]
        return None


class KvDatabase:
    """Server-side materialization: slot assignment + batched slot table."""

    def __init__(
        self,
        layout: KvLayout,
        assignment: CuckooAssignment,
        items: dict[bytes, bytes],
    ):
        self.layout = layout
        self.assignment = assignment
        self._items = dict(items)
        empty = b"\0" * layout.record_bytes
        slot_records = [empty] * layout.num_slots
        for slot, key in assignment.slots.items():
            slot_records[slot] = layout.encode(key, items[key])
        for i, key in enumerate(assignment.stash):
            slot_records[layout.table.num_buckets + i] = layout.encode(
                key, items[key]
            )
        self.batch_db = BatchDatabase(layout.batch, slot_records)

    @classmethod
    def from_items(
        cls,
        params: PirParams,
        items: dict[bytes, bytes],
        tag_bytes: int = DEFAULT_TAG_BYTES,
        max_lookup_batch: int = DEFAULT_LOOKUP_BATCH,
        hash_seed: int = 0,
        table: CuckooConfig | None = None,
    ) -> "KvDatabase":
        """Cuckoo-place a key-value mapping into a dense slot table.

        Raises :class:`~repro.errors.KvBuildError` when placement
        overflows the stash — rebuild with a different ``hash_seed``.
        """
        if not items:
            raise KvBuildError("cannot build an empty key-value store")
        keys = [key_bytes(k) for k in items]
        if len(set(keys)) != len(keys):
            raise KvBuildError("keys must be distinct byte strings")
        values = list(items.values())
        value_bytes = len(values[0])
        for v in values:
            if len(v) != value_bytes:
                raise KvBuildError(
                    f"all values must share one size; saw {len(v)} and {value_bytes}"
                )
        if table is None:
            table = CuckooConfig(
                num_buckets=num_buckets_for(len(keys)),
                stash_size=TABLE_STASH_SIZE,
                max_evictions=max(128, 8 * len(keys)),
                seed=hash_seed,
            )
        try:
            assignment = cuckoo_assign(keys, table)
        except BatchPlanError as exc:
            raise KvBuildError(
                f"slot placement of {len(keys)} keys failed ({exc}); "
                "rebuild with a different hash_seed"
            ) from exc
        layout = KvLayout.build(
            params,
            table,
            num_keys=len(keys),
            value_bytes=value_bytes,
            tag_bytes=tag_bytes,
            stash_slots=len(assignment.stash),
            max_lookup_batch=max_lookup_batch,
        )
        return cls(layout, assignment, dict(zip(keys, values)))

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_keys: int,
        value_bytes: int,
        key_bytes_len: int = 12,
        tag_bytes: int = DEFAULT_TAG_BYTES,
        max_lookup_batch: int = DEFAULT_LOOKUP_BATCH,
        hash_seed: int = 0,
        seed: int | None = None,
    ) -> "KvDatabase":
        items = random_items(num_keys, value_bytes, key_bytes_len, seed)
        return cls.from_items(
            params,
            items,
            tag_bytes=tag_bytes,
            max_lookup_batch=max_lookup_batch,
            hash_seed=hash_seed,
        )

    # -- ground truth (for verification in tests/examples) ----------------
    def value(self, key: bytes) -> bytes:
        return self._items[key_bytes(key)]

    def keys(self) -> list[bytes]:
        return list(self._items)

    def preprocess(self, ring: RingContext):
        return self.batch_db.preprocess(ring)
