"""Keyed multi-hash cuckoo placement shared by batch PIR and keyword PIR.

Two subsystems use the same table machinery from opposite sides:

* ``repro.batchpir`` amortizes a client's k wanted record indices by
  cuckoo-placing them into query buckets — the *client* runs the walk, the
  server replicates every record into each candidate bucket.
* ``repro.kvpir`` serves arbitrary byte-string keys with no client-side
  directory by cuckoo-placing the *server's* (key, value) records into a
  dense slot table — the client re-derives the candidate slots from the
  key alone and probes all of them.

The hash functions must therefore be identical on both sides and across
processes: candidates come from a keyed blake2b over the key's byte
encoding — deterministic per deployment via ``seed``, with no shared state
beyond this config.  Keys may be non-negative integers (record indices)
or raw byte strings (keyword-PIR keys).

Cuckoo insertion uses the random-walk eviction strategy with a bounded
number of kicks; keys that still cannot be placed land in a bounded stash
(extra query rounds in batch PIR, dedicated always-probed slots in
keyword PIR).  With ``num_buckets >= 1.5 * k`` and three hash functions
the stash is empty with overwhelming probability
(Kirsch-Mitzenmacher-Wieder).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import BatchPlanError, ParameterError

#: Bucket-to-key expansion factor: B = ceil(BUCKET_FACTOR * k).
BUCKET_FACTOR = 1.5

#: Record replication factor = number of candidate buckets per key.
DEFAULT_NUM_HASHES = 3


def key_bytes(key: int | bytes) -> bytes:
    """Canonical byte encoding hashed for a key.

    Integers keep the historical 8-byte little-endian encoding (so batch
    PIR deployments hash identically across versions); byte strings hash
    as-is.
    """
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ParameterError("record indices must be non-negative")
        return int(key).to_bytes(8, "little")
    raise ParameterError(f"cuckoo keys must be int or bytes, got {type(key).__name__}")


def num_buckets_for(max_batch: int, factor: float = BUCKET_FACTOR) -> int:
    """Bucket count for a design batch size (at least 2, ~1.5x keys)."""
    if max_batch < 1:
        raise ParameterError("design batch size must be at least 1")
    return max(2, math.ceil(factor * max_batch))


@dataclass(frozen=True)
class CuckooConfig:
    """Deployment-static hashing parameters shared by client and server."""

    num_buckets: int
    num_hashes: int = DEFAULT_NUM_HASHES
    stash_size: int = 4
    max_evictions: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.num_buckets < 2:
            raise ParameterError("cuckoo hashing needs at least 2 buckets")
        if self.num_hashes < 2:
            raise ParameterError("cuckoo hashing needs at least 2 hash functions")
        if self.stash_size < 0:
            raise ParameterError("stash size cannot be negative")
        if self.max_evictions < 1:
            raise ParameterError("eviction bound must be at least 1")

    @classmethod
    def for_batch(cls, max_batch: int, seed: int = 0, **kwargs) -> "CuckooConfig":
        return cls(num_buckets=num_buckets_for(max_batch), seed=seed, **kwargs)

    @property
    def design_batch(self) -> int:
        """Largest key count this table is sized for (inverse of 1.5x rule)."""
        return max(1, int(self.num_buckets / BUCKET_FACTOR))

    def candidates(self, key: int | bytes) -> tuple[int, ...]:
        """The ``num_hashes`` candidate buckets of a key.

        Keyed blake2b keeps the mapping deterministic across processes and
        Python versions (``hash()`` is salted per interpreter run).
        Candidates may collide for small bucket counts; insertion handles
        duplicate candidates gracefully.
        """
        data = key_bytes(key)
        out = []
        for i in range(self.num_hashes):
            h = hashlib.blake2b(
                data,
                digest_size=8,
                key=self.seed.to_bytes(8, "little") + bytes([i]),
            )
            out.append(int.from_bytes(h.digest(), "little") % self.num_buckets)
        return tuple(out)


@dataclass(frozen=True)
class CuckooAssignment:
    """Result of placing one batch of keys: slot per bucket + stash."""

    slots: dict[int, int | bytes]  # bucket id -> key
    stash: tuple[int | bytes, ...]


def cuckoo_assign(keys: list[int | bytes], config: CuckooConfig) -> CuckooAssignment:
    """Place distinct keys so each bucket holds at most one.

    Random-walk eviction: when every candidate bucket of a key is taken, a
    uniformly chosen victim among them is kicked out and re-inserted.  The
    walk is bounded by ``max_evictions``; a key whose walk exhausts the
    bound goes to the stash.  Raises :class:`BatchPlanError` when the stash
    bound is exceeded — the typed failure callers can catch to split the
    batch (batch PIR) or rebuild with another seed (keyword PIR).
    """
    if len(set(keys)) != len(keys):
        raise ParameterError("batch indices must be distinct")
    if len(keys) > config.num_buckets + config.stash_size:
        raise BatchPlanError(
            f"{len(keys)} keys cannot fit in {config.num_buckets} buckets "
            f"plus a stash of {config.stash_size}"
        )
    rng = np.random.default_rng(config.seed)
    slots: dict[int, int | bytes] = {}
    stash: list[int | bytes] = []
    for key in keys:
        current = key
        for _ in range(config.max_evictions):
            cands = config.candidates(current)
            free = [b for b in cands if b not in slots]
            if free:
                slots[free[0]] = current
                current = None
                break
            victim_bucket = cands[int(rng.integers(len(cands)))]
            current, slots[victim_bucket] = slots[victim_bucket], current
        if current is not None:
            stash.append(current)
            if len(stash) > config.stash_size:
                raise BatchPlanError(
                    f"cuckoo insertion of {len(keys)} keys into "
                    f"{config.num_buckets} buckets overflowed the stash bound "
                    f"of {config.stash_size}"
                )
    return CuckooAssignment(slots=slots, stash=tuple(stash))
