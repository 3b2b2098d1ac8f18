"""Bucketed database layout for batch PIR.

One logical record set is partitioned into ``num_buckets`` independent
per-bucket PIR databases: every record is replicated into each of its
cuckoo candidate buckets, so whichever bucket the client's plan assigns a
wanted index to can serve it.  All buckets share a single (much smaller)
database geometry — sized to the fullest bucket — so queries, evaluation
keys, and responses have one uniform shape and a dummy query for an
untouched bucket is indistinguishable from a real one.

The bucket membership is a pure function of ``(num_records, CuckooConfig)``,
so the client reconstructs the exact same layout locally from public
deployment parameters; only the server materializes the record bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import LayoutError, ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.he.backend import ComputeBackend
from repro.he.poly import RingContext
from repro.params import PirParams
from repro.pir.database import PirDatabase, PreprocessedDatabase, fill_store
from repro.pir.layout import RecordLayout


def bucket_geometry(
    base: PirParams, bucket_records: int, record_bytes: int
) -> PirParams:
    """Smallest (D0, d) geometry on the base ring that holds one bucket.

    Scans power-of-two D0 candidates, minimizing first the stored
    polynomial count and then the per-query tree work
    ``(D0 - 1) Subs + (2^d - 1) external products`` — a balanced
    D0 ~ 2^d split, since ExpandQuery cost grows with D0 and ColTor cost
    with 2^d.  With a power-of-two plaintext modulus the payload per
    coefficient shrinks as D0 grows, so capacity is re-derived per
    candidate.
    """
    bucket_records = max(1, bucket_records)
    best: tuple[int, int, int, int] | None = None  # (capacity, tree ops, dims, d0)
    d0 = 1
    while d0 <= base.n:
        try:
            probe = base.with_db(d0=d0, num_dims=0)
            coeff_bytes = probe.payload_bits_per_coeff // 8
        except ParameterError:
            break  # larger D0 only shrinks the payload further
        if coeff_bytes < 1:
            break
        capacity_bytes = probe.n * coeff_bytes
        if record_bytes <= capacity_bytes:
            records_per_poly = max(1, capacity_bytes // record_bytes)
            planes = 1
        else:  # record striped across planes; one record per poly per plane
            records_per_poly = 1
            planes = math.ceil(record_bytes / capacity_bytes)
        polys = math.ceil(bucket_records / records_per_poly)
        dims = max(0, math.ceil(math.log2(polys / d0))) if polys > d0 else 0
        key = (planes * (d0 << dims), d0 + (1 << dims), dims, d0)
        if best is None or key < best:
            best = key
        d0 *= 2
    if best is None:
        raise LayoutError(
            f"no bucket geometry on N={base.n} carries {record_bytes}-byte records"
        )
    _, _, dims, d0 = best
    return base.with_db(d0=d0, num_dims=dims)


@dataclass
class BatchLayout:
    """Deterministic bucket partition both sides derive independently."""

    base_params: PirParams
    num_records: int
    record_bytes: int
    config: CuckooConfig
    bucket_members: list[list[int]] = field(repr=False)
    bucket_params: PirParams = field(repr=False)
    bucket_layouts: list[RecordLayout] = field(repr=False)
    _local: list[dict[int, int]] = field(repr=False)

    @classmethod
    def build(
        cls,
        params: PirParams,
        num_records: int,
        record_bytes: int,
        config: CuckooConfig,
    ) -> "BatchLayout":
        if num_records < 1:
            raise LayoutError("batch layout needs at least one record")
        members: list[set[int]] = [set() for _ in range(config.num_buckets)]
        for g in range(num_records):
            for bucket in config.candidates(g):
                members[bucket].add(g)
        bucket_members = [sorted(m) for m in members]
        max_records = max((len(m) for m in bucket_members), default=1)
        bucket_params = bucket_geometry(params, max_records, record_bytes)
        bucket_layouts = [
            RecordLayout(
                params=bucket_params,
                record_bytes=record_bytes,
                num_records=max(1, len(m)),
            )
            for m in bucket_members
        ]
        local = [{g: i for i, g in enumerate(m)} for m in bucket_members]
        return cls(
            base_params=params,
            num_records=num_records,
            record_bytes=record_bytes,
            config=config,
            bucket_members=bucket_members,
            bucket_params=bucket_params,
            bucket_layouts=bucket_layouts,
            _local=local,
        )

    # -- geometry ---------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return self.config.num_buckets

    @property
    def replicated_records(self) -> int:
        """Total stored entries across buckets (~num_hashes * num_records)."""
        return sum(len(m) for m in self.bucket_members)

    @property
    def replication_factor(self) -> float:
        return self.replicated_records / self.num_records

    def local_index(self, bucket: int, global_index: int) -> int:
        """Position of a record inside one of its candidate buckets."""
        try:
            return self._local[bucket][global_index]
        except (IndexError, KeyError):
            raise LayoutError(
                f"record {global_index} is not stored in bucket {bucket}"
            ) from None


class BatchDatabase:
    """Server-side materialization: one PirDatabase per bucket."""

    def __init__(self, layout: BatchLayout, records: list[bytes]):
        if len(records) != layout.num_records:
            raise LayoutError(
                f"layout expects {layout.num_records} records, got {len(records)}"
            )
        self.layout = layout
        self._records = list(records)
        pad = b"\0" * layout.record_bytes
        self.bucket_dbs = [
            PirDatabase(
                layout.bucket_layouts[b],
                [records[g] for g in members] if members else [pad],
            )
            for b, members in enumerate(layout.bucket_members)
        ]

    @classmethod
    def from_records(
        cls,
        params: PirParams,
        records: list[bytes],
        config: CuckooConfig,
        record_bytes: int | None = None,
    ) -> "BatchDatabase":
        if not records:
            raise LayoutError("cannot build an empty batch database")
        size = record_bytes if record_bytes is not None else len(records[0])
        layout = BatchLayout.build(params, len(records), size, config)
        return cls(layout, records)

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_records: int,
        record_bytes: int,
        config: CuckooConfig,
        seed: int | None = None,
    ) -> "BatchDatabase":
        rng = np.random.default_rng(seed)
        records = [rng.bytes(record_bytes) for _ in range(num_records)]
        return cls.from_records(params, records, config, record_bytes)

    def record(self, global_index: int) -> bytes:
        """Ground-truth record bytes (for verification in tests/examples)."""
        return self._records[global_index]

    def preprocess(
        self, ring: RingContext, backend: str | ComputeBackend | None = None
    ) -> tuple[np.ndarray, list[PreprocessedDatabase]]:
        """CRT + NTT every bucket into one stacked uint32 store.

        Returns the ``(buckets, planes, polys, rns, n)`` tensor and one
        :class:`PreprocessedDatabase` per bucket that is a *view* of it
        (all buckets share one geometry), so the stacked window pipeline
        and the per-bucket databases read — and delta updates write —
        the same single allocation.
        """
        shapes = {
            (db.layout.plane_count, db.params.num_db_polys) for db in self.bucket_dbs
        }
        if len(shapes) != 1:
            raise LayoutError(
                f"bucket geometries differ ({sorted(shapes)}): a pass is one "
                "stacked window over buckets of a single geometry"
            )
        (shape,) = shapes
        tensor = np.empty(
            (len(self.bucket_dbs),) + shape + (ring.rns_count, ring.n),
            dtype=np.uint32,
        )
        # The buckets stream through the block packer straight into the
        # store: the only large allocation is the store itself.
        fill_store(tensor, self.bucket_dbs, ring, backend)
        return tensor, [
            PreprocessedDatabase(db.layout, ring, tensor[bucket])
            for bucket, db in enumerate(self.bucket_dbs)
        ]
