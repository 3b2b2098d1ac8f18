"""Bucket layout: geometry selection, membership, replication accounting."""

import pytest

from repro.batchpir.layout import BatchDatabase, BatchLayout, bucket_geometry
from repro.errors import LayoutError
from repro.hashing.cuckoo import CuckooConfig
from repro.params import PirParams


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


class TestBucketGeometry:
    def test_capacity_fits_bucket(self, params):
        for records in (1, 5, 16, 100, 500):
            p = bucket_geometry(params, records, record_bytes=32)
            cap_bytes = p.num_db_polys * p.poly_payload_bytes
            assert cap_bytes >= records * 32

    def test_balances_expand_against_coltor(self, params):
        # 64 polys worth of records: D0=8, d=3 beats D0=64, d=0 on tree ops.
        coeff = params.payload_bits_per_coeff // 8
        per_poly = params.n * coeff // 32
        p = bucket_geometry(params, 64 * per_poly, record_bytes=32)
        assert p.d0 + (1 << p.num_dims) <= 64 + 1

    def test_single_record_bucket(self, params):
        p = bucket_geometry(params, 1, record_bytes=32)
        assert p.num_db_polys >= 1
        assert p.d0 == 1 and p.num_dims == 0


class TestBatchLayout:
    def test_members_cover_every_record_with_replication(self, params):
        config = CuckooConfig(num_buckets=12, seed=4)
        layout = BatchLayout.build(params, 100, 16, config)
        seen = set()
        for bucket, members in enumerate(layout.bucket_members):
            assert members == sorted(set(members))
            for g in members:
                seen.add(g)
                assert bucket in config.candidates(g)
        assert seen == set(range(100))
        assert 1.0 < layout.replication_factor <= config.num_hashes

    def test_client_and_server_derive_identical_layouts(self, params):
        config = CuckooConfig(num_buckets=12, seed=4)
        a = BatchLayout.build(params, 100, 16, config)
        b = BatchLayout.build(params, 100, 16, config)
        assert a.bucket_members == b.bucket_members
        assert a.bucket_params == b.bucket_params

    def test_local_index_round_trip(self, params):
        layout = BatchLayout.build(params, 64, 16, CuckooConfig(num_buckets=8))
        for g in range(64):
            for bucket in set(layout.config.candidates(g)):
                local = layout.local_index(bucket, g)
                assert layout.bucket_members[bucket][local] == g

    def test_local_index_rejects_non_member(self, params):
        layout = BatchLayout.build(params, 16, 16, CuckooConfig(num_buckets=64))
        g = 3
        absent = next(
            b for b in range(64) if b not in layout.config.candidates(g)
        )
        with pytest.raises(LayoutError):
            layout.local_index(absent, g)


class TestBatchDatabase:
    def test_buckets_store_their_members(self, params):
        records = [bytes([i]) * 16 for i in range(50)]
        db = BatchDatabase.from_records(
            params, records, CuckooConfig(num_buckets=8, seed=2)
        )
        for bucket, members in enumerate(db.layout.bucket_members):
            bucket_db = db.bucket_dbs[bucket]
            for local, g in enumerate(members):
                assert bucket_db.record(local) == records[g]

    def test_empty_bucket_padded(self, params):
        # 2 records across 64 buckets leaves most buckets empty.
        db = BatchDatabase.from_records(
            params, [b"\x01" * 16, b"\x02" * 16], CuckooConfig(num_buckets=64)
        )
        assert all(b.num_records >= 1 for b in db.bucket_dbs)

    def test_record_count_mismatch(self, params):
        layout = BatchLayout.build(params, 4, 16, CuckooConfig(num_buckets=4))
        with pytest.raises(LayoutError):
            BatchDatabase(layout, [b"\x00" * 16] * 3)
