"""End-to-end batch retrieval: byte-correct records through real crypto."""

import numpy as np
import pytest

from repro.batchpir import BatchPirProtocol
from repro.batchpir.client import BatchPirClient
from repro.batchpir.layout import BatchLayout
from repro.errors import LayoutError, ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.params import PirParams


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


@pytest.fixture(scope="module")
def protocol(params):
    rng = np.random.default_rng(11)
    records = [rng.bytes(24) for _ in range(1024)]
    return BatchPirProtocol(params, records, max_batch=64, seed=11)


class TestBatchRetrieval:
    def test_k64_round_trip(self, protocol):
        """Acceptance: a batch of 64 records decodes all 64 correctly."""
        rng = np.random.default_rng(5)
        indices = [int(i) for i in rng.choice(1024, size=64, replace=False)]
        result = protocol.retrieve_batch(indices)
        assert len(result.records) == 64
        for rec, g in zip(result.records, indices):
            assert rec == protocol.db.record(g)

    def test_small_batch_on_large_deployment(self, protocol):
        result = protocol.retrieve_batch([0, 1023, 512])
        assert [result.records[0], result.records[1], result.records[2]] == [
            protocol.db.record(0),
            protocol.db.record(1023),
            protocol.db.record(512),
        ]

    def test_transcript_counts_batch(self, protocol):
        served_before = protocol.transcript.queries_served
        protocol.retrieve_batch([1, 2])
        assert protocol.transcript.queries_served == served_before + 2
        assert protocol.transcript.query_bytes > 0
        assert protocol.transcript.response_bytes > 0

    def test_rejects_out_of_range_and_empty(self, protocol):
        with pytest.raises(LayoutError):
            protocol.retrieve_batch([0, 4096])
        with pytest.raises(ParameterError):
            protocol.retrieve_batch([])


class TestStashRounds:
    def test_overfull_plan_spills_into_extra_rounds(self, params):
        """A deliberately tight table forces the stash; extra rounds serve it.

        8 keys into 8 buckets (load 1.0 instead of the 1/1.5 design point)
        makes cuckoo failures likely; scan hash seeds until one yields a
        multi-round plan, then check the retrieval is still byte-correct.
        """
        rng = np.random.default_rng(3)
        records = [rng.bytes(16) for _ in range(64)]
        for hash_seed in range(64):
            config = CuckooConfig(num_buckets=8, seed=hash_seed, stash_size=4)
            layout = BatchLayout.build(params, 64, 16, config)
            client = BatchPirClient(layout, seed=1)
            plan = client.plan(list(range(8)))
            if plan.num_rounds > 1:
                break
        else:
            pytest.skip("no hash seed produced a stash at load 1.0")
        protocol = BatchPirProtocol(
            params, records, max_batch=8, record_bytes=16, seed=1, config=config
        )
        result = protocol.retrieve_batch(list(range(8)))
        assert result.num_rounds > 1
        for rec, g in zip(result.records, range(8)):
            assert rec == records[g]

    def test_plan_places_every_index_exactly_once(self, protocol):
        indices = list(range(40))
        plan = protocol.client.plan(indices)
        assert sorted(plan.indices) == indices
        for slots in plan.rounds:
            assert len(set(slots.keys())) == len(slots)


class TestRecordShapes:
    def test_multi_plane_records(self, params):
        """Records bigger than one polynomial stripe across planes."""
        coeff_bytes = params.payload_bits_per_coeff // 8
        big = params.n * coeff_bytes + 40  # forces plane_count >= 2
        rng = np.random.default_rng(2)
        records = [rng.bytes(big) for _ in range(32)]
        protocol = BatchPirProtocol(params, records, max_batch=4, seed=2)
        assert protocol.layout.bucket_layouts[0].plane_count >= 2
        result = protocol.retrieve_batch([3, 17, 30])
        for rec, g in zip(result.records, (3, 17, 30)):
            assert rec == records[g]
