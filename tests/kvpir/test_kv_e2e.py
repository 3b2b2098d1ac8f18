"""Keyword PIR end to end: round-trips, typed misses, zero false decodes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFound, ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.kvpir import KvPirProtocol
from repro.kvpir.layout import DEFAULT_TAG_BYTES, KvDatabase
from repro.params import PirParams


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


def items_for(n, value_bytes=12):
    return {
        f"user-{i:05d}".encode(): i.to_bytes(4, "big") * (value_bytes // 4)
        for i in range(n)
    }


class TestLookup:
    def test_present_keys_round_trip(self, params):
        items = items_for(48)
        protocol = KvPirProtocol(params, items, max_lookup_batch=4, seed=1)
        for key in list(items)[:5]:
            assert protocol.lookup(key) == items[key]

    def test_absent_key_raises_typed_miss(self, params):
        protocol = KvPirProtocol(params, items_for(16), seed=2)
        with pytest.raises(KeyNotFound) as exc:
            protocol.lookup(b"never-inserted")
        assert exc.value.key == b"never-inserted"

    def test_lookup_many_mixes_hits_and_misses(self, params):
        items = items_for(32)
        protocol = KvPirProtocol(params, items, max_lookup_batch=8, seed=3)
        present = list(items)[:4]
        result = protocol.lookup_many(present + [b"ghost-1", b"ghost-2"])
        assert len(result.values) == 4
        assert set(result.missing) == {b"ghost-1", b"ghost-2"}
        for key in present:
            assert result.values[key] == items[key]
        with pytest.raises(KeyNotFound):
            protocol.lookup_many([present[0], b"ghost-1"], strict=True)

    def test_duplicate_lookup_keys_probe_once(self, params):
        items = items_for(24)
        protocol = KvPirProtocol(params, items, max_lookup_batch=4, seed=4)
        key = list(items)[7]
        result = protocol.lookup_many([key, key, key])
        assert result.values == {key: items[key]}
        assert len(result.plan.keys) == 1

    def test_lookups_beyond_design_batch_chunk(self, params):
        items = items_for(64)
        protocol = KvPirProtocol(params, items, max_lookup_batch=2, seed=5)
        wanted = list(items)[:10]  # ~30 probes >> one design chunk
        result = protocol.lookup_many(wanted)
        assert len(result.plan.chunks) > 1
        assert all(result.values[k] == items[k] for k in wanted)

    def test_transcript_accounts_per_lookup(self, params):
        protocol = KvPirProtocol(params, items_for(16), seed=6)
        protocol.lookup(list(items_for(16))[0])
        t = protocol.transcript
        assert t.queries_served == 1
        assert t.query_bytes > 0 and t.response_bytes > 0

    def test_empty_lookup_rejected(self, params):
        protocol = KvPirProtocol(params, items_for(8), seed=7)
        with pytest.raises(ParameterError):
            protocol.lookup_many([])


class TestStashPath:
    def test_stashed_keys_still_resolve(self, params):
        """An over-full table spills to stash slots every lookup probes."""
        items = items_for(12)
        for seed in range(64):
            table = CuckooConfig(
                num_buckets=12, stash_size=8, max_evictions=64, seed=seed
            )
            db = KvDatabase.from_items(params, items, table=table)
            if db.layout.stash_slots > 0:
                break
        else:  # pragma: no cover — 100% occupancy stashes within 64 seeds
            pytest.fail("no seed produced a stashed key")
        protocol = KvPirProtocol.__new__(KvPirProtocol)
        # Assemble around the custom-table database (constructor rebuilds).
        from repro.kvpir.client import KvPirClient
        from repro.kvpir.server import KvPirServer
        from repro.pir.protocol import Transcript

        protocol.db = db
        protocol.layout = db.layout
        protocol.client = KvPirClient(db.layout, seed=8)
        setup = protocol.client.setup_message()
        protocol.server = KvPirServer(db, protocol.client.batch.pir.ring, setup)
        protocol.transcript = Transcript()
        stashed = db.assignment.stash[0]
        assert protocol.lookup(stashed) == db.value(stashed)
        # Non-stashed keys keep working alongside.
        placed = next(iter(db.assignment.slots.values()))
        assert protocol.lookup(placed) == db.value(placed)


class TestRandomizedSweep:
    """The acceptance sweep: zero false decodes at the default tag width."""

    @settings(max_examples=30, deadline=None)
    @given(
        items=st.dictionaries(
            keys=st.binary(min_size=1, max_size=12),
            values=st.binary(min_size=6, max_size=6),
            min_size=1,
            max_size=24,
        ),
        absent=st.sets(st.binary(min_size=13, max_size=16), min_size=1, max_size=4),
        hash_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_round_trip_and_zero_false_decodes(self, params, items, absent, hash_seed):
        # Absent keys are longer than any stored key, so disjoint by length.
        protocol = KvPirProtocol(
            params, items, max_lookup_batch=4, hash_seed=hash_seed, seed=1
        )
        assert protocol.layout.tag_bytes == DEFAULT_TAG_BYTES
        result = protocol.lookup_many(list(items) + sorted(absent))
        assert result.values == items  # every present key, its exact value
        assert set(result.missing) == absent  # every absent key, no false hit
