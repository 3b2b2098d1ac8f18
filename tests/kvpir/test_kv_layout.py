"""Kv layout/database: slot placement, tags, encoding invariants."""

import pytest

from repro.errors import KvBuildError, ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.kvpir.layout import KvDatabase, KvLayout, key_tag
from repro.params import PirParams


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


def items_for(n, value_bytes=16):
    return {f"key-{i:04d}".encode(): bytes([i % 251]) * value_bytes for i in range(n)}


class TestKvLayout:
    def test_build_validates_widths(self, params):
        table = CuckooConfig(num_buckets=16)
        with pytest.raises(ParameterError):
            KvLayout.build(params, table, 8, value_bytes=16, tag_bytes=0, stash_slots=0)
        with pytest.raises(ParameterError):
            KvLayout.build(params, table, 8, value_bytes=0, tag_bytes=4, stash_slots=0)

    def test_candidate_slots_need_no_directory(self, params):
        """Candidates come from the key alone and include every stash slot."""
        table = CuckooConfig(num_buckets=32, seed=2)
        layout = KvLayout.build(
            params, table, 20, value_bytes=8, tag_bytes=4, stash_slots=2
        )
        slots = layout.candidate_slots(b"anything")
        assert len(slots) == len(set(slots))  # deduped
        assert set(slots[-2:]) == {32, 33}  # stash slots always probed
        assert all(s < layout.num_slots for s in slots)
        assert layout.num_slots == 34
        assert layout.candidates_per_lookup == table.num_hashes + 2

    def test_tag_is_keyed_and_domain_separated(self, params):
        assert key_tag(b"k", 8, seed=0) != key_tag(b"k", 8, seed=1)
        assert key_tag(b"k", 8, seed=0) != key_tag(b"j", 8, seed=0)
        # The tag hash never collides with a candidate-hash suffix.
        table = CuckooConfig(num_buckets=256, seed=0)
        layout = KvLayout.build(
            params, table, 100, value_bytes=8, tag_bytes=8, stash_slots=0
        )
        assert layout.tag(b"k") == key_tag(b"k", 8, seed=0)

    def test_match_recognizes_only_the_right_tag(self, params):
        table = CuckooConfig(num_buckets=16, seed=1)
        layout = KvLayout.build(
            params, table, 8, value_bytes=4, tag_bytes=8, stash_slots=0
        )
        record = layout.encode(b"alice", b"\x01\x02\x03\x04")
        assert layout.match(b"alice", record) == b"\x01\x02\x03\x04"
        assert layout.match(b"bob", record) is None
        assert layout.match(b"alice", b"\0" * layout.record_bytes) is None


class TestKvDatabase:
    def test_every_key_lands_in_a_candidate_or_stash_slot(self, params):
        db = KvDatabase.from_items(params, items_for(40), max_lookup_batch=4)
        layout = db.layout
        for slot, key in db.assignment.slots.items():
            assert slot in layout.table.candidates(key)
        assert layout.stash_slots == len(db.assignment.stash)
        placed = len(db.assignment.slots) + len(db.assignment.stash)
        assert placed == layout.num_keys == 40

    def test_slot_records_encode_tag_then_value(self, params):
        db = KvDatabase.from_items(params, items_for(12), max_lookup_batch=2)
        layout = db.layout
        for slot, key in db.assignment.slots.items():
            record = db.batch_db.record(slot)
            assert record == layout.tag(key) + db.value(key)
        # Unoccupied slots stay zeroed (cannot tag-match w.h.p.).
        occupied = set(db.assignment.slots)
        empties = [
            s for s in range(layout.table.num_buckets) if s not in occupied
        ]
        assert db.batch_db.record(empties[0]) == b"\0" * layout.record_bytes

    def test_rejects_bad_inputs(self, params):
        with pytest.raises(KvBuildError):
            KvDatabase.from_items(params, {})
        with pytest.raises(KvBuildError):
            KvDatabase.from_items(params, {b"a": b"xx", b"b": b"xyz"})

    def test_random_builds_distinct_keys(self, params):
        db = KvDatabase.random(params, num_keys=30, value_bytes=8, seed=3)
        assert len(db.keys()) == 30
        assert db.layout.num_slots >= 1.5 * db.layout.num_keys
