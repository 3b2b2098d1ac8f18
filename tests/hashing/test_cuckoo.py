"""Shared cuckoo module: byte-string keys, compat with the batchpir shim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BatchPlanError, ParameterError
from repro.hashing.cuckoo import (
    CuckooConfig,
    cuckoo_assign,
    key_bytes,
)


class TestKeyBytes:
    def test_int_keeps_historical_encoding(self):
        assert key_bytes(5) == (5).to_bytes(8, "little")

    def test_bytes_pass_through(self):
        assert key_bytes(b"user@example.com") == b"user@example.com"
        assert key_bytes(bytearray(b"ab")) == b"ab"

    def test_rejects_negative_and_foreign_types(self):
        with pytest.raises(ParameterError):
            key_bytes(-1)
        with pytest.raises(ParameterError):
            key_bytes("a string")  # text must be encoded explicitly

    def test_numpy_integers_accepted(self):
        import numpy as np

        assert key_bytes(np.int64(7)) == key_bytes(7)


class TestByteKeyCandidates:
    def test_deterministic_and_in_range(self):
        config = CuckooConfig(num_buckets=37, seed=4)
        for key in (b"", b"alice", b"\x00" * 32):
            cands = config.candidates(key)
            assert cands == config.candidates(key)
            assert all(0 <= c < 37 for c in cands)

    def test_int_candidates_unchanged_by_refactor(self):
        """Batch-PIR deployments must hash identically across versions."""
        config = CuckooConfig(num_buckets=64, seed=9)
        assert config.candidates(17) == config.candidates(
            (17).to_bytes(8, "little")
        )


class TestByteKeyAssign:
    def test_places_byte_keys_in_candidate_buckets(self):
        config = CuckooConfig(num_buckets=16, seed=3)
        keys = [f"key-{i}".encode() for i in range(9)]
        assignment = cuckoo_assign(keys, config)
        placed = set(assignment.slots.values()) | set(assignment.stash)
        assert placed == set(keys)
        for bucket, key in assignment.slots.items():
            assert bucket in config.candidates(key)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.sets(st.binary(min_size=1, max_size=24), min_size=1, max_size=48),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_byte_key_insertion_within_stash_bound(self, keys, seed):
        keys = sorted(keys)
        config = CuckooConfig.for_batch(max(len(keys), 1), seed=seed)
        assignment = cuckoo_assign(keys, config)
        assert len(assignment.slots) + len(assignment.stash) == len(keys)
        assert len(set(assignment.slots.values())) == len(assignment.slots)


class TestEdgeCases:
    """Degenerate inputs must fail typed, never corrupt a placement."""

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.one_of(
            st.binary(min_size=0, max_size=16),
            st.integers(min_value=0, max_value=2**32),
        ),
        copies=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_duplicate_keys_rejected_typed(self, key, copies, seed):
        config = CuckooConfig(num_buckets=16, seed=seed)
        with pytest.raises(ParameterError):
            cuckoo_assign([key] * copies, config)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_int_and_equivalent_bytes_key_are_duplicates(self, seed):
        """An int key and its canonical byte encoding hash identically, so
        placing both would assign one logical key twice; the shared core
        hashes them the same and the caller must not mix encodings."""
        config = CuckooConfig(num_buckets=16, seed=seed)
        assert config.candidates(7) == config.candidates(key_bytes(7))

    def test_zero_capacity_tables_rejected(self):
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=0)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=1)  # a 1-bucket table cannot cuckoo
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8, num_hashes=1)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8, stash_size=-1)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8, max_evictions=0)

    @settings(max_examples=40, deadline=None)
    @given(
        extra=st.integers(min_value=1, max_value=8),
        stash=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_overfull_batches_rejected_before_walking(self, extra, stash, seed):
        """More keys than buckets + stash can never place: typed, eager."""
        config = CuckooConfig(num_buckets=4, stash_size=stash, seed=seed)
        keys = list(range(4 + stash + extra))
        with pytest.raises(BatchPlanError):
            cuckoo_assign(keys, config)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_stash_overflow_is_typed_with_zero_stash(self, seed):
        """Saturating a tiny zero-stash table either places everything or
        raises the typed overflow — and a partial failure never leaks a
        bucket holding two keys."""
        config = CuckooConfig(
            num_buckets=4, stash_size=0, max_evictions=8, seed=seed
        )
        keys = [f"k{i}".encode() for i in range(4)]
        try:
            assignment = cuckoo_assign(keys, config)
        except BatchPlanError:
            return
        assert len(assignment.slots) == len(keys)
        assert len(set(assignment.slots.values())) == len(keys)
        for bucket, key in assignment.slots.items():
            assert bucket in config.candidates(key)

    @settings(max_examples=30, deadline=None)
    @given(
        num_keys=st.integers(min_value=5, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stash_overflow_accounting_never_overshoots(self, num_keys, seed):
        """With a bounded stash, every outcome is accounted: either all
        keys land (slots + stash) with the stash within its bound, or the
        typed overflow fires."""
        config = CuckooConfig(
            num_buckets=max(2, num_keys - 3),
            stash_size=2,
            max_evictions=16,
            seed=seed,
        )
        keys = list(range(num_keys))
        try:
            assignment = cuckoo_assign(keys, config)
        except BatchPlanError:
            return
        assert len(assignment.stash) <= config.stash_size
        assert len(assignment.slots) + len(assignment.stash) == num_keys
