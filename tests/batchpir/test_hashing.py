"""Cuckoo hashing: determinism, placement invariants, stash bound."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BatchPlanError, ParameterError
from repro.hashing.cuckoo import (
    CuckooConfig,
    cuckoo_assign,
    num_buckets_for,
)


class TestCuckooConfig:
    def test_candidates_deterministic_across_instances(self):
        a = CuckooConfig(num_buckets=64, seed=9)
        b = CuckooConfig(num_buckets=64, seed=9)
        for key in (0, 1, 17, 2**40):
            assert a.candidates(key) == b.candidates(key)

    def test_seed_changes_candidates(self):
        a = CuckooConfig(num_buckets=1024, seed=0)
        b = CuckooConfig(num_buckets=1024, seed=1)
        assert any(a.candidates(k) != b.candidates(k) for k in range(32))

    def test_candidates_in_range(self):
        config = CuckooConfig(num_buckets=7)
        for key in range(100):
            assert all(0 <= c < 7 for c in config.candidates(key))

    def test_num_buckets_for_applies_factor(self):
        assert num_buckets_for(64) == 96
        assert num_buckets_for(1) == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=1)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8, num_hashes=1)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8, stash_size=-1)
        with pytest.raises(ParameterError):
            num_buckets_for(0)
        with pytest.raises(ParameterError):
            CuckooConfig(num_buckets=8).candidates(-1)


class TestCuckooAssign:
    def test_rejects_duplicate_keys(self):
        config = CuckooConfig(num_buckets=8)
        with pytest.raises(ParameterError):
            cuckoo_assign([1, 2, 1], config)

    def test_overfull_batch_is_typed_failure(self):
        config = CuckooConfig(num_buckets=4, stash_size=0)
        with pytest.raises(BatchPlanError):
            cuckoo_assign(list(range(5)), config)

    def test_each_key_lands_in_a_candidate_bucket(self):
        config = CuckooConfig(num_buckets=16, seed=3)
        assignment = cuckoo_assign(list(range(10)), config)
        for bucket, key in assignment.slots.items():
            assert bucket in config.candidates(key)

    # -- the satellite property test ------------------------------------
    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.sets(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=64),
        factor_pct=st.integers(min_value=150, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_insertion_succeeds_within_stash_bound(self, keys, factor_pct, seed):
        """k distinct keys place with a bounded stash across table sizes.

        ``cuckoo_assign`` raises BatchPlanError on overflow, so a clean
        return IS the bound holding; the remaining asserts check the
        partition is exact: every key exactly once, in a candidate bucket.
        """
        keys = sorted(keys)
        config = CuckooConfig(
            num_buckets=num_buckets_for(len(keys), factor=factor_pct / 100),
            seed=seed,
        )
        assignment = cuckoo_assign(keys, config)
        assert len(assignment.stash) <= config.stash_size
        placed = sorted(list(assignment.slots.values()) + list(assignment.stash))
        assert placed == keys
        for bucket, key in assignment.slots.items():
            assert bucket in config.candidates(key)
