"""Typed mutation logs: validation, ordering, coalescing."""

import pytest

from repro.errors import MutateError
from repro.mutate import Append, Delete, Put, UpdateLog


class TestUpdateLog:
    def test_builders_are_chainable_and_ordered(self):
        log = UpdateLog().put(1, b"a").delete(2).append(b"b")
        assert [type(op) for op in log] == [Put, Delete, Append]
        assert len(log) == 3
        assert log.num_appends == 1

    def test_rejects_bad_indices(self):
        with pytest.raises(MutateError):
            UpdateLog().put(-1, b"x")
        with pytest.raises(MutateError):
            UpdateLog().delete(True)
        with pytest.raises(MutateError):
            UpdateLog().put(2.0, b"x")

    def test_coalesce_last_write_wins(self):
        log = UpdateLog().put(0, b"a").put(0, b"b").delete(1).put(1, b"c")
        writes, appends = log.coalesced(num_records=4)
        assert writes == {0: b"b", 1: b"c"}
        assert appends == []

    def test_coalesce_delete_becomes_tombstone(self):
        writes, _ = UpdateLog().put(2, b"x").delete(2).coalesced(4)
        assert writes == {2: None}

    def test_put_to_own_append_folds_into_append(self):
        log = UpdateLog().append(b"a").put(4, b"b")
        writes, appends = log.coalesced(num_records=4)
        assert writes == {}
        assert appends == [b"b"]

    def test_deleted_append_still_occupies_its_index(self):
        _, appends = UpdateLog().append(b"a").append(b"b").delete(4).coalesced(4)
        assert appends == [None, b"b"]

    def test_write_beyond_database_and_appends_rejected(self):
        with pytest.raises(MutateError):
            UpdateLog().put(5, b"x").coalesced(4)
        with pytest.raises(MutateError):
            UpdateLog().append(b"a").put(6, b"x").coalesced(4)
