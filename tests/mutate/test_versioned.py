"""Dirty-plane delta application: correctness, COW sharing, cost bounds."""

import numpy as np
import pytest

from repro.errors import LayoutError, MutateError
from repro.he.backend import backend_names
from repro.he.poly import RingContext
from repro.mutate import UpdateLog, VersionedDatabase
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.protocol import PirProtocol


@pytest.fixture(scope="module")
def params():
    return PirParams.small(n=256, d0=8, num_dims=2)


@pytest.fixture(scope="module")
def ring(params):
    return RingContext(params)


def _records(n, size=64, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for _ in range(n)]


class TestDeltaCorrectness:
    def test_apply_matches_from_scratch_rebuild(self, params, ring):
        records = _records(24)
        expected = list(records)
        expected[3] = b"\x07" * 64
        expected[5] = b"\x00" * 64  # tombstone
        expected.append(b"\x09" * 64)
        fresh = PirDatabase.from_records(expected, params, 64)
        # The dirty-cell re-NTT is its own call into the backend: under
        # each one, cells and GEMM tensor equal a from-scratch preprocess.
        for backend in backend_names():
            vdb = VersionedDatabase(params, records, 64, ring=ring, backend=backend)
            snap = vdb.apply(
                UpdateLog().put(3, b"\x07" * 64).delete(5).append(b"\x09" * 64)
            )
            assert np.array_equal(fresh.planes, snap.db.planes)
            fresh_pre = fresh.preprocess(ring, backend=backend)
            assert snap.pre.tensor.dtype == np.uint32
            for plane in range(fresh_pre.plane_count):
                assert np.array_equal(
                    fresh_pre.plane_tensor(plane), snap.pre.plane_tensor(plane)
                )
                for index in range(fresh_pre.num_polys):
                    row, col = index % params.d0, index // params.d0
                    assert np.array_equal(
                        fresh_pre.poly(plane, row, col).residues,
                        snap.pre.poly(plane, row, col).residues,
                    )

    def test_striped_records_repack_every_plane(self, params, ring):
        # Records larger than one polynomial stripe across planes.
        record_bytes = 3 * params.poly_payload_bytes
        records = _records(6, size=record_bytes)
        vdb = VersionedDatabase(params, records, record_bytes, ring=ring)
        assert vdb.current.db.layout.plane_count == 3
        snap = vdb.apply(UpdateLog().put(2, b"\x5a" * record_bytes))
        assert snap.cost.polys_repacked == 3  # one poly per plane
        expected = list(records)
        expected[2] = b"\x5a" * record_bytes
        fresh = PirDatabase.from_records(expected, params, record_bytes)
        assert np.array_equal(fresh.planes, snap.db.planes)

    def test_updated_record_retrieves_byte_correct(self, params):
        records = _records(16, size=32)
        vdb = VersionedDatabase(params, records, 32)
        vdb.apply(UpdateLog().put(9, b"\xab" * 32))
        protocol = PirProtocol(params, vdb.current.db, seed=4)
        assert protocol.retrieve(9).record == b"\xab" * 32
        assert protocol.retrieve(8).record == records[8]

    def test_epochs_are_stamped_and_monotone(self, params):
        vdb = VersionedDatabase(params, _records(8, size=32), 32)
        assert vdb.epoch == 0
        assert vdb.apply(UpdateLog().put(0, b"\x01" * 32)).epoch == 1
        assert vdb.apply(UpdateLog()).epoch == 2  # empty applies still version


class TestCopyOnWrite:
    def test_only_dirty_preprocessed_polys_change(self, params, ring):
        vdb = VersionedDatabase(params, _records(24), 64, ring=ring)
        before = vdb.current
        after = vdb.apply(UpdateLog().put(0, b"\x01" * 64))
        changed = (before.pre.tensor != after.pre.tensor).any(axis=(2, 3))
        dirty = int(changed.sum())
        assert dirty == after.cost.polys_ntted
        assert changed.size == after.cost.full_polys
        assert not np.shares_memory(before.pre.tensor, after.pre.tensor)

    def test_epoch_apply_seeds_the_gemm_tensor_cache(self, params, ring):
        """Regression: a snapshot built from a served parent must carry a
        pre-seeded (and patched) RowSel tensor cache, so the first
        post-swap query never re-stacks the whole plane in-line."""
        vdb = VersionedDatabase(params, _records(24), 64, ring=ring)
        before = vdb.current
        planes = range(before.pre.plane_count)
        for plane in planes:
            before.pre.plane_tensor(plane)  # parent has served queries
        after = vdb.apply(UpdateLog().put(0, b"\x07" * 64))
        assert after.cost.tensor_polys_copied == sum(
            before.pre.plane_tensor(p).shape[0] for p in planes
        )
        d0 = params.d0
        dirty_poly = before.pre.layout.poly_index(0)
        fresh = after.db.preprocess(ring)
        for plane in planes:
            cached = after.pre.plane_tensor(plane)
            assert not np.shares_memory(cached, before.pre.plane_tensor(plane))
            assert np.array_equal(cached, fresh.plane_tensor(plane))
            for poly in range(after.pre.num_polys):
                assert np.array_equal(
                    cached[poly], after.pre.poly(plane, poly % d0, poly // d0).residues
                )
            # the parent's store still holds the *old* epoch's dirty cell
            assert not np.array_equal(
                before.pre.plane_tensor(plane)[dirty_poly], cached[dirty_poly]
            )

    def test_old_snapshot_unaffected_by_new_epoch(self, params, ring):
        records = _records(24)
        vdb = VersionedDatabase(params, records, 64, ring=ring)
        before = vdb.current
        vdb.apply(UpdateLog().put(3, b"\xff" * 64))
        assert before.db.record(3) == records[3]
        fresh = PirDatabase.from_records(records, params, 64)
        assert np.array_equal(before.db.planes, fresh.planes)


class TestCostAccounting:
    def test_work_is_proportional_to_the_delta(self, params, ring):
        # 24 records x 64 B pack 8 per poly: touching 2 records in the
        # same poly costs ONE repack, and far less than the full 32 polys.
        vdb = VersionedDatabase(params, _records(24), 64, ring=ring)
        snap = vdb.apply(UpdateLog().put(0, b"\x01" * 64).put(1, b"\x02" * 64))
        assert snap.cost.polys_repacked == 1
        assert snap.cost.polys_ntted == 1
        assert snap.cost.full_polys == 32  # d0 * 2^dims = 32 polys, 1 plane
        assert snap.cost.delta_fraction == 1 / 32

    def test_rewriting_identical_bytes_is_free(self, params):
        records = _records(12, size=32)
        vdb = VersionedDatabase(params, records, 32)
        snap = vdb.apply(UpdateLog().put(4, records[4]))
        assert snap.cost.polys_repacked == 0
        assert snap.cost.records_touched == 0


class TestTypedFailures:
    def test_wrong_record_size_rejected(self, params):
        vdb = VersionedDatabase(params, _records(8, size=32), 32)
        with pytest.raises(MutateError):
            vdb.apply(UpdateLog().put(0, b"short"))
        with pytest.raises(MutateError):
            vdb.apply(UpdateLog().append(b"also wrong"))

    def test_out_of_range_index_rejected(self, params):
        vdb = VersionedDatabase(params, _records(8, size=32), 32)
        with pytest.raises(MutateError):
            vdb.apply(UpdateLog().put(8, b"\x00" * 32))

    def test_appending_past_the_geometry_is_a_layout_error(self, params):
        # 32 polys x 16 records/poly = 512 record capacity at this geometry.
        records = _records(512, size=32)
        vdb = VersionedDatabase(params, records, 32)
        with pytest.raises(LayoutError):
            vdb.apply(UpdateLog().append(b"\x00" * 32))

    def test_failed_apply_leaves_current_epoch_intact(self, params):
        records = _records(8, size=32)
        vdb = VersionedDatabase(params, records, 32)
        with pytest.raises(MutateError):
            vdb.apply(UpdateLog().put(2, b"\xaa" * 32).put(99, b"\xbb" * 32))
        assert vdb.epoch == 0
        assert vdb.record(2) == records[2]
