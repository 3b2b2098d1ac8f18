"""Record layout, packing roundtrips, database preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.he.poly import Domain, RingContext
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.layout import RecordLayout


class TestLayoutGeometry:
    def test_single_record_per_poly(self, small_params):
        lay = RecordLayout(small_params, record_bytes=512, num_records=16)
        assert lay.coeff_bytes == 2
        assert lay.poly_capacity_bytes == 512
        assert lay.plane_count == 1
        assert lay.records_per_poly == 1
        assert lay.poly_index(7) == 7

    def test_packed_small_records(self, small_params):
        lay = RecordLayout(small_params, record_bytes=64, num_records=32)
        assert lay.records_per_poly == 8
        assert lay.poly_index(0) == 0
        assert lay.poly_index(7) == 0
        assert lay.poly_index(8) == 1
        assert lay.slot_offset_bytes(9) == 64

    def test_striped_large_records(self, small_params):
        lay = RecordLayout(small_params, record_bytes=1200, num_records=8)
        assert lay.plane_count == 3
        assert lay.records_per_poly == 1
        assert lay.bytes_per_plane_poly == 400

    def test_capacity_overflow_rejected(self, small_params):
        # small_params: D = 8 * 2^2 = 32 polys
        with pytest.raises(LayoutError):
            RecordLayout(small_params, record_bytes=512, num_records=33)

    def test_invalid_sizes_rejected(self, small_params):
        with pytest.raises(LayoutError):
            RecordLayout(small_params, record_bytes=0, num_records=4)
        with pytest.raises(LayoutError):
            RecordLayout(small_params, record_bytes=16, num_records=0)

    def test_index_bounds(self, small_params):
        lay = RecordLayout(small_params, record_bytes=512, num_records=16)
        with pytest.raises(LayoutError):
            lay.poly_index(16)
        with pytest.raises(LayoutError):
            lay.poly_index(-1)

    def test_dimension_indices(self, small_params):
        lay = RecordLayout(small_params, record_bytes=512, num_records=32)
        row, bits = lay.dimension_indices(0)
        assert (row, bits) == (0, [0, 0])
        row, bits = lay.dimension_indices(9)  # poly 9 = col 1, row 1
        assert (row, bits) == (1, [1, 0])
        row, bits = lay.dimension_indices(31)  # poly 31 = col 3, row 7
        assert (row, bits) == (7, [1, 1])


class TestPacking:
    def test_pack_unpack_roundtrip(self, small_params):
        lay = RecordLayout(small_params, record_bytes=512, num_records=4)
        rng = np.random.default_rng(0)
        data = rng.bytes(512)
        (coeffs,) = lay.pack_polys([data])
        assert coeffs.max() < small_params.plain_modulus
        assert lay.unpack_poly(coeffs, 512) == data

    def test_pack_partial_poly_pads_zero(self, small_params):
        lay = RecordLayout(small_params, record_bytes=100, num_records=4)
        (coeffs,) = lay.pack_polys([b"\xff" * 100])
        assert lay.unpack_poly(coeffs, 100) == b"\xff" * 100
        assert np.all(coeffs[50:] == 0)

    def test_pack_too_large_rejected(self, small_params):
        lay = RecordLayout(small_params, record_bytes=512, num_records=4)
        with pytest.raises(LayoutError):
            lay.pack_polys([b"\0" * 513])

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=512))
    def test_pack_roundtrip_property(self, data):
        lay = RecordLayout(
            PirParams.small(n=256, d0=8, num_dims=2), record_bytes=512, num_records=4
        )
        (coeffs,) = lay.pack_polys([data])
        assert lay.unpack_poly(coeffs, len(data)) == data

    @settings(max_examples=25, deadline=None)
    @given(
        blobs=st.lists(st.binary(min_size=0, max_size=512), min_size=0, max_size=6)
    )
    def test_vectorized_pack_is_byte_identical_to_reference(self, blobs):
        """The np.frombuffer fast path must match the per-coefficient loop
        bit for bit — the invariant the delta re-packer leans on."""
        lay = RecordLayout(
            PirParams.small(n=256, d0=8, num_dims=2), record_bytes=512, num_records=4
        )
        vectorized = lay.pack_polys(blobs)
        reference = [lay._pack_poly_scalar(b) for b in blobs]
        assert vectorized.shape == (len(blobs), lay.params.n)
        assert vectorized.dtype == np.int64
        for got, want in zip(vectorized, reference):
            assert np.array_equal(got, want)

    def test_vectorized_pack_across_coeff_widths(self):
        """Byte-identical packing at 1-, 2-, 3-, and 4-byte coefficients."""
        rng = np.random.default_rng(9)
        for plain in (1 << 12, 65537, 1 << 33, 1 << 35):
            params = PirParams.small(n=256, d0=8, num_dims=2, plain_modulus=plain)
            cap = params.n * (params.payload_bits_per_coeff // 8)
            lay = RecordLayout(params, record_bytes=cap, num_records=2)
            blob = rng.bytes(cap)
            assert np.array_equal(lay.pack_polys([blob])[0], lay._pack_poly_scalar(blob))

    def test_database_pack_matches_per_record_reference(self, small_params):
        """Whole-database vectorized packing (packed AND striped layouts)
        equals a record-by-record reference build."""
        rng = np.random.default_rng(10)
        for record_bytes, num in ((64, 24), (1200, 6)):  # 8/poly and 3 planes
            records = [rng.bytes(record_bytes) for _ in range(num)]
            db = PirDatabase.from_records(records, small_params, record_bytes)
            lay = db.layout
            want = np.zeros_like(db.planes)
            if lay.plane_count == 1:
                for poly in range(lay.polys_needed):
                    start = poly * lay.records_per_poly
                    chunk = b"".join(records[start : start + lay.records_per_poly])
                    want[0, poly] = lay._pack_poly_scalar(chunk)
            else:
                size = lay.bytes_per_plane_poly
                for idx, record in enumerate(records):
                    for plane in range(lay.plane_count):
                        chunk = record[plane * size : (plane + 1) * size]
                        want[plane, lay.poly_index(idx)] = lay._pack_poly_scalar(chunk)
            assert np.array_equal(db.planes, want)


class TestDatabase:
    def test_random_db_records_accessible(self, small_params):
        db = PirDatabase.random(small_params, num_records=16, record_bytes=128, seed=3)
        assert db.num_records == 16
        assert len(db.record(5)) == 128
        assert db.raw_bytes == 16 * 128

    def test_mismatched_record_sizes_rejected(self, small_params):
        with pytest.raises(LayoutError):
            PirDatabase.from_records([b"ab", b"a"], small_params)

    def test_empty_db_rejected(self, small_params):
        with pytest.raises(LayoutError):
            PirDatabase.from_records([], small_params)

    def test_preprocess_shape_and_expansion(self, small_params):
        db = PirDatabase.random(small_params, num_records=8, record_bytes=512, seed=4)
        ring = RingContext(small_params)
        pre = db.preprocess(ring)
        assert pre.plane_count == 1
        assert pre.num_polys == small_params.num_db_polys
        # Preprocessed form stores RNS residues: logQ/logP blowup.
        assert pre.tensor.nbytes > db.raw_bytes
        ratio = small_params.db_expansion_ratio
        assert ratio == pytest.approx(
            small_params.poly_bytes / small_params.plain_poly_bytes
        )  # the paper-parameter bound (< 3.5x) is checked in test_paper_sizes

    def test_preprocessed_poly_indexing(self, small_params):
        db = PirDatabase.random(small_params, num_records=32, record_bytes=512, seed=5)
        ring = RingContext(small_params)
        pre = db.preprocess(ring)
        d0 = small_params.d0
        poly = pre.poly(0, 3, 1)
        assert poly.domain is Domain.NTT and poly.residues.dtype == np.int64
        assert np.array_equal(poly.residues, pre.plane_tensor(0)[1 * d0 + 3])

    def test_paper_sizes_match_table(self):
        """Table I / Section II sizes: ct 112 KB, RGSW 1120 KB, evk 560 KB."""
        params = PirParams.paper()
        assert params.poly_bytes == 56 * 1024
        assert params.ct_bytes == 112 * 1024
        assert params.rgsw_bytes == 1120 * 1024
        assert params.evk_bytes == 560 * 1024
        assert params.plain_poly_bytes == 16 * 1024
        assert params.db_expansion_ratio == 3.5
