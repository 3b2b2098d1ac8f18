"""Backend / reference-path equivalence and RowSel geometry guards.

The batched tensor hot path must be *byte-identical* to the per-poly
oracle — this is the tier-1 smoke that keeps any compute backend from
ever silently diverging (the full-size check also runs in
``benchmarks/bench_hotpath.py``).  ``REPRO_BACKEND`` selects the backend
under test so CI can run the whole file once per registered backend.
"""

import os

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.he.backend import DEFAULT_BACKEND, get_backend
from repro.he.batched import BfvCiphertextVec
from repro.he.poly import Domain, RingContext
from repro.obs.profile import profiled
from repro.pir.database import PirDatabase, PreprocessedDatabase
from repro.pir.expand import expand_query
from repro.pir.protocol import PirProtocol
from repro.pir.rowsel import num_rowsel_cols, row_select, rowsel_plane_tensor
from repro.pir.server import PirServer

#: Backend under test; CI sets REPRO_BACKEND=eager / =native.
BACKEND = os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)


@pytest.fixture(scope="module")
def pipeline(small_params):
    db = PirDatabase.random(small_params, num_records=24, record_bytes=96, seed=21)
    protocol = PirProtocol(small_params, db, seed=22, backend=BACKEND)
    return small_params, db, protocol


def _assert_responses_equal(fast, ref):
    assert len(fast.plane_cts) == len(ref.plane_cts)
    for f, r in zip(fast.plane_cts, ref.plane_cts):
        assert np.array_equal(f.a.residues, r.a.residues)
        assert np.array_equal(f.b.residues, r.b.residues)


class TestTranscriptEquality:
    def test_fast_answers_byte_identical_to_reference(self, pipeline):
        params, db, protocol = pipeline
        server = protocol.server
        assert server.backend is get_backend(BACKEND)
        for index in (0, 7, 23):
            query = protocol.client.build_query(index, db.layout)
            fast = server.answer(query)
            ref = server.answer_reference(query)
            _assert_responses_equal(fast, ref)
            assert protocol.client.decode_response(fast, index, db.layout) == (
                db.record(index)
            )

    def test_expand_query_batched_matches_reference(self, pipeline):
        """``backend.expand`` (the stacked tree) == per-poly ``expand_query``."""
        params, db, protocol = pipeline
        server = protocol.server
        query = protocol.client.build_query(3, db.layout)
        vec = get_backend(BACKEND).expand(
            query.packed, server.evks, server._levels, server.gadget
        )
        ref = expand_query(query.packed, server.evks, server._levels, server.gadget)
        assert vec.batch == len(ref) == params.d0
        for i, ct in enumerate(ref):
            assert np.array_equal(vec.a.residues[i], ct.a.residues)
            assert np.array_equal(vec.b.residues[i], ct.b.residues)

    def test_row_select_vec_matches_reference(self, pipeline):
        """``backend.rowsel`` over the plane tensor == per-poly ``row_select``."""
        params, db, protocol = pipeline
        server = protocol.server
        query = protocol.client.build_query(5, db.layout)
        ref_expanded = expand_query(
            query.packed, server.evks, server._levels, server.gadget
        )
        vec = BfvCiphertextVec.from_cts(ref_expanded)
        for plane in range(server.db.plane_count):
            ref = row_select(ref_expanded, server.db, plane)
            fast = get_backend(BACKEND).rowsel(
                vec, rowsel_plane_tensor(server.db, plane), server.ring._moduli_col
            ).cts()
            assert len(fast) == len(ref)
            for f, r in zip(fast, ref):
                assert np.array_equal(f.a.residues, r.a.residues)
                assert np.array_equal(f.b.residues, r.b.residues)

    def test_eager_server_byte_identical(self, pipeline):
        params, db, protocol = pipeline
        eager = PirServer(
            protocol.server.db, protocol.client.setup_message(), backend="eager"
        )
        query = protocol.client.build_query(9, db.layout)
        _assert_responses_equal(eager.answer(query), protocol.server.answer(query))


class TestClientDecode:
    def test_decode_inverts_through_the_default_backend(self, pipeline):
        """Decode is on the serving path: its inverse NTT is the backend's
        stacked kernel (one per response plane), not ``RnsPoly.to_coeff``."""
        params, db, protocol = pipeline
        response = protocol.server.answer(protocol.client.build_query(4, db.layout))
        with profiled() as profiler:
            record = protocol.client.decode_response(response, 4, db.layout)
        assert record == db.record(4)
        stage = profiler.stages[f"ntt_inv@{DEFAULT_BACKEND}"]
        assert stage.calls == len(response.plane_cts)


class TestRowselGeometryGuard:
    def _truncated_db(self, protocol) -> PreprocessedDatabase:
        """A preprocessed DB whose poly count is not a multiple of D0."""
        pre = protocol.server.db
        return PreprocessedDatabase(pre.layout, pre.ring, pre.tensor[:, :-1])

    def test_non_divisible_geometry_rejected(self, pipeline):
        params, db, protocol = pipeline
        bad = self._truncated_db(protocol)
        assert bad.num_polys % params.d0 != 0
        query = protocol.client.build_query(1, db.layout)
        expanded = expand_query(
            query.packed, protocol.server.evks, protocol.server._levels,
            protocol.server.gadget,
        )
        with pytest.raises(ParameterError, match="not a multiple of D0"):
            row_select(expanded, bad, 0)
        with pytest.raises(ParameterError, match="silently dropped"):
            rowsel_plane_tensor(bad, 0)

    def test_divisible_geometry_accepted(self, pipeline):
        params, db, protocol = pipeline
        assert num_rowsel_cols(protocol.server.db) == (
            protocol.server.db.num_polys // params.d0
        )


class TestPlaneTensorCache:
    def test_preprocess_seeds_cache_and_set_poly_keeps_it_coherent(self, small_params):
        db = PirDatabase.random(small_params, num_records=8, record_bytes=96, seed=5)
        ring = RingContext(small_params)
        pre = db.preprocess(ring)
        tensor = pre.plane_tensor(0)
        assert tensor.dtype == np.uint32
        assert tensor.shape == (pre.num_polys, ring.rns_count, ring.n)
        d0 = small_params.d0
        for i in range(pre.num_polys):
            assert np.array_equal(tensor[i], pre.poly(0, i % d0, i // d0).residues)
        replacement = ring.constant(41)
        pre.set_poly(0, 2, replacement)
        assert np.array_equal(pre.poly(0, 2, 0).residues, replacement.residues)
        assert np.array_equal(pre.plane_tensor(0)[2], replacement.residues)

    def test_lazy_stack_matches_per_poly_preprocess(self, small_params):
        db = PirDatabase.random(small_params, num_records=8, record_bytes=96, seed=6)
        ring = RingContext(small_params)
        pre = db.preprocess(ring)
        per_poly = [
            ring.from_small_coeffs(c, domain=Domain.NTT)
            for c in db.pack_block(0, range(pre.num_polys))
        ]
        assert np.array_equal(
            pre.plane_tensor(0), np.stack([p.residues for p in per_poly])
        )
        d0 = small_params.d0
        for i, want in enumerate(per_poly):
            got = pre.poly(0, i % d0, i // d0)
            assert got.residues.dtype == np.int64 and got.domain is Domain.NTT
            assert np.array_equal(got.residues, want.residues)

    def test_store_is_built_a_block_at_a_time(self, small_params, monkeypatch):
        """A budget of a few polynomials per NTT call changes nothing."""
        db = PirDatabase.random(small_params, num_records=40, record_bytes=96, seed=7)
        ring = RingContext(small_params)
        whole = db.preprocess(ring)
        monkeypatch.setattr(
            "repro.pir.database.BLOCK_BYTES", 3 * 8 * ring.rns_count * ring.n
        )
        assert np.array_equal(db.preprocess(ring).tensor, whole.tensor)
        assert whole.tensor.dtype == np.uint32
