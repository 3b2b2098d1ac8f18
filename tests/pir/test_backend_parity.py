"""Backend parity matrix: every backend, every serving mode, byte-identical.

The compute-backend contract (:mod:`repro.he.backend`) is that backends
differ only in *how* they compute — never in what.  For each serving
mode (plain PIR, batch PIR, keyword PIR, hint PIR) this runs one seeded
end-to-end query per registered backend and asserts the server-side
transcript equals the ``eager`` oracle's byte for byte, then that the
client decodes the right record.  A new backend registered later is
picked up automatically and held to the same bar.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.he.backend import backend_names, get_backend, resolve_backend
from repro.params import PirParams

BACKENDS = backend_names()
NON_EAGER = [name for name in BACKENDS if name != "eager"]


def _assert_ct_equal(fast, ref):
    assert np.array_equal(fast.a.residues, ref.a.residues)
    assert np.array_equal(fast.b.residues, ref.b.residues)


def _assert_pir_responses_equal(fast, ref):
    assert len(fast.plane_cts) == len(ref.plane_cts)
    for f, r in zip(fast.plane_cts, ref.plane_cts):
        _assert_ct_equal(f, r)


class TestRegistry:
    def test_both_builtin_backends_registered(self):
        assert set(BACKENDS) == {"eager", "native"}

    def test_unknown_backend_is_a_typed_error_listing_the_registry(self):
        with pytest.raises(ParameterError, match="unknown compute backend"):
            get_backend("warp-drive")
        with pytest.raises(ParameterError, match=", ".join(BACKENDS)):
            get_backend("warp-drive")

    def test_resolve_accepts_names_instances_and_none(self):
        eager = get_backend("eager")
        assert resolve_backend("eager") is eager
        assert resolve_backend(eager) is eager
        assert resolve_backend(None).name in BACKENDS


@pytest.mark.parametrize("backend", NON_EAGER)
class TestParityMatrix:
    def test_plain_pir(self, small_params, backend):
        from repro.pir.database import PirDatabase
        from repro.pir.protocol import PirProtocol

        db = PirDatabase.random(
            small_params, num_records=24, record_bytes=96, seed=31
        )
        oracle = PirProtocol(small_params, db, seed=32, backend="eager")
        under_test = PirProtocol(small_params, db, seed=32, backend=backend)
        for index in (0, 11, 23):
            query = oracle.client.build_query(index, db.layout)
            ref = oracle.server.answer(query)
            fast = under_test.server.answer(query)
            _assert_pir_responses_equal(fast, ref)
            assert under_test.client.decode_response(
                fast, index, db.layout
            ) == db.record(index)

    def test_plain_pir_at_paper_ring_degree(self, backend):
        """N = 2^12: the four-step NTT plan and NTT-domain Subs end to end."""
        from repro.pir.database import PirDatabase
        from repro.pir.protocol import PirProtocol
        from repro.pir.server import PirServer

        params = PirParams.functional(d0=16, num_dims=2)
        db = PirDatabase.random(
            params, num_records=params.num_db_polys, record_bytes=256, seed=36
        )
        under_test = PirProtocol(params, db, seed=37, backend=backend)
        oracle = PirServer(
            under_test.server.db, under_test.client.setup_message(),
            backend="eager",
        )
        for index in (0, params.num_db_polys - 1):
            query = under_test.client.build_query(index, db.layout)
            fast = under_test.server.answer(query)
            _assert_pir_responses_equal(fast, oracle.answer(query))
            assert under_test.client.decode_response(
                fast, index, db.layout
            ) == db.record(index)

    def test_batchpir(self, backend):
        from repro.batchpir import BatchPirProtocol

        params = PirParams.small(n=256, d0=8, num_dims=2)
        rng = np.random.default_rng(33)
        records = [rng.bytes(24) for _ in range(256)]
        oracle = BatchPirProtocol(
            params, records, max_batch=8, seed=33, backend="eager"
        )
        under_test = BatchPirProtocol(
            params, records, max_batch=8, seed=33, backend=backend
        )
        indices = [0, 17, 101, 255]
        plan = oracle.client.plan(indices)
        query = oracle.client.build_queries(plan)
        ref = oracle.server.answer(query)
        fast = under_test.server.answer(query)
        assert len(fast.rounds) == len(ref.rounds)
        for fast_round, ref_round in zip(fast.rounds, ref.rounds):
            for f, r in zip(fast_round, ref_round):
                _assert_pir_responses_equal(f, r)
        decoded = oracle.client.decode(plan, fast)
        for g in indices:
            assert decoded[g] == records[g]

    def test_kvpir(self, backend):
        from repro.kvpir import KvPirProtocol

        params = PirParams.small(n=256, d0=8, num_dims=2)
        items = {
            f"user-{i:05d}".encode(): i.to_bytes(4, "big") * 3 for i in range(48)
        }
        oracle = KvPirProtocol(
            params, items, max_lookup_batch=4, seed=34, backend="eager"
        )
        under_test = KvPirProtocol(
            params, items, max_lookup_batch=4, seed=34, backend=backend
        )
        keys = list(items)[:3]
        plan = oracle.client.plan(keys)
        query = oracle.client.build_queries(plan)
        ref = oracle.server.answer(query)
        fast = under_test.server.answer(query)
        assert len(fast.chunks) == len(ref.chunks)
        for fast_chunk, ref_chunk in zip(fast.chunks, ref.chunks):
            for fast_round, ref_round in zip(fast_chunk.rounds, ref_chunk.rounds):
                for f, r in zip(fast_round, ref_round):
                    _assert_pir_responses_equal(f, r)
        values = oracle.client.decode(plan, fast)
        for key in keys:
            assert values[key] == items[key]

    def test_hintpir(self, backend):
        from repro.hintpir.protocol import HintPirProtocol
        from repro.pir.simplepir import SimplePirParams

        lwe = SimplePirParams(lwe_dim=64)
        rng = np.random.default_rng(35)
        records = [rng.bytes(24) for _ in range(32)]
        oracle = HintPirProtocol(records, 24, lwe, seed=35, backend="eager")
        under_test = HintPirProtocol(records, 24, lwe, seed=35, backend=backend)
        assert np.array_equal(oracle.server.hint(), under_test.server.hint())
        for index in (0, 15, 31):
            query = oracle.client.build_query(index)
            ref = oracle.server.answer(query)
            fast = under_test.server.answer(query)
            assert np.array_equal(fast.vector, ref.vector)
            assert oracle.client.decode(query, fast) == records[index]
