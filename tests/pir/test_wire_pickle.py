"""Pickle round-trips of the wire messages, and what a serialised one holds.

Every query, response, setup and request type must survive pickling and
answer byte-identically afterwards, without duplicating the heavyweight
ring state: ``RingContext.__reduce__`` re-attaches unpickled polynomials
to the process-local interned context for their parameter set (see
``repro.he.poly``).  ``TestSeededTraffic`` is the executable check that a
serialised query or setup holds just its seed and ``b`` rows, which is
what ``size_bytes`` (and the benchmark's byte metrics) count.
"""

import io
import pickle

import numpy as np
import pytest

from repro.he.poly import RingContext
from repro.pir.database import PirDatabase
from repro.pir.protocol import PirProtocol


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.fixture(scope="module")
def proto(small_params):
    db = PirDatabase.random(small_params, num_records=16, record_bytes=48, seed=51)
    return PirProtocol(small_params, db, seed=52), db


class TestRingContextInterning:
    def test_shared_is_one_object_per_params(self, small_params):
        assert RingContext.shared(small_params) is RingContext.shared(small_params)

    def test_unpickled_context_is_the_interned_one(self, small_params):
        private = RingContext(small_params)  # deliberately not interned
        assert private is not RingContext.shared(small_params)
        assert roundtrip(private) is RingContext.shared(small_params)

    def test_independently_unpickled_cts_share_one_context(self, proto):
        protocol, db = proto
        q1 = roundtrip(protocol.client.build_query(1, db.layout))
        q2 = roundtrip(protocol.client.build_query(2, db.layout))
        assert q1.packed.a.ctx is q2.packed.a.ctx
        assert q1.selection_bits[0].a_rows[0].ctx is q1.packed.a.ctx


class TestQueryResponseRoundTrip:
    def test_pir_query_answers_byte_identical_after_roundtrip(self, proto):
        protocol, db = proto
        index = 7
        query = protocol.client.build_query(index, db.layout)
        back = roundtrip(query)
        np.testing.assert_array_equal(
            back.packed.a.residues, query.packed.a.residues
        )
        assert len(back.selection_bits) == len(query.selection_bits)
        direct = protocol.server.answer(query)
        via_pickle = protocol.server.answer(back)
        record = protocol.client.decode_response(via_pickle, index, db.layout)
        assert record == db.record(index)
        assert record == protocol.client.decode_response(direct, index, db.layout)

    def test_pir_response_roundtrip_decodes(self, proto):
        protocol, db = proto
        index = 3
        query = protocol.client.build_query(index, db.layout)
        response = roundtrip(protocol.server.answer(query))
        record = protocol.client.decode_response(response, index, db.layout)
        assert record == db.record(index)

    def test_client_setup_roundtrip(self, proto):
        """Evaluation keys travel once per client and answer after the trip."""
        protocol, db = proto
        setup = roundtrip(protocol.client.setup_message())
        assert set(setup.evks) == set(protocol.client.setup_message().evks)
        from repro.pir.server import PirServer

        pre = db.preprocess(protocol.client.ring)
        server = PirServer(pre, setup)
        query = protocol.client.build_query(5, db.layout)
        response = server.answer(query)
        assert protocol.client.decode_response(response, 5, db.layout) == db.record(5)


class TestServeRequestRoundTrip:
    def test_keyword_request_roundtrip(self):
        from repro.serve.registry import ServeRequest

        request = ServeRequest(
            global_index=0, shard_id=1, local_index=4, key=b"user:42", epoch=3
        )
        assert roundtrip(request) == request


class TestBatchKvRoundTrip:
    def test_batch_query_response_roundtrip(self, small_params):
        from repro.batchpir import BatchPirProtocol

        rng = np.random.default_rng(11)
        records = [rng.bytes(32) for _ in range(32)]
        protocol = BatchPirProtocol(
            small_params, records, max_batch=4, record_bytes=32,
            hash_seed=1, seed=2,
        )
        wanted = [1, 9, 17]
        plan = protocol.client.plan(wanted)
        query = roundtrip(protocol.client.build_queries(plan))
        response = roundtrip(protocol.server.answer(query))
        values = protocol.client.decode(plan, response)
        assert {g: values[g] for g in wanted} == {g: records[g] for g in wanted}

    def test_kv_query_response_roundtrip(self, small_params):
        from repro.kvpir import KvPirProtocol
        from repro.kvpir.layout import random_items

        items = random_items(24, 16, seed=3)
        protocol = KvPirProtocol(
            small_params, items, max_lookup_batch=4, hash_seed=4, seed=5
        )
        keys = list(items)[:3]
        plan = protocol.client.plan(keys)
        query = roundtrip(protocol.client.build_queries(plan))
        response = roundtrip(protocol.server.answer(query))
        values = protocol.client.decode(plan, response)
        assert values == {k: items[k] for k in keys}


class _Recorder(pickle.Pickler):
    """A pickler that notes every array it serialises."""

    def __init__(self, file):
        super().__init__(file)
        self.arrays = []

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays.append(obj)
        return NotImplemented


def pickled_arrays(obj) -> list[np.ndarray]:
    recorder = _Recorder(io.BytesIO())
    recorder.dump(obj)
    return recorder.arrays


class TestSeededTraffic:
    """What a serialised upload carries is its 32-byte seed and its
    ``b`` rows: no ``a`` half can be reached from a pickled message, and
    ``size_bytes`` counts exactly what the message holds."""

    def test_a_pickled_query_holds_its_b_rows_and_seed_only(self, proto):
        protocol, db = proto
        params = protocol.params
        query = protocol.client.build_query(7, db.layout)
        (array,) = pickled_arrays(query)
        assert array is query.b
        assert len(query.seed) == 32
        # The buffer behind b is b alone: no a half of the client's
        # encryption tensor rides along (one query is one block).
        owner = query.b if query.b.base is None else query.b.base
        assert owner.nbytes == query.b.nbytes
        np.testing.assert_array_equal(query.packed.b.residues, array[0])
        assert len(query.b) == 1 + params.num_dims * 2 * params.gadget_len
        assert query.size_bytes(params) == len(query.b) * params.poly_bytes + 32
        back = roundtrip(query)
        assert back.seed == query.seed
        np.testing.assert_array_equal(back.packed.a.residues, query.packed.a.residues)

    def test_a_query_expands_its_a_rows_once_and_never_ships_them(self, proto, monkeypatch):
        """``packed`` and ``selection_bits`` share one expansion per seed;
        the ``b`` they carry is the live message, and the kept ``a`` rows
        stay out of the pickle."""
        import repro.pir.client as client_module

        protocol, db = proto
        query = protocol.client.build_query(5, db.layout)
        calls = []
        expand = client_module.expand_a
        monkeypatch.setattr(
            client_module, "expand_a", lambda *args, **kw: calls.append(1) or expand(*args, **kw)
        )
        a = query.packed.a.residues
        bits = query.selection_bits
        assert query.selection_bits[0].rows[0].tobytes() == bits[0].rows[0].tobytes()
        assert len(calls) == 1
        assert not a.flags.writeable
        (array,) = pickled_arrays(query)
        assert array is query.b
        query.b[0, 0, 0] = (query.b[0, 0, 0] + 1) % protocol.params.moduli[0]
        assert query.packed.b.residues[0, 0] == query.b[0, 0, 0]
        assert len(calls) == 1
        query.seed = bytes(32)
        assert query.packed.a.residues.tobytes() != a.tobytes()
        assert len(calls) == 2

    def test_b_half_copies_while_a_view_of_the_tensor_is_alive(self):
        from repro.pir.client import b_half

        rows = np.arange(2 * 3 * 2 * 4, dtype=np.int64).reshape(2, 3, 2, 4).copy()
        b = rows[1].copy()
        view = rows[1]
        out = b_half(rows)
        assert out is not rows and rows.shape == (2, 3, 2, 4)
        np.testing.assert_array_equal(out, b)
        np.testing.assert_array_equal(view, b)

    def test_a_pickled_setup_holds_its_b_rows_and_seed_only(self, proto):
        protocol, _ = proto
        params = protocol.params
        setup = protocol.client.setup_message()
        keys = setup.evks  # expanded once and kept, but never pickled
        assert setup.evks is keys
        (array,) = pickled_arrays(setup)
        assert array is setup.b
        assert setup.b.base is None
        assert len(setup.b) == params.num_evks * params.gadget_len
        assert setup.size_bytes(params) == len(setup.b) * params.poly_bytes + 32
        for key in keys.values():
            assert not np.shares_memory(key.rows, setup.b)
        back = roundtrip(setup)
        for r, key in back.evks.items():
            np.testing.assert_array_equal(key.rows, keys[r].rows)

    def test_batch_and_keyword_passes_are_seeded_queries(self, small_params):
        from repro.kvpir import KvPirProtocol
        from repro.kvpir.layout import random_items

        items = random_items(24, 16, seed=3)
        protocol = KvPirProtocol(
            small_params, items, max_lookup_batch=4, hash_seed=4, seed=5
        )
        query = protocol.client.build_queries(protocol.client.plan(list(items)[:3]))
        bucket_queries = [q for chunk in query.chunks for rnd in chunk.rounds for q in rnd]
        arrays = pickled_arrays(query)
        assert len(arrays) == len(bucket_queries)
        assert all(a is q.b for a, q in zip(arrays, bucket_queries))

    def test_modelled_sizes_stay_the_papers(self):
        """The performance models size full ciphertexts, as the paper does."""
        from repro.params import PirParams
        from repro.systems.scale_up import ScaleUpSystem

        paper = PirParams.paper()
        assert (paper.ct_bytes, paper.rgsw_bytes, paper.evk_bytes) == (
            114688, 1146880, 573440
        )
        assert ScaleUpSystem(PirParams.paper(256, 9)).qps(64) == 4433.379517325558
        assert ScaleUpSystem(PirParams.paper(256, 13)).qps(64) == 203.0943965939152
