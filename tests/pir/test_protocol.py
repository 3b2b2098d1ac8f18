"""End-to-end PIR: the headline correctness property of the whole stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.protocol import PirProtocol


@pytest.fixture(scope="module")
def session(small_params):
    db = PirDatabase.random(small_params, num_records=32, record_bytes=512, seed=11)
    return PirProtocol(small_params, db, seed=42), db


class TestEndToEnd:
    def test_retrieves_correct_record(self, session):
        protocol, db = session
        for index in (0, 1, 9, 31):
            result = protocol.retrieve(index)
            assert result.record == db.record(index)

    def test_all_indices_random_sample(self, session):
        protocol, db = session
        rng = np.random.default_rng(0)
        for index in rng.choice(32, size=4, replace=False):
            assert protocol.retrieve(int(index)).record == db.record(int(index))

    def test_batch_retrieval(self, session):
        protocol, db = session
        indices = [3, 17, 3, 28]
        queries = [protocol.client.build_query(i, db.layout) for i in indices]
        responses = protocol.server.answer_batch(queries)
        for idx, resp in zip(indices, responses):
            assert protocol.client.decode_response(resp, idx, db.layout) == db.record(idx)

    def test_transcript_accounting(self, small_params):
        db = PirDatabase.random(small_params, num_records=8, record_bytes=64, seed=1)
        protocol = PirProtocol(small_params, db, seed=7)
        # Uploads are one 32-byte seed plus their b rows: half of each
        # modelled evk / ciphertext / RGSW size, and the seed.
        assert protocol.transcript.setup_bytes == (
            small_params.num_evks * small_params.evk_bytes // 2 + 32
        )
        protocol.retrieve(2)
        t = protocol.transcript
        assert t.queries_served == 1
        expected_query = (
            small_params.ct_bytes + small_params.num_dims * small_params.rgsw_bytes
        ) // 2 + 32
        assert t.query_bytes == expected_query
        assert t.response_bytes == small_params.ct_bytes


class TestVariantGeometries:
    def test_power_of_two_plaintext(self, pow2_params):
        """Table I style P = 2^16: payload headroom absorbs the D0 factor."""
        db = PirDatabase.random(pow2_params, num_records=16, record_bytes=96, seed=2)
        protocol = PirProtocol(pow2_params, db, seed=3)
        for index in (0, 5, 15):
            assert protocol.retrieve(index).record == db.record(index)

    def test_single_dimension_no_coltor(self):
        params = PirParams.small(n=256, d0=8, num_dims=0)
        db = PirDatabase.random(params, num_records=8, record_bytes=128, seed=4)
        protocol = PirProtocol(params, db, seed=5)
        for index in (0, 7):
            assert protocol.retrieve(index).record == db.record(index)

    def test_deep_coltor_tree(self):
        params = PirParams.small(n=256, d0=4, num_dims=3)
        db = PirDatabase.random(params, num_records=32, record_bytes=64, seed=6)
        protocol = PirProtocol(params, db, seed=7)
        for index in (0, 13, 31):
            assert protocol.retrieve(index).record == db.record(index)

    def test_packed_small_records(self, small_params):
        """Several records share one polynomial; offsets must resolve."""
        db = PirDatabase.random(small_params, num_records=20, record_bytes=100, seed=8)
        protocol = PirProtocol(small_params, db, seed=9)
        for index in (0, 4, 5, 19):
            assert protocol.retrieve(index).record == db.record(index)

    def test_striped_large_records(self):
        """A record larger than one polynomial spans multiple planes."""
        params = PirParams.small(n=128, d0=4, num_dims=1)
        db = PirDatabase.random(params, num_records=8, record_bytes=600, seed=10)
        protocol = PirProtocol(params, db, seed=11)
        result = protocol.retrieve(3)
        assert result.record == db.record(3)
        assert len(result.response.plane_cts) == db.layout.plane_count
        assert db.layout.plane_count > 1

    def test_wrong_bit_count_rejected(self, session):
        protocol, _ = session
        query = protocol.client.build_query(0, protocol.db.layout)
        query.b = query.b[:-2 * protocol.params.gadget_len]  # the last bit's rows
        with pytest.raises(ParameterError):
            protocol.server.answer(query)


class TestPrivacyShape:
    def test_queries_for_different_indices_have_same_size(self, session):
        protocol, _ = session
        params = protocol.params
        sizes = {
            protocol.client.build_query(i, protocol.db.layout).size_bytes(params)
            for i in (0, 13, 31)
        }
        assert len(sizes) == 1

    def test_query_ciphertexts_differ_between_builds(self, session):
        """Fresh encryption randomness: two queries for the same index differ."""
        protocol, _ = session
        q1 = protocol.client.build_query(5, protocol.db.layout)
        q2 = protocol.client.build_query(5, protocol.db.layout)
        assert q1.seed != q2.seed
        assert not np.array_equal(q1.packed.a.residues, q2.packed.a.residues)
        assert not np.array_equal(q1.b, q2.b)


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=0, max_value=15))
def test_retrieval_property(index):
    params = PirParams.small(n=128, d0=4, num_dims=2)
    db = PirDatabase.random(params, num_records=16, record_bytes=32, seed=99)
    protocol = PirProtocol(params, db, seed=100)
    assert protocol.retrieve(index).record == db.record(index)
