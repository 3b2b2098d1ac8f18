"""Naive one-hot PIR (Section II-A) and its communication blow-up."""

import pytest

from repro.errors import LayoutError
from repro.params import PirParams
from repro.pir.database import PirDatabase
from repro.pir.naive import NaiveOneHotPir, query_size_ratio
from repro.pir.protocol import PirProtocol


@pytest.fixture(scope="module")
def naive_setup():
    # D = 64 polynomials: large enough that the one-hot query's D
    # ciphertexts dwarf the packed query's single ct + 2 RGSW bits.
    params = PirParams.small(n=128, d0=16, num_dims=2)
    db = PirDatabase.random(params, num_records=64, record_bytes=64, seed=41)
    return params, db, NaiveOneHotPir(params, db, seed=42)


class TestNaivePir:
    def test_retrieves_correct_record(self, naive_setup):
        params, db, pir = naive_setup
        for index in (0, 7, 15):
            assert pir.retrieve(index) == db.record(index)

    def test_query_is_one_hot_sized(self, naive_setup):
        params, db, pir = naive_setup
        query = pir.build_query(3)
        assert len(query.cts) == params.num_db_polys
        assert query.size_bytes(params) == params.num_db_polys * params.ct_bytes

    def test_wrong_query_length_rejected(self, naive_setup):
        params, db, pir = naive_setup
        query = pir.build_query(0)
        query.cts.pop()
        with pytest.raises(LayoutError):
            pir.answer(query)

    def test_noise_stays_low(self, naive_setup):
        """A single Eq. 1 pass adds only plaintext-product noise."""
        params, db, pir = naive_setup
        response = pir.answer(pir.build_query(5))
        assert pir.bfv.noise_budget_bits(response, pir.secret_key) > 10

    def test_multi_plane_rejected(self):
        params = PirParams.small(n=128, d0=4, num_dims=1)
        db = PirDatabase.random(params, num_records=8, record_bytes=600, seed=43)
        assert db.layout.plane_count > 1
        with pytest.raises(LayoutError):
            NaiveOneHotPir(params, db)


class TestCommunicationBlowUp:
    """Section II-A: packing cuts the query from D cts to one ct (+ bits)."""

    def test_packed_query_is_much_smaller(self, naive_setup):
        params, db, pir = naive_setup
        protocol = PirProtocol(params, db, seed=44)
        naive_bytes = pir.build_query(3).size_bytes(params)
        packed_bytes = protocol.client.build_query(3, db.layout).size_bytes(params)
        assert naive_bytes > 1.3 * packed_bytes
        # The packed query travels seeded (its b rows and a 32-byte seed),
        # so the modelled ratio of full ciphertexts is a lower bound and the
        # b rows are exactly half the modelled packed query.
        assert naive_bytes / packed_bytes > query_size_ratio(params)
        assert naive_bytes / (2 * (packed_bytes - 32)) == pytest.approx(
            query_size_ratio(params), rel=1e-6
        )

    def test_ratio_grows_with_db(self):
        """The naive query scales with D; the packed query with log D."""
        small = query_size_ratio(PirParams.small(n=256, d0=8, num_dims=2))
        large = query_size_ratio(PirParams.small(n=256, d0=8, num_dims=5))
        assert large > 2 * small

    def test_paper_scale_ratio(self):
        """At Table I scale the naive query would be ~3 GB more upload."""
        params = PirParams.paper(d0=256, num_dims=9)  # 2 GB DB
        ratio = query_size_ratio(params)
        assert ratio > 1000  # 2^17 ciphertexts vs 1 ct + 9 RGSW

    def test_same_answer_as_full_protocol(self, naive_setup):
        """Both constructions retrieve the same record."""
        params, db, pir = naive_setup
        protocol = PirProtocol(params, db, seed=45)
        for index in (2, 9):
            assert pir.retrieve(index) == protocol.retrieve(index).record
