"""SimplePIR functional baseline (Table IV substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError, ParameterError
from repro.pir.simplepir import (
    SimplePirClient,
    SimplePirParams,
    SimplePirServer,
    modular_gemm,
)


@pytest.fixture(scope="module")
def setup():
    params = SimplePirParams(lwe_dim=128)
    rng = np.random.default_rng(0)
    db = rng.integers(0, params.p, size=(32, 32), dtype=np.int64)
    server = SimplePirServer(db, params, seed=1)
    client = SimplePirClient(server, seed=2)
    return db, server, client


class TestSimplePir:
    def test_retrieves_entries(self, setup):
        db, server, client = setup
        for row, col in ((0, 0), (5, 9), (31, 31), (12, 0)):
            query, secret = client.build_query(col)
            answer = server.answer(query)
            assert client.recover(answer, secret, row) == db[row, col]

    def test_whole_column_recoverable(self, setup):
        """One query yields every row of the column — SimplePIR's rate."""
        db, server, client = setup
        query, secret = client.build_query(7)
        answer = server.answer(query)
        for row in range(db.shape[0]):
            assert client.recover(answer, secret, row) == db[row, 7]

    def test_query_size_independent_of_target(self, setup):
        _, server, client = setup
        q1, _ = client.build_query(0)
        q2, _ = client.build_query(31)
        assert q1.shape == q2.shape

    def test_bad_column_rejected(self, setup):
        _, _, client = setup
        with pytest.raises(LayoutError):
            client.build_query(32)

    def test_bad_query_shape_rejected(self, setup):
        _, server, _ = setup
        with pytest.raises(LayoutError):
            server.answer(np.zeros(5, dtype=np.int64))

    def test_oversized_entries_rejected(self):
        params = SimplePirParams()
        with pytest.raises(LayoutError):
            SimplePirServer(np.full((4, 4), params.p, dtype=np.int64), params)

    def test_non_matrix_rejected(self):
        params = SimplePirParams()
        with pytest.raises(LayoutError):
            SimplePirServer(np.zeros(16, dtype=np.int64), params)

    def test_overflow_guard(self):
        with pytest.raises(ParameterError):
            SimplePirParams(q_log2=40, p_log2=24)


class TestAnswerBatch:
    def test_byte_identical_to_per_query_loop(self, setup):
        """The vectorized window (one DB @ Q GEMM) must be bit-for-bit the
        looped per-query path — chunked accumulation is exact mod q."""
        db, server, client = setup
        queries = [client.build_query(col)[0] for col in (0, 7, 31, 7, 15)]
        stacked = np.stack(queries, axis=1)
        batched = server.answer_batch(stacked)
        assert batched.shape == (db.shape[0], len(queries))
        for j, query in enumerate(queries):
            assert batched[:, j].tobytes() == server.answer(query).tobytes()

    def test_batch_of_one_matches_single(self, setup):
        _, server, client = setup
        query, _ = client.build_query(3)
        assert np.array_equal(server.answer_batch(query[:, None])[:, 0],
                              server.answer(query))

    def test_rejects_wrong_shapes(self, setup):
        _, server, _ = setup
        with pytest.raises(LayoutError):
            server.answer_batch(np.zeros((5, 2), dtype=np.int64))
        with pytest.raises(LayoutError):
            server.answer_batch(np.zeros(32, dtype=np.int64))


class TestModularGemm:
    @settings(max_examples=40, deadline=None)
    @given(
        q_log2=st.integers(min_value=2, max_value=62),
        inner=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_arbitrary_precision(self, q_log2, inner, seed):
        """Chunked int64 accumulation == exact bignum arithmetic, including
        regimes where a single product term would overflow int64."""
        q = 1 << q_log2
        rng = np.random.default_rng(seed)
        a = rng.integers(0, q, size=(3, inner), dtype=np.int64)
        b = rng.integers(0, q, size=(inner, 2), dtype=np.int64)
        exact = (a.astype(object) @ b.astype(object)) % q
        assert np.array_equal(modular_gemm(a, b, q), exact.astype(np.int64))

    def test_signed_delta_operands(self):
        q = 1 << 28
        rng = np.random.default_rng(0)
        a = rng.integers(-255, 256, size=(4, 20), dtype=np.int64)
        b = rng.integers(0, q, size=(20, 4), dtype=np.int64)
        exact = (a.astype(object) @ b.astype(object)) % q
        assert np.array_equal(modular_gemm(a, b, q), exact.astype(np.int64))

    def test_empty_inner_dimension(self):
        out = modular_gemm(np.zeros((3, 0), dtype=np.int64),
                           np.zeros((0, 2), dtype=np.int64), 1 << 20)
        assert out.shape == (3, 2) and not out.any()


class TestAdversarialDecode:
    """Decode correctness at parameter corners (satellite: hypothesis
    sweep near the int64 accumulation bound and degenerate layouts)."""

    @settings(max_examples=25, deadline=None)
    @given(
        q_log2=st.integers(min_value=45, max_value=51),
        p_log2=st.integers(min_value=4, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_near_int64_bound(self, q_log2, p_log2, seed):
        params = SimplePirParams(lwe_dim=16, q_log2=q_log2, p_log2=p_log2)
        rng = np.random.default_rng(seed)
        db = rng.integers(0, params.p, size=(4, 6), dtype=np.int64)
        server = SimplePirServer(db, params, seed=seed)
        client = SimplePirClient(server, seed=seed + 1)
        col = int(rng.integers(0, db.shape[1]))
        query, secret = client.build_query(col)
        answer = server.answer(query)
        for row in range(db.shape[0]):
            assert client.recover(answer, secret, row) == db[row, col]

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=9),
        cols=st.integers(min_value=1, max_value=97),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_non_square_record_counts(self, rows, cols, seed):
        params = SimplePirParams(lwe_dim=32)
        rng = np.random.default_rng(seed)
        db = rng.integers(0, params.p, size=(rows, cols), dtype=np.int64)
        server = SimplePirServer(db, params, seed=seed)
        client = SimplePirClient(server, seed=seed + 1)
        col = int(rng.integers(0, cols))
        row = int(rng.integers(0, rows))
        query, secret = client.build_query(col)
        assert client.recover(server.answer(query), secret, row) == db[row, col]

    def test_single_column_database(self):
        params = SimplePirParams(lwe_dim=32)
        rng = np.random.default_rng(3)
        db = rng.integers(0, params.p, size=(16, 1), dtype=np.int64)
        server = SimplePirServer(db, params, seed=4)
        client = SimplePirClient(server, seed=5)
        query, secret = client.build_query(0)
        answer = server.answer(query)
        for row in range(16):
            assert client.recover(answer, secret, row) == db[row, 0]
