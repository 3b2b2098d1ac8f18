"""Dummy-padded passes leak nothing through their shape; stacked draws are sane.

Privacy arguments are per query distribution (side-information PIR,
PAPERS.md): a batch or keyword pass must look the same to the server
whichever keys it carries.  Every pass is one query per bucket, dummies
included, so for key sets of equal size the ``BatchQuery`` / ``KvQuery``
must agree in round count, bucket-query count, tensor shapes and
``size_bytes``, and a dummy must be indistinguishable from a real query
in structure and in the range its residues fill.

The queries of a pass now come out of stacked sampler draws, so the
sampler gets the matching sanity checks: residues below each modulus,
the error deviation the parameters name, and the noise margin left after
the deepest ColTor.
"""

import math

import numpy as np
import pytest

from repro.batchpir.client import BatchPirClient
from repro.batchpir.layout import BatchLayout
from repro.hashing.cuckoo import CuckooConfig
from repro.he import noise
from repro.kvpir.client import KvPirClient
from repro.kvpir.layout import KvDatabase
from repro.params import PirParams
from repro.pir.client import PirClient
from repro.pir.database import PirDatabase
from repro.pir.server import PirServer

PARAMS = PirParams.small(n=256, d0=8, num_dims=2)


def query_shape(query) -> tuple:
    """Everything the server can see of one bucket query but its bytes:
    the seed's length and the b rows' shape."""
    return len(query.seed), query.b.shape, query.b.dtype.str


def pass_shapes(batch_query) -> list[list[tuple]]:
    return [[query_shape(q) for q in rnd] for rnd in batch_query.rounds]


@pytest.fixture(scope="module")
def batch_client():
    layout = BatchLayout.build(PARAMS, 512, 64, CuckooConfig.for_batch(8, seed=3))
    return BatchPirClient(layout, seed=4)


@pytest.fixture(scope="module")
def kv():
    rng = np.random.default_rng(5)
    items = {rng.bytes(8): rng.bytes(24) for _ in range(256)}
    db = KvDatabase.from_items(PARAMS, items, max_lookup_batch=4, hash_seed=6)
    return items, KvPirClient(db.layout, seed=7)


class TestPassShape:
    def test_batch_queries_of_equal_size_key_sets_are_shape_identical(self, batch_client):
        params = batch_client.layout.bucket_params
        first = batch_client.plan([1, 17, 200, 431, 508])
        second = batch_client.plan([3, 90, 91, 92, 300])
        assert first.num_rounds == second.num_rounds == 1
        q1, q2 = batch_client.build_queries(first), batch_client.build_queries(second)
        assert pass_shapes(q1) == pass_shapes(q2)
        assert all(len(rnd) == batch_client.layout.num_buckets for rnd in q1.rounds)
        assert q1.size_bytes(params) == q2.size_bytes(params)

    def test_kv_queries_of_equal_size_key_sets_are_shape_identical(self, kv):
        items, client = kv
        params = client.layout.batch.bucket_params
        keys = list(items)
        present = client.plan(keys[:4])
        mixed = client.plan(keys[100:102] + [b"no-such-key", b"nor-this-one"])
        queries = [client.build_queries(present), client.build_queries(mixed)]
        shapes = [[pass_shapes(chunk) for chunk in q.chunks] for q in queries]
        assert shapes[0] == shapes[1]
        assert queries[0].size_bytes(params) == queries[1].size_bytes(params)
        buckets = client.layout.batch.num_buckets
        assert all(
            len(rnd) == buckets for q in queries for chunk in q.chunks for rnd in chunk.rounds
        )

    def test_dummy_is_indistinguishable_from_real(self, batch_client):
        plan = batch_client.plan([5, 77, 310])
        (queries,) = batch_client.build_queries(plan).rounds
        real = set(plan.rounds[0])
        dummies = [q for b, q in enumerate(queries) if b not in real]
        reals = [q for b, q in enumerate(queries) if b in real]
        assert dummies and reals
        assert {query_shape(q) for q in dummies} == {query_shape(q) for q in reals}
        # No residue pattern gives a dummy away either: both kinds fill
        # [0, q) evenly, the sent b rows and the a rows their seed expands to.
        moduli = np.array(batch_client.layout.bucket_params.moduli)[:, None]
        for query in dummies + reals:
            tensors = [query.b, query.packed.a.residues]
            tensors += [bit.rows[0] for bit in query.selection_bits]
            upper = np.concatenate([(t >= moduli // 2).ravel() for t in tensors])
            assert abs(upper.mean() - 0.5) < 0.02


class TestStackedDraws:
    def test_pass_rows_are_canonical_and_error_is_sigma(self):
        """A pass worth of zero rows: a and b below every modulus, and the
        recovered error e = b + a*s at the parameters' sigma within 5 %."""
        client = PirClient(PARAMS, seed=9)
        ring, key = client.ring, client.secret_key
        count = 36 * (1 + PARAMS.num_dims * 2 * PARAMS.gadget_len)
        rows = client.bfv.encrypt_zeros(key, count)
        moduli = np.array(PARAMS.moduli)[:, None]
        assert rows.min() >= 0 and (rows < moduli).all()
        for index, q in enumerate(PARAMS.moduli):
            phase = (rows[1, :, index] + rows[0, :, index] * key.ntt.residues[index]) % q
            error = ring.ntts[index].inverse(phase)
            error = np.where(error > q // 2, error - q, error)
            assert abs(error).max() < 8 * PARAMS.error_std
            assert error.std() == pytest.approx(PARAMS.error_std, rel=0.05)
            assert abs(error.mean()) < 0.05

    def test_noise_budget_after_deepest_coltor(self):
        """d0 = 32 and six ColTor rounds (the benchmark's serving geometry),
        over client seeds 0-31.  Every seed keeps the budget the noise
        analysis guarantees with high probability (6-sigma bound of
        ``repro.he.noise.estimate``, 17.08 bits here), and the seeds'
        median stays at 18.4 bits or more: the unseeded uploads left a
        64-seed median of 18.60 bits (17.85-19.39), and a 32-seed median
        of one distribution moves ~0.07 bit, so a shift of the whole
        distribution by 0.2 bit fails here, where single seeds held to a
        flat floor catch only a shift as deep as their lowest reading."""
        params = PirParams.small(n=256, d0=32, num_dims=6)
        floor = math.log2(params.delta / 2 / noise.estimate(params).response_bound())
        db = PirDatabase.random(params, params.num_db_polys, 64, seed=1)
        budgets = []
        for seed in range(32):
            client = PirClient(params, seed=seed)
            server = PirServer(db.preprocess(client.ring), client.setup_message())
            index = db.num_records - 1 - seed % 3  # last column: every bit set or nearly
            response = server.answer(client.build_query(index, db.layout))
            assert client.decode_response(response, index, db.layout) == db.record(index)
            budget = client.bfv.noise_budget_bits(response.plane_cts[0], client.secret_key)
            assert budget >= floor, f"client seed {seed}: {budget:.2f} bits"
            budgets.append(budget)
        assert np.median(budgets) >= 18.4
