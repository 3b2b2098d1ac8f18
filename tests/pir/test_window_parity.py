"""Stacked dispatch windows vs the per-query oracles, byte for byte.

``PirServer.answer_batch`` runs a window as stacked tensor passes, cut
into groups under the scratch budget; ``BatchPirServer.answer`` and
``KvPirServer.answer`` feed it one query per bucket.  Whatever the window
size — one query, one short of a group, exactly a group, one over, or
several groups — every response must equal the per-query ``answer`` of
the ``eager`` oracle and the per-poly ``answer_reference``.
``REPRO_BACKEND`` restricts the backends under test so CI can run the
file once per registered backend.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batchpir.client import BatchPirClient, BatchQuery
from repro.batchpir.layout import BatchDatabase
from repro.batchpir.server import BatchPirServer
from repro.errors import LayoutError, ParameterError
from repro.hashing.cuckoo import CuckooConfig
from repro.he.backend import backend_names
from repro.kvpir.client import KvPirClient
from repro.kvpir.layout import KvDatabase
from repro.kvpir.server import KvPirServer
from repro.obs import metrics as obs_metrics
from repro.obs.export import health_snapshot, render_prometheus
from repro.params import PirParams
from repro.pir.client import PirClient, PirQuery
from repro.pir.database import PirDatabase
from repro.pir.server import PirServer
from repro.serve.metrics import ServeMetrics

#: Backends under test; CI sets REPRO_BACKEND=eager / =native.
BACKENDS = (
    [os.environ["REPRO_BACKEND"]] if "REPRO_BACKEND" in os.environ else backend_names()
)
#: 16 x 2^3 polynomials at N = 256: three queries fill the scratch budget,
#: so small windows already cross every group boundary.
PLAIN = PirParams.small(n=256, d0=16, num_dims=3)
BUCKETS = PirParams.small(n=256, d0=8, num_dims=2)


def window_sizes(group: int) -> list[int]:
    return sorted({1, 2, 3, 5, 8, group - 1, group, group + 1} - {0})


def assert_same(got, want) -> None:
    assert len(got.plane_cts) == len(want.plane_cts)
    for g, w in zip(got.plane_cts, want.plane_cts):
        assert np.array_equal(g.a.residues, w.a.residues)
        assert np.array_equal(g.b.residues, w.b.residues)


def assert_window(responses, queries, oracles, references=None) -> None:
    """Each stacked response equals its query's per-query eager answer, and
    the first ``references`` of them (all by default) the per-poly one."""
    assert len(responses) == len(queries) == len(oracles)
    for position, (response, query, oracle) in enumerate(zip(responses, queries, oracles)):
        assert_same(response, oracle.answer(query))
        if references is None or position < references:
            assert_same(response, oracle.answer_reference(query))


@pytest.fixture(scope="module")
def plain():
    db = PirDatabase.random(PLAIN, num_records=96, record_bytes=64, seed=3)
    client = PirClient(PLAIN, seed=4)
    pre = db.preprocess(client.ring, backend="eager")
    servers = {
        name: PirServer(pre, client.setup_message(), backend=name)
        for name in backend_names()
    }
    return db, client, servers


class TestPlainWindow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_answer_batch_matches_per_query_oracles(self, plain, backend, data):
        db, client, servers = plain
        server = servers[backend]
        assert server.group_size == 3
        count = data.draw(st.sampled_from(window_sizes(server.group_size)))
        indices = data.draw(
            st.lists(st.integers(0, db.num_records - 1), min_size=count, max_size=count)
        )
        queries = client.build_queries(indices, [db.layout] * count)
        responses = server.answer_batch(queries)
        assert_window(responses, queries, [servers["eager"]] * count)
        for index, response in zip(indices, responses):
            assert client.decode_response(response, index, db.layout) == db.record(index)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_answer_is_a_window_of_one(self, plain, backend):
        db, client, servers = plain
        query = client.build_query(5, db.layout)
        assert_same(servers[backend].answer(query), servers[backend].answer_batch([query])[0])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_public_stages_replay_the_window(self, plain, backend):
        """expand -> rowsel -> coltor through the single-query signatures is
        the production answer (what the e2e benchmark's staged replay times)."""
        from repro.pir.rowsel import rowsel_plane_tensor

        db, client, servers = plain
        server = servers[backend]
        query = client.build_query(17, db.layout)
        expanded = server.backend.expand(query.packed, server.evks, 4, server.gadget)
        entries = server.backend.rowsel(
            expanded, rowsel_plane_tensor(server.db, 0), server.ring._moduli_col
        )
        result = server.backend.coltor(entries, query.selection_bits, server.gadget)
        production = server.answer(query).plane_cts[0]
        assert result.a == production.a and result.b == production.b


class TestWindowValidation:
    def test_empty_window(self, plain):
        assert plain[2]["native"].answer_batch([]) == []

    def test_bad_query_is_named_before_any_work(self, plain, monkeypatch):
        db, client, servers = plain
        server = servers["native"]
        queries = client.build_queries([1, 2, 3, 4], [db.layout] * 4)
        queries[2] = PirQuery(queries[2].packed, queries[2].selection_bits[:-1])
        monkeypatch.setattr(
            server, "_answer_group", lambda *a: pytest.fail("answered before validating")
        )
        with pytest.raises(ParameterError, match="query 2 of the window"):
            server.answer_batch(queries)

    def test_query_of_another_geometry_is_typed(self, plain):
        """Right bit count, wrong ring: a typed error naming the query, not
        a numpy stacking traceback."""
        db, client, servers = plain
        wide = PirParams.small(n=512, d0=16, num_dims=3)
        alien = PirClient(wide, seed=2).build_query(
            0, PirDatabase.random(wide, 8, 64, seed=1).layout
        )
        good = client.build_query(0, db.layout)
        assert len(alien.selection_bits) == len(good.selection_bits)
        with pytest.raises(ParameterError, match="query 1 of the window"):
            servers["native"].answer_batch([good, alien])

    def test_mixed_layout_pass_is_typed(self, plain):
        db, client, _ = plain
        other = PirDatabase.random(BUCKETS, num_records=8, record_bytes=64, seed=1)
        with pytest.raises(LayoutError):
            client.build_queries([0, 0], [db.layout, other.layout])
        with pytest.raises(LayoutError):
            client.build_queries([0, 1], [db.layout])

    def test_buckets_of_differing_geometry_are_typed(self):
        config = CuckooConfig(num_buckets=3, seed=1)
        db = BatchDatabase.random(BUCKETS, 24, 32, config, seed=5)
        client = BatchPirClient(db.layout, seed=6)
        grown = BUCKETS.with_db(num_dims=3)
        db.bucket_dbs[1] = PirDatabase.random(grown, 8, 32, seed=1)
        with pytest.raises(LayoutError, match="bucket geometries differ"):
            BatchPirServer(db, client.pir.ring, client.setup_message())


def _batch_deployment(num_buckets: int, seed: int):
    config = CuckooConfig(num_buckets=num_buckets, seed=seed)
    db = BatchDatabase.random(BUCKETS, 64 * num_buckets, 256, config, seed=seed + 1)
    client = BatchPirClient(db.layout, seed=seed + 2)
    servers = {
        name: BatchPirServer(db, client.pir.ring, client.setup_message(), backend=name)
        for name in {"eager", *BACKENDS}
    }
    return db, client, servers


class TestBatchWindow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_two_round_pass_matches_per_bucket_oracles(self, backend, data):
        # 64 records of 256 B per bucket make 16 x 2^3 bucket databases
        # that stack three or four queries per group: the bucket counts
        # below fall short of, on, just over and well over that boundary.
        num_buckets = data.draw(st.sampled_from([2, 3, 4, 5, 8]))
        db, client, servers = _batch_deployment(num_buckets, data.draw(st.integers(0, 99)))
        server = servers[backend]
        assert 3 <= server.servers[0].group_size <= 4
        wanted = data.draw(
            st.lists(
                st.integers(0, db.layout.num_records - 1),
                min_size=2, max_size=max(2, db.layout.config.design_batch), unique=True,
            )
        )
        first, second = client.plan(wanted[:1]), client.plan(wanted[1:])
        query = BatchQuery(
            rounds=client.build_queries(first).rounds + client.build_queries(second).rounds
        )
        assert len(query.rounds) >= 2
        response = server.answer(query)
        for queries, responses in zip(query.rounds, response.rounds):
            assert_window(responses, queries, servers["eager"].servers, references=1)
        assert client.decode(second, type(response)(response.rounds[1:])) == {
            g: db.record(g) for g in wanted[1:]
        }


class TestKvWindow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=6, deadline=None)
    @given(
        lookup_batch=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 99),
    )
    def test_lookups_with_absent_keys_match_per_bucket_oracles(
        self, backend, lookup_batch, seed
    ):
        # 5, 9 or 14 buckets against groups of 4, 7 and 7: every pass is
        # more than one group, the widest exactly two.
        rng = np.random.default_rng(seed)
        items = {rng.bytes(8): rng.bytes(120) for _ in range(256)}
        db = KvDatabase.from_items(
            BUCKETS, items, max_lookup_batch=lookup_batch, hash_seed=seed
        )
        client = KvPirClient(db.layout, seed=seed + 1)
        servers = {
            name: KvPirServer(
                db, client.batch.pir.ring, client.setup_message(), backend=name
            )
            for name in {"eager", backend}
        }
        keys = list(items)[:lookup_batch] + [b"absent-%d" % seed]
        plan = client.plan(keys)
        query = client.build_queries(plan)
        response = servers[backend].answer(query)
        oracle = servers["eager"].batch_server.servers
        assert len(oracle) > oracle[0].group_size
        for chunk_query, chunk_response in zip(query.chunks, response.chunks):
            for queries, responses in zip(chunk_query.rounds, chunk_response.rounds):
                assert_window(responses, queries, oracle, references=1)
        assert client.decode(plan, response) == {k: items[k] for k in keys[:-1]}


class TestWindowCounters:
    def test_window_larger_than_one_group_is_counted_and_exported(self, plain):
        db, client, servers = plain
        server = servers["native"]
        queries = client.build_queries([0] * 7, [db.layout] * 7)
        metrics = ServeMetrics()
        previous = obs_metrics.install(metrics.registry)
        try:
            server.answer_batch(queries)
            server.answer(queries[0])
        finally:
            obs_metrics.install(previous)
        snapshot = metrics.registry.snapshot()
        assert snapshot["pir_window_queries"] == 7 + 1
        assert snapshot["pir_window_groups"] == 3 + 1  # ceil(7 / 3), then a window of one
        prom = render_prometheus(snapshot)
        assert "repro_pir_window_queries_total 8" in prom
        assert "repro_pir_window_groups_total 4" in prom
        row = health_snapshot(1.0, metrics, 1.0)
        assert row["pir_window_queries"] == 8 and row["pir_window_groups"] == 4
        # The kernel-fallback counters ride along; this geometry trips none
        # (a missing library was counted once, before this registry).
        prom = render_prometheus(metrics.registry.snapshot())
        for name in ("native_unavailable", "native_none", "modular_gemm_bignum"):
            assert row[f"he_{name}"] == 0
            assert f"repro_he_{name}_total 0" in prom
        # Uninstalled again: a later window is nobody's to count.
        server.answer(queries[0])
        assert metrics.registry.snapshot()["pir_window_queries"] == 8


@pytest.mark.slow
def test_paper_ring_window_is_groups_of_one_and_byte_identical():
    """N = 2^12: one query outgrows the scratch budget, so a window of two
    is two single-query passes — identical to eager, and to the per-poly
    reference on the first query."""
    params = PirParams.functional(d0=8, num_dims=1)
    db = PirDatabase.random(params, num_records=16, record_bytes=1024, seed=11)
    client = PirClient(params, seed=12)
    pre = db.preprocess(client.ring)
    servers = {
        name: PirServer(pre, client.setup_message(), backend=name)
        for name in {"eager", *BACKENDS}
    }
    indices = [3, 12]
    queries = client.build_queries(indices, [db.layout] * 2)
    for name in BACKENDS:
        assert servers[name].group_size == 1
        responses = servers[name].answer_batch(queries)
        for query, response in zip(queries, responses):
            assert_same(response, servers["eager"].answer(query))
        assert_same(responses[0], servers[name].answer_reference(queries[0]))
        for index, response in zip(indices, responses):
            assert client.decode_response(response, index, db.layout) == db.record(index)
