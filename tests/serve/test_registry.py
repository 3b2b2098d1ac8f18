"""Shard routing and registry construction."""

import pytest

from repro.errors import ParameterError, RoutingError
from repro.params import PirParams
from repro.serve.registry import RealShardRegistry, ShardMap, SimShardRegistry
from repro.systems.scale_up import DbPlacement


class TestShardMap:
    def test_even_partition(self):
        m = ShardMap(12, 3)
        assert m.sizes == [4, 4, 4]
        assert m.starts == [0, 4, 8]

    def test_uneven_partition_spreads_remainder(self):
        m = ShardMap(10, 3)
        assert m.sizes == [4, 3, 3]
        assert sum(m.sizes) == 10

    def test_route_roundtrip_covers_every_record(self):
        m = ShardMap(37, 5)
        seen = set()
        for g in range(37):
            shard, local = m.route(g)
            assert m.global_index(shard, local) == g
            seen.add((shard, local))
        assert len(seen) == 37

    def test_route_rejects_out_of_range(self):
        m = ShardMap(8, 2)
        with pytest.raises(RoutingError):
            m.route(8)
        with pytest.raises(RoutingError):
            m.route(-1)

    def test_route_rejects_non_integer_indices_typed(self):
        """Regression: floats/bools/strings must shed as RoutingError,
        never escape as a bare TypeError or route to a fractional local
        index (2.5 used to pass the range check and split records)."""
        m = ShardMap(8, 2)
        for bad in (2.5, True, "3", None, b"\x01"):
            with pytest.raises(RoutingError):
                m.route(bad)
        with pytest.raises(RoutingError):
            m.global_index(0.0, 1)
        with pytest.raises(RoutingError):
            m.global_index(0, False)

    def test_route_accepts_numpy_integers(self):
        import numpy as np

        m = ShardMap(8, 2)
        shard, local = m.route(np.int64(5))
        assert (shard, local) == m.route(5)
        assert isinstance(shard, int) and isinstance(local, int)

    def test_global_index_rejects_bad_shard(self):
        m = ShardMap(8, 2)
        with pytest.raises(RoutingError):
            m.global_index(2, 0)
        with pytest.raises(RoutingError):
            m.global_index(0, 4)

    def test_more_shards_than_records_rejected(self):
        with pytest.raises(ParameterError):
            ShardMap(2, 3)


class TestRealShardRegistry:
    @pytest.fixture(scope="class")
    def registry(self):
        params = PirParams.small(n=256, d0=8, num_dims=2)
        return RealShardRegistry.random(
            params, num_records=10, record_bytes=32, num_shards=3, seed=9
        )

    def test_shards_partition_the_records(self, registry):
        assert registry.num_shards == 3
        assert sum(spec.num_records for spec in registry.specs) == 10

    def test_request_routes_to_owning_shard(self, registry):
        req = registry.make_request(7)
        assert req.global_index == 7
        assert registry.map.global_index(req.shard_id, req.local_index) == 7
        assert req.query is not None

    def test_answer_decodes_to_original_record(self, registry):
        for g in (0, 4, 9):  # one record per shard
            req = registry.make_request(g)
            response = registry.server(req.shard_id).answer(req.query)
            assert registry.decode(req, response) == registry.expected(g)

    def test_small_shards_live_in_hbm(self, registry):
        assert all(spec.placement is DbPlacement.HBM for spec in registry.specs)

    def test_make_request_raises_typed_errors(self, registry):
        """Regression: out-of-range/non-integer indices surface as
        RoutingError end to end, not ValueError/IndexError."""
        for bad in (10, -1, 3.5, True, "7"):
            with pytest.raises(RoutingError):
                registry.make_request(bad)

    def test_accessors_raise_typed_errors(self, registry):
        with pytest.raises(RoutingError):
            registry.server(3)
        with pytest.raises(RoutingError):
            registry.expected(10)
        with pytest.raises(RoutingError):
            registry.expected(2.0)


class TestRuntimeSubmitRouting:
    def test_submit_rejects_bad_shard_ids_typed(self):
        """Regression: a malformed ServeRequest at the runtime door sheds
        as RoutingError — never bare TypeError/IndexError from the
        dispatcher list, and 2.5 must not pass the range check."""
        import asyncio

        from repro.serve import ServeRequest, SimShardRegistry, SimulatedBackend
        from repro.serve.dispatcher import ServeRuntime
        from repro.systems.batching import BatchPolicy

        registry = SimShardRegistry(PirParams.paper(d0=256, num_dims=9), num_shards=2)
        runtime = ServeRuntime(
            registry,
            SimulatedBackend(registry),
            BatchPolicy(waiting_window_s=0.001, max_batch=4),
        )

        async def main():
            for bad in (2, -1, 1.5, "1", True, None):
                request = ServeRequest(global_index=0, shard_id=bad, local_index=0)
                with pytest.raises(RoutingError):
                    runtime.submit(request)

        asyncio.run(main())


class TestSimShardRegistry:
    def test_shard_split_drops_coltor_dimensions(self):
        reg = SimShardRegistry(PirParams.paper(d0=256, num_dims=9), num_shards=4)
        assert reg.shard_params.num_dims == 7
        assert reg.num_records == reg.params.num_db_polys

    def test_rejects_non_power_of_two_shards(self):
        with pytest.raises(ParameterError):
            SimShardRegistry(PirParams.paper(d0=256, num_dims=9), num_shards=3)

    def test_rejects_too_many_shards(self):
        with pytest.raises(ParameterError):
            SimShardRegistry(PirParams.paper(d0=256, num_dims=2), num_shards=8)

    def test_service_seconds_monotone_and_cached(self):
        reg = SimShardRegistry(PirParams.paper(d0=256, num_dims=9), num_shards=2)
        t1, t64 = reg.service_seconds(1), reg.service_seconds(64)
        assert 0 < t1 < t64  # batching amortizes but adds work
        assert reg.service_seconds(64) == t64  # cache hit is deterministic
        # Batching wins per query.
        assert t64 / 64 < t1

    def test_window_matches_shard_db_read(self):
        reg = SimShardRegistry(PirParams.paper(d0=256, num_dims=9), num_shards=4)
        assert reg.waiting_window_s() == reg.system.min_db_read_seconds()
