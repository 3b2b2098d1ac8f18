"""Client-side cluster registry: routing, query building, ground truth.

The third registry beside :class:`~repro.serve.registry.RealShardRegistry`
(thread pool, servers in-process) and ``SimShardRegistry`` (virtual
time): here the shard replicas live in *worker processes*, so this side
holds only what the client of a deployment would hold — the routing base
they all share (:class:`~repro.serve.registry.PlainRouting`: secret key,
per-shard record layouts for query construction and decode) plus the
epoch-versioned ground-truth records the coordinator ships to workers on
load and rebalance.

Epochs: ``make_request`` stamps each request with the current epoch;
``commit_publish`` advances it only after every live worker has acked the
broadcast, so a new epoch is never admissible before every replica can
answer it (the cross-process analog of ``repro.mutate.serving``'s atomic
publish).
"""

from __future__ import annotations

from repro.errors import MutateError
from repro.mutate.log import Mutation, Put
from repro.params import PirParams
from repro.serve.registry import PlainRouting


class ClusterRegistry(PlainRouting):
    """Routing + crypto client for a multi-process shard deployment.

    Windows are answered by :meth:`ClusterCoordinator.answer` across the
    worker pipes, so this registry has no ``answer_window`` of its own.
    """

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        num_shards: int,
        record_bytes: int | None = None,
        seed: int | None = None,
    ):
        super().__init__(params, records, num_shards, record_bytes, seed)
        self.seed = seed
        self.setup = self.client.setup_message()
        for i, rec in enumerate(records):
            if len(rec) != self.record_bytes:
                raise MutateError(
                    f"record {i} has {len(rec)} bytes, expected {self.record_bytes}"
                )
        self._shard_records = [
            list(records[self.map.span(shard_id)]) for shard_id in range(num_shards)
        ]
        self.current_epoch = 0

    def shard_records(self, shard_id: int) -> tuple[bytes, ...]:
        """Current-epoch ground truth of one shard (what a replica loads)."""
        return tuple(self._shard_records[self.map.check_shard(shard_id)])

    def expected(self, global_index: int) -> bytes:
        """Ground truth at the *current* epoch (tests/benchmarks)."""
        shard_id, local = self.map.route(global_index)
        return self._shard_records[shard_id][local]

    # -- epoch publish (driven by the coordinator) -------------------------
    def commit_publish(
        self, epoch: int, shard_ops: list[tuple[Mutation, ...]]
    ) -> None:
        """Advance ground truth + admissions after every worker acked."""
        if epoch != self.current_epoch + 1:
            raise MutateError(
                f"publish of epoch {epoch} against current {self.current_epoch}"
            )
        tombstone = b"\0" * self.record_bytes
        for shard_id, ops in enumerate(shard_ops):
            records = self._shard_records[shard_id]
            for op in ops:
                records[op.index] = op.record if isinstance(op, Put) else tombstone
        self.current_epoch = epoch
