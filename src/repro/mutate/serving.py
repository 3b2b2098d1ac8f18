"""Zero-downtime epoch hot-swap for the serving runtime.

``publish`` applies an :class:`~repro.mutate.log.UpdateLog` to every
shard's :class:`~repro.mutate.versioned.VersionedDatabase` and atomically
installs the new epoch for *new* admissions, while requests already
admitted keep their epoch pin: each :class:`ServeRequest` is stamped with
the epoch it was built against and ``answer_window`` answers it with that
epoch's servers — one stacked pass per epoch present in the window.
Nothing in flight is lost or decoded against the wrong database version.

Retention is bounded: the registry admits requests only against the most
recent ``retain`` epochs — older pins get the typed
:class:`~repro.errors.StaleEpoch` rejection — but a *live* epoch (one
with in-flight requests) is never freed until its last request is
released, so a swap mid-window cannot strand a queued query.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from repro.errors import MutateError, StaleEpoch
from repro.he.backend import ComputeBackend, resolve_backend
from repro.mutate.log import UpdateLog, split_by_shard
from repro.mutate.versioned import EpochSnapshot, UpdateCost, VersionedDatabase
from repro.params import PirParams
from repro.pir.client import PirResponse
from repro.pir.server import PirServer
from repro.serve.registry import PlainRouting, ServeRequest, group_by_epoch


@dataclass
class _EpochState:
    """One live database version across every shard."""

    epoch: int
    snapshots: list[EpochSnapshot]
    servers: list[PirServer]
    inflight: int = 0
    admissible: bool = True


@dataclass(frozen=True)
class PublishResult:
    """What one hot-swap published."""

    epoch: int
    cost: UpdateCost
    live_epochs: tuple[int, ...]


class VersionedShardRegistry(PlainRouting):
    """``RealShardRegistry`` semantics plus epoch-versioned hot-swap.

    Drop-in for the serving runtime: ``make_request`` routes and builds a
    real query (stamped with its epoch), ``decode`` decrypts and releases
    the pin.  ``publish`` installs a new epoch built by dirty-plane delta
    application — cost proportional to the delta.

    Appends are rejected at this layer (``MutateError``): the shard map
    partitions a fixed index space, and growing it online would silently
    re-route existing indices.  Grow by rebuilding the registry.
    """

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        num_shards: int,
        record_bytes: int | None = None,
        seed: int | None = None,
        retain: int = 2,
        backend: str | ComputeBackend | None = None,
    ):
        if retain < 1:
            raise MutateError("must retain at least the current epoch")
        super().__init__(params, records, num_shards, record_bytes, seed)
        self.retain = retain
        self.backend = resolve_backend(backend)
        self._setup = self.client.setup_message()
        self._vdbs = [
            VersionedDatabase(
                params, records[self.map.span(shard_id)], record_bytes,
                ring=self.client.ring, backend=self.backend,
            )
            for shard_id in range(num_shards)
        ]
        self.current_epoch = 0
        self._epochs: dict[int, _EpochState] = {}
        self._install([vdb.current for vdb in self._vdbs])

    def _install(self, snapshots: list[EpochSnapshot]) -> None:
        """Make ``snapshots`` the servers of ``current_epoch``."""
        self._epochs[self.current_epoch] = _EpochState(
            epoch=self.current_epoch,
            snapshots=snapshots,
            servers=[
                PirServer(s.pre, self._setup, backend=self.backend)
                for s in snapshots
            ],
        )

    @property
    def live_epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self._epochs))

    # -- hot swap ----------------------------------------------------------
    def publish(self, log: UpdateLog) -> PublishResult:
        """Apply ``log`` and install the next epoch for new admissions.

        Atomic across shards: the whole log is validated (routing, record
        sizes) before any shard's database advances, so a rejected publish
        leaves every shard exactly at the current epoch — no half-applied
        log can leak into a later publish.
        """
        shard_ops = split_by_shard(log, self.map, self.record_bytes)
        snapshots = [
            vdb.apply(UpdateLog(list(ops)))
            for vdb, ops in zip(self._vdbs, shard_ops)
        ]
        self.current_epoch += 1
        self._install(snapshots)
        # Close admission for epochs beyond the retention window; free the
        # ones nothing holds.  Live ones linger until their last release.
        oldest_admissible = self.current_epoch - self.retain + 1
        for state in self._epochs.values():
            if state.epoch < oldest_admissible:
                state.admissible = False
        self._sweep()
        return PublishResult(
            epoch=self.current_epoch,
            cost=reduce(UpdateCost.merge, (s.cost for s in snapshots)),
            live_epochs=self.live_epochs,
        )

    def _sweep(self) -> None:
        for epoch in [
            e
            for e, s in self._epochs.items()
            if not s.admissible and s.inflight == 0
        ]:
            del self._epochs[epoch]

    def _state(self, epoch: int | None, admission: bool = False) -> _EpochState:
        epoch = self.current_epoch if epoch is None else epoch
        state = self._epochs.get(epoch)
        if state is None or (admission and not state.admissible):
            raise StaleEpoch(
                epoch=epoch,
                current=self.current_epoch,
                oldest_live=min(
                    (e for e, s in self._epochs.items() if s.admissible),
                    default=self.current_epoch,
                ),
            )
        return state

    # -- serving interface -------------------------------------------------
    def make_request(self, global_index: int, epoch: int | None = None) -> ServeRequest:
        """Route + build the query against an epoch (default: current).

        Admitting pins the epoch: it stays answerable until ``decode`` (or
        ``release``) is called for this request, even if later publishes
        push it out of the admission window.  The serving runtime
        releases a request it sheds or whose window fails; any other
        caller that drops a request before ``decode`` must do the same,
        or the epoch snapshot is pinned for the registry's lifetime.
        """
        state = self._state(epoch, admission=True)
        request = super().make_request(global_index)
        request.epoch = state.epoch
        state.inflight += 1
        return request

    def server(self, shard_id: int, epoch: int | None = None) -> PirServer:
        """The epoch-pinned replica (any live epoch, admissible or not)."""
        return self._state(epoch).servers[self.map.check_shard(shard_id)]

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """One stacked ``answer_batch`` per epoch present in the window."""
        responses: list = [None] * len(requests)
        for epoch, positions in group_by_epoch(requests).items():
            answers = self.server(shard_id, epoch).answer_batch(
                [requests[i].query for i in positions]
            )
            for i, answer in zip(positions, answers):
                responses[i] = answer
        return responses

    def decode(self, request: ServeRequest, response: PirResponse) -> bytes:
        """Decrypt, then release the request's epoch pin.

        The pin is released whether or not decryption succeeds — a
        malformed response must not retain the epoch forever.
        """
        try:
            return super().decode(request, response)
        finally:
            self.release(request)

    def release(self, request: ServeRequest) -> None:
        """Drop a request's epoch pin (idempotence is the caller's job)."""
        state = self._epochs.get(request.epoch)
        if state is not None:
            state.inflight = max(0, state.inflight - 1)
            self._sweep()

    def expected(self, global_index: int, epoch: int | None = None) -> bytes:
        """Ground truth for one record *as of an epoch* (default: current)."""
        state = self._state(epoch)
        shard_id, local = self.map.route(global_index)
        return state.snapshots[shard_id].db.record(local)
