"""Shard registry: one logical database partitioned across server replicas.

Record-level parallelism at the serving layer (Section V): a logical
database of R records is split into shards, each held by its own replica.
Every tier presents the runtime with the :class:`ServingMode` protocol, so
the runtime and the one thread executor never branch on the tier.  This
module holds the protocol, the plain tier's real registry and the
simulated registry every tier's ``sim`` deployment uses:

* :class:`RealShardRegistry` — every shard is a real :class:`PirServer`
  over a slice of the records, sharing one client ring so queries and
  responses are byte-correct end to end; ``publish`` hot-swaps epochs
  built by dirty-plane delta application (``repro.mutate``).
* :class:`SimShardRegistry` — geometry only; each shard is backed by the
  :class:`~repro.systems.scale_up.ScaleUpSystem` latency model so
  million-user load tests run in simulated time, its slice placed in HBM
  or LPDDR by the Section V rule
  (:func:`repro.systems.scale_up.choose_placement`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Protocol

import numpy as np

from repro.arch.config import IveConfig
from repro.errors import MutateError, ParameterError, RoutingError, StaleEpoch
from repro.he import modmath
from repro.he.backend import ComputeBackend, resolve_backend
from repro.mutate.log import UpdateLog, split_by_shard
from repro.mutate.versioned import EpochSnapshot, UpdateCost, VersionedDatabase
from repro.params import PirParams
from repro.pir.client import PirClient, PirQuery, PirResponse
from repro.pir.layout import RecordLayout
from repro.pir.server import PirServer
from repro.systems.scale_up import DbPlacement, ScaleUpSystem


class ShardBounds:
    """Index validation every shard map shares: typed, never a bare error.

    Routing is the serving door: malformed client input must surface as
    the repo's typed :class:`RoutingError` (shed and counted), never as a
    bare ``TypeError``/``ValueError``/``IndexError`` escaping from
    ``bisect`` or a list subscript — a float like ``2.5`` must not route
    to a fractional local index, and ``-1`` must not wrap to the last
    shard.
    """

    num_records: int
    num_shards: int

    @staticmethod
    def _as_index(value, what: str) -> int:
        """Coerce to a plain int, rejecting bools/floats with a typed error."""
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise RoutingError(
                f"{what} must be an integer, got {type(value).__name__}"
            )
        return int(value)

    def check_shard(self, shard_id: int) -> int:
        """Coerce + bounds-check a shard id; typed RoutingError otherwise.

        The single shard-id validation every layer shares (every tier's
        registry, the runtime's submit door) so the accepted types and the
        error shape cannot drift between them.
        """
        shard_id = self._as_index(shard_id, "shard id")
        if not 0 <= shard_id < self.num_shards:
            raise RoutingError(
                f"shard {shard_id} out of range [0, {self.num_shards})"
            )
        return shard_id

    def check_record(self, global_index: int) -> int:
        """Coerce + bounds-check a global record index, same contract."""
        global_index = self._as_index(global_index, "record index")
        if not 0 <= global_index < self.num_records:
            raise RoutingError(
                f"record {global_index} out of range [0, {self.num_records})"
            )
        return global_index

    def check_local(self, shard_id: int, local_index: int, size: int) -> int:
        """Coerce + bounds-check an index into a shard of ``size`` records."""
        local_index = self._as_index(local_index, "local index")
        if not 0 <= local_index < size:
            raise RoutingError(
                f"local index {local_index} out of range for shard {shard_id}"
            )
        return local_index


class ShardMap(ShardBounds):
    """Contiguous, near-equal partition of ``num_records`` across shards."""

    def __init__(self, num_records: int, num_shards: int):
        if num_shards < 1:
            raise ParameterError("need at least one shard")
        if num_records < num_shards:
            raise ParameterError(
                f"cannot split {num_records} records across {num_shards} shards"
            )
        self.num_records = num_records
        self.num_shards = num_shards
        base, extra = divmod(num_records, num_shards)
        sizes = [base + (1 if s < extra else 0) for s in range(num_shards)]
        self.starts = [0] * num_shards
        for s in range(1, num_shards):
            self.starts[s] = self.starts[s - 1] + sizes[s - 1]
        self.sizes = sizes

    def span(self, shard_id: int) -> slice:
        """The global-index range one shard owns."""
        start = self.starts[shard_id]
        return slice(start, start + self.sizes[shard_id])

    def route(self, global_index: int) -> tuple[int, int]:
        """Global record index -> (shard id, shard-local index)."""
        global_index = self.check_record(global_index)
        shard = bisect.bisect_right(self.starts, global_index) - 1
        return shard, global_index - self.starts[shard]

    def global_index(self, shard_id: int, local_index: int) -> int:
        shard_id = self.check_shard(shard_id)
        return self.starts[shard_id] + self.check_local(
            shard_id, local_index, self.sizes[shard_id]
        )


@dataclass
class ServeRequest:
    """One routed query travelling through the serving runtime."""

    global_index: int
    shard_id: int
    local_index: int
    query: PirQuery | None = None  # real-crypto payload; None in sim mode
    key: bytes | None = None  # keyword-PIR lookups route by key, not index
    #: Database epoch the request was admitted under (the plain tier's
    #: hot-swap); None on tiers without epochs.
    epoch: int | None = None
    #: Tracing id minted at the admission door (``repro.obs.trace``);
    #: rides the request through every layer so one timeline shows the
    #: whole path.  None when tracing is off.
    trace_id: int | None = None


class ServingMode(Protocol):
    """What the serving runtime and its window executors need from a tier.

    One item (a record index, or a key on the keyword tier) becomes a
    routed :class:`ServeRequest`; the dispatcher collects a shard's
    requests into a window; ``answer_window`` serves it as one synchronous
    batched pass (the executor decides *where* it runs).  Tiers with
    online updates add ``publish(log)``.  Registries subclass the protocol
    explicitly to inherit what is the same everywhere.
    """

    map: ShardBounds

    @property
    def num_shards(self) -> int:
        return self.map.num_shards

    @property
    def num_records(self) -> int:
        return self.map.num_records

    def make_request(self, item) -> ServeRequest:
        """Route ``item`` and build whatever the client sends for it."""
        ...

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """One response per request, in order, from one batched pass."""
        ...

    def decode(self, request: ServeRequest, response) -> bytes:
        """Record bytes for one response, or the tier's typed refusal."""
        ...

    def expected(self, item) -> bytes | None:
        """Ground truth for ``item`` (verification in tests/benchmarks)."""
        ...

    def release(self, request: ServeRequest) -> None:
        """Drop whatever ``make_request`` pinned for a request that will
        never reach ``decode`` (shed at admission, failed in its window).
        The runtime calls it on both paths; most tiers pin nothing."""


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


class RealShardRegistry(ServingMode):
    """N real ``PirServer`` replicas over one logical record set, with
    epoch-versioned hot-swap.

    One :class:`PirClient` (and its ring) serves every shard; its
    evaluation keys are registered with every replica at build time — the
    per-shard setup management a deployment would do per user.  Each
    shard's records live in a :class:`~repro.mutate.versioned.VersionedDatabase`
    whose epoch-0 snapshot is the ``PirDatabase`` plus preprocessed store
    a static deployment would hold.

    ``publish`` applies an :class:`~repro.mutate.log.UpdateLog` by
    dirty-plane delta application (cost proportional to the delta) and
    installs the new epoch for *new* admissions, while requests already
    admitted keep their epoch pin: ``make_request`` stamps each request
    with its epoch and ``answer_window`` answers it with that epoch's
    servers — one stacked pass per epoch present in the window.  Nothing
    in flight is lost or decoded against the wrong database version.

    Retention is bounded: requests are admitted only against the most
    recent ``retain`` epochs — older pins get the typed
    :class:`~repro.errors.StaleEpoch` rejection — but a *live* epoch (one
    with in-flight requests) is never freed until its last request is
    released, so a swap mid-window cannot strand a queued query.

    Appends are rejected (``MutateError``): the shard map partitions a
    fixed index space, and growing it online would silently re-route
    existing indices.  Grow by rebuilding the registry.
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
        self.params = params
        self.map = ShardMap(len(records), num_shards)
        self.client = PirClient(params, seed=seed)
        self.record_bytes = (
            record_bytes if record_bytes is not None else len(records[0])
        )
        self.layouts = [
            RecordLayout(
                params=params, record_bytes=self.record_bytes, num_records=size
            )
            for size in self.map.sizes
        ]
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

    @classmethod
    def random(
        cls,
        params: PirParams,
        num_records: int,
        record_bytes: int,
        num_shards: int,
        seed: int | None = None,
        **kwargs,
    ):
        """A registry over ``num_records`` seeded random records."""
        rng = np.random.default_rng(seed)
        records = [rng.bytes(record_bytes) for _ in range(num_records)]
        return cls(params, records, num_shards, record_bytes, seed=seed, **kwargs)

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
        """Route + build the real query against an epoch (default: current).

        Raises the typed :class:`~repro.errors.RoutingError` on
        out-of-range or non-integer indices (never a bare
        ``ValueError``/``IndexError``).  Admitting pins the epoch: it
        stays answerable until ``decode`` (or ``release``) is called for
        this request, even if later publishes push it out of the
        admission window.  The serving runtime releases a request it sheds
        or whose window fails; any other caller that drops a request
        before ``decode`` must do the same, or the epoch snapshot is
        pinned for the registry's lifetime.
        """
        state = self._state(epoch, admission=True)
        shard_id, local = self.map.route(global_index)
        request = ServeRequest(
            global_index=int(global_index),
            shard_id=shard_id,
            local_index=local,
            query=self.client.build_query(local, self.layouts[shard_id]),
            epoch=state.epoch,
        )
        state.inflight += 1
        return request

    def server(self, shard_id: int, epoch: int | None = None) -> PirServer:
        """The epoch-pinned replica (any live epoch, admissible or not)."""
        return self._state(epoch).servers[self.map.check_shard(shard_id)]

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        """One stacked ``answer_batch`` per epoch present in the window.

        A window that straddles a ``publish`` legitimately mixes epochs.
        """
        by_epoch: dict[int | None, list[int]] = {}
        for position, request in enumerate(requests):
            by_epoch.setdefault(request.epoch, []).append(position)
        responses: list = [None] * len(requests)
        for epoch, positions in by_epoch.items():
            answers = self.server(shard_id, epoch).answer_batch(
                [requests[i].query for i in positions]
            )
            for i, answer in zip(positions, answers):
                responses[i] = answer
        return responses

    def decode(self, request: ServeRequest, response: PirResponse) -> bytes:
        """Decrypt a shard's response, then release the request's epoch pin.

        The pin is released whether or not decryption succeeds — a
        malformed response must not retain the epoch forever.
        """
        try:
            layout = self.layouts[self.map.check_shard(request.shard_id)]
            return self.client.decode_response(response, request.local_index, layout)
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


#: Tiers :class:`SimShardRegistry` can price (the CLI's ``--serving``).
SIM_TIERS = ("plain", "batchpir", "kvpir", "hintpir")


@dataclass
class SimShardRegistry:
    """Geometry-only registry for simulated-clock serving.

    The logical database is ``params.num_db_polys`` records; shards follow
    the :class:`~repro.systems.cluster.IveCluster` record-level split, so
    each shard drops ``log2(num_shards)`` ColTor dimensions and is served by
    one :class:`ScaleUpSystem` whose simulator provides batched latencies.
    """

    params: PirParams
    num_shards: int = 1
    config: IveConfig | None = None
    # Which tier's window cost is modeled: "plain" per-query pipelines,
    # "batchpir" amortized cuckoo-batch passes, "kvpir" the same over the
    # tag-inflated slot table, "hintpir" one plaintext DB @ Q GEMM over
    # the raw database (Z_p entries of hint_entry_bits bits).
    tier: str = "plain"
    hint_entry_bits: int = 8
    design_batch: int = 64
    # kvpir mode: probes per lookup; None = kvpir.model.DEFAULT_MODEL_CANDIDATES
    candidates_per_lookup: int | None = None
    _service_cache: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.tier not in SIM_TIERS:
            raise ParameterError(
                f"unknown serving tier {self.tier!r}; expected one of {SIM_TIERS}"
            )
        if not modmath.is_power_of_two(self.num_shards):
            raise ParameterError("shard count must be a power of two")
        levels = modmath.ilog2(self.num_shards)
        if self.params.num_dims < levels:
            raise ParameterError(
                f"cannot split {self.params.num_dims} ColTor dimensions across "
                f"{self.num_shards} shards"
            )
        self.shard_params = self.params.with_db(
            num_dims=self.params.num_dims - levels
        )
        # Identical shards share one latency model.
        self.system = ScaleUpSystem(
            self.shard_params,
            self.config if self.config is not None else IveConfig.ive(),
        )
        self.map = ShardMap(self.params.num_db_polys, self.num_shards)
        self.batch_system = None
        if self.tier in ("batchpir", "kvpir"):
            # Batch-aware mode: a dispatch window's distinct indices are
            # served by amortized cuckoo-batch passes instead of per-query
            # scans.  Imported lazily — repro.batchpir sits above this layer.
            from repro.batchpir.model import model_bucket_params
            from repro.systems.scale_up import BatchScaleUpSystem

            if self.design_batch < 1:
                raise ParameterError("design batch must be at least 1")
            base = self.shard_params
            design_indices = self.design_batch
            if self.tier == "kvpir":
                # Keyword mode is batch mode over the tag-inflated slot
                # table: each simulated "record" stands for a key, and each
                # lookup spends candidates_per_lookup probes inside the pass.
                from repro.kvpir.model import (
                    DEFAULT_MODEL_CANDIDATES,
                    model_kv_slot_params,
                )

                if self.candidates_per_lookup is None:
                    self.candidates_per_lookup = DEFAULT_MODEL_CANDIDATES
                if self.candidates_per_lookup < 1:
                    raise ParameterError(
                        "a lookup must probe at least one candidate"
                    )
                base = model_kv_slot_params(base)
                design_indices = self.design_batch * self.candidates_per_lookup
            cuckoo, bucket_params = model_bucket_params(base, design_indices)
            self.batch_system = BatchScaleUpSystem(
                bucket_params, cuckoo.num_buckets, self.config
            )

    @property
    def num_records(self) -> int:
        return self.map.num_records

    @property
    def placement(self) -> DbPlacement:
        return self.system.placement

    def make_request(self, global_index: int) -> ServeRequest:
        shard_id, local = self.map.route(global_index)
        return ServeRequest(
            global_index=global_index, shard_id=shard_id, local_index=local
        )

    def release(self, request: ServeRequest) -> None:
        """Nothing is pinned in simulated time (``ServingMode.release``)."""

    def service_seconds(self, batch: int) -> float:
        """Batched service time of one shard (cached per batch size).

        In batchpir mode a window of ``batch`` queries costs
        ``ceil(batch / design_batch)`` amortized passes over the replicated
        bucket set — the coalesced cost model, not per-query pipelines.
        """
        if batch not in self._service_cache:
            if self.batch_system is not None:
                passes = math.ceil(batch / self.design_batch)
                seconds = passes * self.batch_system.pass_latency().total_s
            elif self.tier == "hintpir":
                seconds = self.system.simulator.hintpir_online_latency(
                    batch, self.hint_entry_bits
                ).total_s
            else:
                seconds = self.system.latency(batch).total_s
            self._service_cache[batch] = seconds
        return self._service_cache[batch]

    def waiting_window_s(self) -> float:
        """Paper policy: window = one RowSel DB read of the shard slice.

        The batchpir analog reads every bucket database once (the
        replicated set), which is what one coalesced pass amortizes; the
        hintpir analog is one pass over the *raw* database — the hint
        tier never streams the NTT-expanded form.
        """
        if self.batch_system is not None:
            return (
                self.batch_system.num_buckets
                * self.batch_system.simulator.min_db_read_seconds()
            )
        if self.tier == "hintpir":
            return self.system.simulator.min_raw_db_read_seconds()
        return self.system.min_db_read_seconds()
