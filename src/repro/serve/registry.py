"""Shard registry: one logical database partitioned across server replicas.

Record-level parallelism at the serving layer (Section V): a logical
database of R records is split into shards, each held by its own replica.
Every tier presents the runtime with the :class:`ServingMode` protocol, so
the runtime and the one thread executor never branch on the tier.  This
module holds the protocol, the plain-tier routing base
(:class:`PlainRouting`, shared with ``repro.mutate.serving``) and two
registries:

* :class:`RealShardRegistry` — every shard is a real :class:`PirServer`
  over a slice of the records, sharing one client ring so queries and
  responses are byte-correct end to end.
* :class:`SimShardRegistry` — geometry only; each shard is backed by the
  :class:`~repro.systems.scale_up.ScaleUpSystem` latency model so
  million-user load tests run in simulated time.

Both reuse the Section V placement rule
(:func:`repro.systems.scale_up.choose_placement`) to decide whether a
shard's preprocessed slice lives in HBM or spills to LPDDR.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.arch.config import IveConfig
from repro.errors import ParameterError, RoutingError
from repro.he import modmath
from repro.params import PirParams
from repro.pir.client import PirClient, PirQuery, PirResponse
from repro.pir.database import PirDatabase
from repro.pir.layout import RecordLayout
from repro.pir.server import PirServer
from repro.systems.scale_up import DbPlacement, ScaleUpSystem, choose_placement


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
    #: Database epoch the request was admitted under (versioned hot-swap,
    #: ``repro.mutate.serving``); None for unversioned registries.
    epoch: int | None = None
    #: Tracing id minted at the admission door (``repro.obs.trace``);
    #: rides the request through every layer so one timeline shows the
    #: whole path.  None when tracing is off.
    trace_id: int | None = None


def group_by_epoch(requests: list[ServeRequest]) -> dict[int, list[int]]:
    """Positions of a window's requests, keyed by admitted epoch.

    A dispatch window that straddles a ``publish`` legitimately mixes
    epochs; each group is answered as one stacked pass by that epoch's
    server.
    """
    groups: dict[int, list[int]] = {}
    for position, request in enumerate(requests):
        epoch = 0 if request.epoch is None else request.epoch
        groups.setdefault(epoch, []).append(position)
    return groups


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


@dataclass(frozen=True)
class ShardSpec:
    """Static description of one shard."""

    shard_id: int
    start: int
    num_records: int
    placement: DbPlacement
    preprocessed_bytes: int


class PlainRouting(ServingMode):
    """Client half of a contiguous plain-tier deployment.

    The shard map, the one :class:`PirClient` (and its ring) shared by
    every shard, and the per-shard record layouts — geometry only, so
    put/delete epochs never change them.  Subclasses own where the
    replicas and the ground truth live: in-process servers
    (:class:`RealShardRegistry`) or per-epoch servers
    (``VersionedShardRegistry``).
    """

    #: Epoch stamped on new requests; None for unversioned registries.
    current_epoch: int | None = None

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        num_shards: int,
        record_bytes: int | None = None,
        seed: int | None = None,
    ):
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

    def make_request(self, global_index: int) -> ServeRequest:
        """Route and build the real cryptographic query for a record.

        Raises the typed :class:`~repro.errors.RoutingError` on
        out-of-range or non-integer indices (never a bare
        ``ValueError``/``IndexError``).
        """
        shard_id, local = self.map.route(global_index)
        return ServeRequest(
            global_index=int(global_index),
            shard_id=shard_id,
            local_index=local,
            query=self.client.build_query(local, self.layouts[shard_id]),
            epoch=self.current_epoch,
        )

    def decode(self, request: ServeRequest, response: PirResponse) -> bytes:
        """Decrypt a shard's response back to record bytes."""
        layout = self.layouts[self.map.check_shard(request.shard_id)]
        return self.client.decode_response(response, request.local_index, layout)


class RealShardRegistry(PlainRouting):
    """N real ``PirServer`` replicas over one logical record set.

    The client's evaluation keys are registered with every replica at
    build time — the per-shard setup management a deployment would do per
    user.
    """

    def __init__(
        self,
        params: PirParams,
        records: list[bytes],
        num_shards: int,
        record_bytes: int | None = None,
        seed: int | None = None,
        config: IveConfig | None = None,
        backend: str | None = None,
    ):
        super().__init__(params, records, num_shards, record_bytes, seed)
        setup = self.client.setup_message()
        memory = (config if config is not None else IveConfig.ive()).memory
        self._dbs: list[PirDatabase] = []
        self._servers: list[PirServer] = []
        self.specs: list[ShardSpec] = []
        for shard_id in range(num_shards):
            span = self.map.span(shard_id)
            db = PirDatabase.from_records(records[span], params, record_bytes)
            pre = db.preprocess(self.client.ring, backend=backend)
            placement, _ = choose_placement(pre.stored_bytes, memory)
            self._dbs.append(db)
            self._servers.append(PirServer(pre, setup, backend=backend))
            self.specs.append(
                ShardSpec(
                    shard_id=shard_id,
                    start=span.start,
                    num_records=db.num_records,
                    placement=placement,
                    preprocessed_bytes=pre.stored_bytes,
                )
            )

    def server(self, shard_id: int) -> PirServer:
        return self._servers[self.map.check_shard(shard_id)]

    def answer_window(self, shard_id: int, requests: list[ServeRequest]) -> list:
        return self.server(shard_id).answer_batch([r.query for r in requests])

    def expected(self, global_index: int) -> bytes:
        """Ground-truth record bytes (for verification in tests/examples)."""
        shard_id, local = self.map.route(global_index)
        return self._dbs[shard_id].record(local)


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
