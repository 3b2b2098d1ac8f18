"""Exception types shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ReproError):
    """A parameter set is inconsistent or unsupported."""


class DomainError(ReproError):
    """A polynomial was used in the wrong representation domain."""


class NoiseOverflowError(ReproError):
    """Decryption noise exceeded the correctness bound."""


class LayoutError(ReproError):
    """A database layout or record mapping is invalid."""


class SimulationError(ReproError):
    """The architectural simulator reached an inconsistent state."""


class BatchPirError(ReproError):
    """Base class for errors raised by the batch-PIR layer (repro.batchpir)."""


class BatchPlanError(BatchPirError):
    """A batch of indices could not be cuckoo-placed within the stash bound."""


class KvPirError(ReproError):
    """Base class for errors raised by the keyword-PIR layer (repro.kvpir)."""


class KvBuildError(KvPirError):
    """A key-value store could not be cuckoo-placed into its slot table."""


class KeyNotFound(KvPirError):
    """A keyword lookup matched no record tag in any candidate slot.

    False positives (an absent key decoding to garbage) are bounded by the
    tag width: each of the ~``num_hashes + stash`` probed slots matches a
    random tag with probability ``2**-(8 * tag_bytes)``.
    """

    def __init__(self, key: bytes):
        self.key = key
        super().__init__(f"no record tagged for key {key!r}")


class HintPirError(ReproError):
    """Base class for errors raised by the hint-PIR tier (repro.hintpir)."""


class MutateError(ReproError):
    """Base class for errors raised by the update layer (repro.mutate)."""


class ObsError(ReproError):
    """An observability artifact (spans, trace, digest) failed validation."""


class SloError(ObsError):
    """An SLO specification is malformed or internally inconsistent.

    Raised when parsing a ``--slo`` string or constructing an
    :class:`~repro.obs.slo.SloSpec` with impossible windows, quantiles,
    or objectives — configuration faults, distinct from a *breach*,
    which is a verdict (data), never an exception.
    """


class ServeError(ReproError):
    """Base class for errors raised by the serving runtime (repro.serve)."""


class QueueFullError(ServeError):
    """Admission control shed the query: the shard queue is at capacity."""


class ShuttingDownError(ServeError):
    """The runtime is draining and no longer accepts new queries."""


class RoutingError(ServeError):
    """A query could not be mapped to a shard."""


class ClusterError(ServeError):
    """Base class for errors raised by the multi-process runtime (repro.cluster)."""


class WorkerDied(ClusterError):
    """A worker process exited (or stopped heartbeating) with work in flight.

    The coordinator retries the affected requests on a surviving replica;
    this error surfaces only when every retry budget or replica is
    exhausted, so the caller sees a typed rejection instead of a silently
    dropped or wrong answer.
    """

    def __init__(self, worker_id: int, reason: str):
        self.worker_id = worker_id
        self.reason = reason
        super().__init__(f"worker {worker_id} died: {reason}")


class NoReplicaError(ClusterError):
    """No live worker owns (or could be rebalanced onto) the target shard."""


class StaleEpoch(ServeError):
    """A request was pinned to an epoch the registry no longer serves.

    Versioned hot-swap retains a bounded window of database epochs so
    in-flight requests can finish against the snapshot they were admitted
    under; a client pinned further back than that window gets this typed
    rejection (retry against the current epoch) instead of silently
    decoding against the wrong database version.
    """

    def __init__(self, epoch: int, current: int, oldest_live: int):
        self.epoch = epoch
        self.current = current
        self.oldest_live = oldest_live
        super().__init__(
            f"epoch {epoch} is no longer served (live epochs "
            f"[{oldest_live}, {current}])"
        )


class HintStale(ServeError):
    """A hint-PIR query carried a hint too old to patch with a delta.

    The hint server retains per-epoch dirty-column deltas for a bounded
    window; a client whose offline hint predates that window cannot be
    brought current by a delta-hint and must re-download the full hint.
    Answering anyway would decode to a *wrong byte* (the ``ΔDB @ A @ s``
    term corrupts the noise floor), so the server refuses with this typed
    rejection instead.
    """

    def __init__(self, hint_epoch: int, current: int, oldest_patchable: int):
        self.hint_epoch = hint_epoch
        self.current = current
        self.oldest_patchable = oldest_patchable
        super().__init__(
            f"hint from epoch {hint_epoch} is unpatchable (delta window "
            f"covers [{oldest_patchable}, {current}]); re-download the hint"
        )
