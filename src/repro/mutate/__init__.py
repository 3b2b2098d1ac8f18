"""repro.mutate — epoch-versioned online updates for mutable PIR databases.

The paper's cost story assumes a static preprocessed database; this
subsystem makes it mutable without re-preprocessing the world: typed
update logs (put/delete/append, keyword put/delete), dirty-plane delta
application with copy-on-write epoch snapshots and sublinear-work
accounting, cuckoo-aware deltas for the batched/keyword layouts (bounded
re-insertion + stash spill accounting), zero-downtime epoch hot-swap for
the serving runtime, and the accelerator-side update cost model.
"""

from repro.mutate.kv import (
    KvUpdateCost,
    VersionedKvDatabase,
    apply_batch_record_updates,
)
from repro.mutate.log import (
    Append,
    Delete,
    KvDelete,
    KvPut,
    KvUpdateLog,
    Put,
    UpdateLog,
)
from repro.mutate.model import ChurnPoint, churn_update_curve, expected_dirty_polys
from repro.mutate.serving import PublishResult, VersionedShardRegistry
from repro.mutate.versioned import (
    EpochSnapshot,
    UpdateCost,
    VersionedDatabase,
    apply_record_updates,
)

__all__ = [
    "Append",
    "ChurnPoint",
    "Delete",
    "EpochSnapshot",
    "KvDelete",
    "KvPut",
    "KvUpdateCost",
    "KvUpdateLog",
    "PublishResult",
    "Put",
    "UpdateCost",
    "UpdateLog",
    "VersionedDatabase",
    "VersionedKvDatabase",
    "VersionedShardRegistry",
    "apply_batch_record_updates",
    "apply_record_updates",
    "churn_update_curve",
    "expected_dirty_polys",
]
