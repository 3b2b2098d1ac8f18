"""repro.mutate — epoch-versioned online updates for mutable PIR databases.

The paper's cost story assumes a static preprocessed database; this
subsystem makes it mutable without re-preprocessing the world: typed
update logs (put/delete/append), dirty-plane delta application with
copy-on-write epoch snapshots and sublinear-work accounting,
zero-downtime epoch hot-swap for the serving runtime, and the
accelerator-side update cost model.
"""

from repro.mutate.log import (
    Append,
    Delete,
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
    "PublishResult",
    "Put",
    "UpdateCost",
    "UpdateLog",
    "VersionedDatabase",
    "VersionedShardRegistry",
    "apply_record_updates",
    "churn_update_curve",
    "expected_dirty_polys",
]
