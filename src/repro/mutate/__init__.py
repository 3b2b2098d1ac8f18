"""repro.mutate — epoch-versioned online updates for mutable PIR databases.

The paper's cost story assumes a static preprocessed database; this
subsystem makes it mutable without re-preprocessing the world: typed
update logs (put/delete/append), dirty-plane delta application with
copy-on-write epoch snapshots and sublinear-work accounting, and the
accelerator-side update cost model.  The plain tier's serving registry
(``repro.serve.RealShardRegistry``) hot-swaps these snapshots with zero
downtime.
"""

from repro.mutate.log import (
    Append,
    Delete,
    Put,
    UpdateLog,
)
from repro.mutate.model import ChurnPoint, churn_update_curve, expected_dirty_polys
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
    "Put",
    "UpdateCost",
    "UpdateLog",
    "VersionedDatabase",
    "apply_record_updates",
    "churn_update_curve",
    "expected_dirty_polys",
]
