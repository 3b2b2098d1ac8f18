"""repro.kvpir — keyword PIR over sparse key-value stores.

The paper's target applications (contact discovery, password-breach and
CT auditing) query by *key*, not by dense index.  This subsystem closes
that gap with no client-side directory: the server cuckoo-places
``tag(key) || value`` records into a dense slot table (``layout``), the
client derives its candidate slots from the key alone and probes them
with batch PIR (``client``), the server answers with the per-bucket
pipelines (``server``), and tag matching decodes the value — or the typed
``KeyNotFound`` with a false-positive probability bounded by the tag
width.  ``model`` prices the keyword overhead on IVE at paper scale;
``serving`` routes key lookups through the ``repro.serve`` dispatch
windows.  The cuckoo machinery is shared with ``repro.batchpir`` via
``repro.hashing.cuckoo``.
"""

from repro.kvpir.client import KvPirClient, KvPlan, KvQuery, KvResponse
from repro.kvpir.layout import (
    DEFAULT_LOOKUP_BATCH,
    DEFAULT_TAG_BYTES,
    KvDatabase,
    KvLayout,
    key_tag,
    random_items,
)
from repro.kvpir.model import (
    KvCostPoint,
    keyword_overhead_curve,
    kv_cost_point,
    model_kv_slot_params,
)
from repro.kvpir.server import KvLookupResult, KvPirProtocol, KvPirServer
from repro.kvpir.serving import KeyShardMap, KvServeRegistry

__all__ = [
    "DEFAULT_LOOKUP_BATCH",
    "DEFAULT_TAG_BYTES",
    "KeyShardMap",
    "KvCostPoint",
    "KvDatabase",
    "KvLayout",
    "KvLookupResult",
    "KvPirClient",
    "KvPirProtocol",
    "KvPirServer",
    "KvPlan",
    "KvQuery",
    "KvResponse",
    "KvServeRegistry",
    "key_tag",
    "keyword_overhead_curve",
    "kv_cost_point",
    "model_kv_slot_params",
    "random_items",
]
