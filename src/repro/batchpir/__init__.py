"""repro.batchpir — cuckoo-hashed multi-query batch PIR.

One client retrieves k records for roughly one amortized pass over the
(replicated) database instead of k full passes: records are bucketed by
3-way cuckoo hashing (``repro.hashing.cuckoo``), each bucket is an independent small
PIR database sharing one geometry (``layout``), the client plans k wanted
indices onto buckets and pads the rest with dummies (``client``), and the
server runs the per-bucket ExpandQuery -> RowSel -> ColTor pipelines
(``server``).  ``model`` prices the amortization on the IVE accelerator at
paper scale; ``serving`` plugs batched passes into the ``repro.serve``
dispatch windows.
"""

from repro.batchpir.client import (
    BatchPirClient,
    BatchPlan,
    BatchQuery,
    BatchResponse,
)
from repro.batchpir.layout import BatchDatabase, BatchLayout, bucket_geometry
from repro.batchpir.model import (
    BatchCostPoint,
    amortized_cost_curve,
    model_bucket_params,
)
from repro.batchpir.server import (
    BatchPirProtocol,
    BatchPirServer,
    BatchRetrievalResult,
)
from repro.hashing.cuckoo import (
    CuckooAssignment,
    CuckooConfig,
    cuckoo_assign,
    num_buckets_for,
)

__all__ = [
    "BatchCostPoint",
    "BatchDatabase",
    "BatchLayout",
    "BatchPirClient",
    "BatchPirProtocol",
    "BatchPirServer",
    "BatchPlan",
    "BatchQuery",
    "BatchResponse",
    "BatchRetrievalResult",
    "CuckooAssignment",
    "CuckooConfig",
    "amortized_cost_curve",
    "bucket_geometry",
    "cuckoo_assign",
    "model_bucket_params",
    "num_buckets_for",
]
