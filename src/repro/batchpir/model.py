"""Amortized accelerator cost model for cuckoo-batched PIR.

Answers the deployment question the real-crypto path cannot (it only runs
at toy parameters): at paper scale, how much server time does one query
cost inside a k-batch versus standing alone?  The model reuses the IVE
cycle simulator on the derived bucket geometry — expand/tournament
schedules, the RowSel roofline, NoC and PCIe — via
:class:`~repro.systems.scale_up.BatchScaleUpSystem`, so the batch numbers
and the paper-reproduction numbers come from one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.batchpir.layout import bucket_geometry
from repro.hashing.cuckoo import DEFAULT_NUM_HASHES, CuckooConfig, num_buckets_for
from repro.params import PirParams
from repro.systems.scale_up import BatchScaleUpSystem, ScaleUpSystem


def model_bucket_params(
    params: PirParams,
    k: int,
    record_bytes: int | None = None,
    num_hashes: int = DEFAULT_NUM_HASHES,
) -> tuple[CuckooConfig, PirParams]:
    """Deployment geometry for a design batch of k at paper scale.

    Uses the mean bucket occupancy (``num_hashes * D / B``); the real
    layout sizes buckets to the observed maximum, but the power-of-two
    geometry rounding already gives the same headroom at model scale.
    """
    config = CuckooConfig(num_buckets=num_buckets_for(k), num_hashes=num_hashes)
    records = params.num_db_polys
    size = record_bytes if record_bytes is not None else params.poly_payload_bytes
    mean_bucket = math.ceil(num_hashes * records / config.num_buckets)
    return config, bucket_geometry(params, mean_bucket, size)


@dataclass(frozen=True)
class BatchCostPoint:
    """Modeled cost of one design batch size k."""

    k: int
    num_buckets: int
    single_query_s: float
    batch_pass_s: float
    amortized_per_query_s: float
    placement: str
    replicated_db_bytes: int

    @property
    def speedup(self) -> float:
        """Amortization factor vs k independent single queries."""
        return self.single_query_s / self.amortized_per_query_s


def amortized_cost_curve(
    params: PirParams,
    ks: tuple[int, ...] = (4, 16, 64, 256),
    config=None,
) -> list[BatchCostPoint]:
    """Amortized per-query cost vs k (the benchmark's model half).

    The baseline is k INDEPENDENT single queries — each paying one full
    ExpandQuery + RowSel DB scan + ColTor at batch 1 — against one
    amortized batch pass over the replicated bucket set.
    """
    single = ScaleUpSystem(params, config).latency(1).total_s
    points = []
    for k in ks:
        cuckoo, bucket_params = model_bucket_params(params, k)
        system = BatchScaleUpSystem(bucket_params, cuckoo.num_buckets, config)
        pass_s = system.pass_latency().total_s
        points.append(
            BatchCostPoint(
                k=k,
                num_buckets=cuckoo.num_buckets,
                single_query_s=single,
                batch_pass_s=pass_s,
                amortized_per_query_s=pass_s / k,
                placement=system.placement.value,
                replicated_db_bytes=system.preprocessed_db_bytes,
            )
        )
    return points
