"""GPU baseline: OnionPIRv2 on RTX 4090 / H100 (Fig. 6, Fig. 12).

Each PIR step is timed as max(compute, memory) on a roofline device.  The
crucial modeling choice is *kernel-granular* memory traffic for
ExpandQuery and ColTor: a CUDA implementation runs each core function
(automorphism, iNTT, iCRT/extract, digit NTTs, gadget GEMM, element-wise
combine) as a kernel whose operands stream through global memory — GPUs
have no managed scratchpad to keep evks/RGSWs and intermediates resident
across kernels, which is exactly the gap IVE's RF + HS scheduling closes.
RowSel is a single fused GEMM kernel: one DB stream amortized over the
batch (Fig. 6's observation).

Constants are calibrated against Fig. 12's batched-GPU bars (IVE ends up
~15-19x over the best batched GPU, paper: 18.7x gmean).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import complexity
from repro.baselines.roofline import H100, RTX4090, RooflineDevice
from repro.params import PirParams

#: Fraction of roofline peaks a tuned CUDA implementation sustains.
DEFAULT_EFFICIENCY = 0.5
#: Extra global-memory traffic per kernel beyond the ideal operand bytes
#: (workspace double-buffering, uncoalesced twiddle/digit accesses).
KERNEL_TRAFFIC_OVERHEAD = 2.0


@dataclass(frozen=True)
class GpuStepTimes:
    """Per-step execution time for one batch (seconds)."""

    expand_s: float
    rowsel_s: float
    coltor_s: float
    batch: int

    @property
    def total_s(self) -> float:
        return self.expand_s + self.rowsel_s + self.coltor_s

    @property
    def qps(self) -> float:
        return self.batch / self.total_s

    @property
    def per_query_s(self) -> float:
        return self.total_s / self.batch

    def breakdown(self) -> dict[str, float]:
        return {
            "ExpandQuery": self.expand_s,
            "RowSel": self.rowsel_s,
            "ColTor": self.coltor_s,
        }


class GpuPirModel:
    """OnionPIR-style PIR on one GPU."""

    def __init__(
        self,
        device: RooflineDevice,
        params: PirParams,
        efficiency: float = DEFAULT_EFFICIENCY,
        kernel_overhead: float = KERNEL_TRAFFIC_OVERHEAD,
    ):
        self.device = device
        self.params = params
        self.efficiency = efficiency
        self.kernel_overhead = kernel_overhead
        self._counts = complexity.pir_step_counts(params)

    # -- kernel-granular traffic (bytes per query) ---------------------------
    def subs_kernel_bytes(self) -> float:
        """Global-memory bytes one Subs moves across its kernel sequence."""
        p = self.params
        poly = p.poly_bytes
        ell = p.gadget_len
        auto = 4 * poly  # read + write the (a, b) pair
        intt = 2 * poly
        icrt = (1 + ell) * poly  # read a, write ℓ digit polys
        ntts = 2 * ell * poly
        gemm = (3 * ell + 2) * poly  # digits + evk (2ℓ) + output ct
        combine = 8 * poly  # two ct-level add/sub kernels
        return (auto + intt + icrt + ntts + gemm + combine) * self.kernel_overhead

    def cmux_kernel_bytes(self) -> float:
        """Global-memory bytes one ColTor node (⊡ + adds) moves."""
        p = self.params
        poly = p.poly_bytes
        ell = p.gadget_len
        diff = 6 * poly  # read two cts, write difference
        intt = 4 * poly
        icrt = (2 + 2 * ell) * poly
        ntts = 4 * ell * poly
        gemm = (6 * ell + 2) * poly  # digits + RGSW (4ℓ) + output
        accum = 6 * poly
        return (diff + intt + icrt + ntts + gemm + accum) * self.kernel_overhead

    def expand_traffic_bytes(self, batch: int) -> float:
        return batch * (self.params.d0 - 1) * self.subs_kernel_bytes()

    def coltor_traffic_bytes(self, batch: int) -> float:
        nodes = (1 << self.params.num_dims) - 1
        return batch * nodes * self.cmux_kernel_bytes()

    def rowsel_traffic_bytes(self, batch: int) -> float:
        """One fused GEMM: DB streamed once, per-query cts negligible-ish."""
        p = self.params
        db_bytes = p.num_db_polys * p.poly_bytes
        ct_bytes = batch * (p.d0 + p.num_db_polys // p.d0) * p.ct_bytes
        return db_bytes + ct_bytes

    # -- capacity ---------------------------------------------------------
    @property
    def preprocessed_db_bytes(self) -> int:
        return self.params.num_db_polys * self.params.poly_bytes

    def per_query_working_bytes(self) -> int:
        """Resident state per in-flight query: keys + tree intermediates."""
        p = self.params
        return (
            p.num_evks * p.evk_bytes
            + p.num_dims * p.rgsw_bytes
            + (p.d0 + 3 * (p.num_db_polys // p.d0)) * p.ct_bytes
        )

    def max_batch(self) -> int:
        """Largest batch the device memory supports (0: DB does not fit)."""
        free = self.device.memory_capacity - self.preprocessed_db_bytes
        if free <= 0:
            return 0
        return max(0, int(free // self.per_query_working_bytes()))

    # -- timing -----------------------------------------------------------
    def step_times(self, batch: int) -> GpuStepTimes:
        eff = self.efficiency
        expand_s = self.device.time_seconds(
            self._counts["ExpandQuery"].total_mults * batch,
            self.expand_traffic_bytes(batch),
            eff,
        )
        rowsel_s = self.device.time_seconds(
            self._counts["RowSel"].total_mults * batch,
            self.rowsel_traffic_bytes(batch),
            eff,
        )
        coltor_s = self.device.time_seconds(
            self._counts["ColTor"].total_mults * batch,
            self.coltor_traffic_bytes(batch),
            eff,
        )
        return GpuStepTimes(
            expand_s=expand_s, rowsel_s=rowsel_s, coltor_s=coltor_s, batch=batch
        )

    def qps(self, batch: int | None = None) -> float:
        """Throughput at the given batch (default: the device maximum)."""
        if batch is None:
            batch = max(1, self.max_batch())
        return self.step_times(batch).qps

    def single_query_latency(self) -> float:
        return self.step_times(1).total_s

    def energy_per_query(self, batch: int | None = None) -> float:
        """TDP-scaled energy, the NVML-style accounting of Section VI-B."""
        if batch is None:
            batch = max(1, self.max_batch())
        times = self.step_times(batch)
        return self.device.tdp_watts * times.total_s / batch


def best_gpu_batched_qps(params: PirParams) -> tuple[str, float]:
    """The strongest batched GPU baseline for Fig. 12's comparison."""
    best_name, best_qps = "", 0.0
    for device in (RTX4090, H100):
        model = GpuPirModel(device, params)
        if model.max_batch() >= 1:
            q = model.qps()
            if q > best_qps:
                best_name, best_qps = device.name, q
    return best_name, best_qps
