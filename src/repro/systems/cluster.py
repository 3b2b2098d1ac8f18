"""Scale-out IVE cluster with record-level parallelism (Section V).

The DB matrix is partitioned along the D/D0 dimension across
``num_systems`` IVE systems connected by a PCIe switch.  Every system
expands every query (it needs the expanded selection vector for its rows),
runs RowSel on its slice, and reduces its local columns with ColTor; the
per-system partial results (one ciphertext each) are gathered to a single
system, which finishes the top log2(num_systems) tournament levels.  The
gather moves one ciphertext per system per query, so the communication
overhead is negligible (Fig. 13d "Comm. (Sys.<->Sys.)").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import IveConfig

from repro.errors import ParameterError
from repro.he import modmath
from repro.params import PirParams
from repro.systems.scale_up import ScaleUpSystem


@dataclass(frozen=True)
class ClusterLatency:
    """Batched latency breakdown for the cluster (Fig. 13d)."""

    batch: int
    num_systems: int
    expand_s: float
    rowsel_s: float
    local_coltor_s: float
    gather_s: float
    final_coltor_s: float
    comm_host_s: float

    @property
    def total_s(self) -> float:
        return (
            self.expand_s
            + self.rowsel_s
            + self.local_coltor_s
            + self.gather_s
            + self.final_coltor_s
            + self.comm_host_s
        )

    @property
    def qps(self) -> float:
        return self.batch / self.total_s

    @property
    def per_system_qps(self) -> float:
        return self.qps / self.num_systems


class IveCluster:
    """num_systems scale-up systems splitting one database via RLP."""

    def __init__(
        self,
        params: PirParams,
        num_systems: int,
        config: IveConfig | None = None,
    ):
        if not modmath.is_power_of_two(num_systems):
            raise ParameterError("cluster size must be a power of two")
        self.split_levels = modmath.ilog2(num_systems)
        if params.num_dims < self.split_levels:
            raise ParameterError(
                f"cannot split {params.num_dims} ColTor dimensions across "
                f"{num_systems} systems"
            )
        self.params = params
        self.num_systems = num_systems
        self.config = config if config is not None else IveConfig.ive()
        #: Each system serves a slice with log2(num_systems) fewer dimensions.
        self.slice_params = params.with_db(
            num_dims=params.num_dims - self.split_levels
        )
        self.system = ScaleUpSystem(self.slice_params, self.config)

    @property
    def raw_db_bytes(self) -> int:
        return self.params.num_db_polys * self.params.plain_poly_bytes

    def latency(self, batch: int) -> ClusterLatency:
        """All systems progress in lockstep on the shared batch."""
        slice_lat = self.system.latency(batch)
        sim = self.system.simulator
        # Gather: every non-final system ships one ct per query to the root.
        gather_bytes = batch * (self.num_systems - 1) * self.params.ct_bytes
        gather_s = gather_bytes / self.config.pcie_bandwidth
        # Final tournament: (num_systems - 1) cmux nodes per query on the
        # root system's cores (QLP over the batch).
        _, coltor_timing = sim.coltor_timing()
        local_nodes = max(1, (1 << self.slice_params.num_dims) - 1)
        per_cmux_cycles = coltor_timing.cycles / local_nodes
        rounds = math.ceil(batch / self.config.num_cores)
        final_s = (
            rounds
            * (self.num_systems - 1)
            * per_cmux_cycles
            / self.config.clock_hz
        )
        return ClusterLatency(
            batch=batch,
            num_systems=self.num_systems,
            expand_s=slice_lat.expand_s,
            rowsel_s=slice_lat.rowsel_s,
            local_coltor_s=slice_lat.coltor_s + slice_lat.noc_s,
            gather_s=gather_s,
            final_coltor_s=final_s,
            comm_host_s=slice_lat.comm_s,
        )

    def qps(self, batch: int) -> float:
        return self.latency(batch).qps
