"""Hardware configuration of IVE and its ablation/baseline design points.

Default values follow Section IV and VI-A: 32 vector cores at 1 GHz, 64
lanes each, two sysNTTUs per core (each a 32x16 systolic array doubling as
a fully pipelined NTT datapath), an iCRTU with sqrt(N) cells, a 64-lane
EWU, a fully pipelined AutoU, and 5 MB of managed SRAM per core (4 MB RF +
448 KB DB buffer + 448 KB iCRT buffer).  The memory system is four 24 GB
HBM stacks at 512 GB/s each, optionally extended with four 128 GB LPDDR
modules at 128 GB/s each (Section V scale-up).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory: HBM for working data, LPDDR as a DB expander."""

    hbm_stacks: int = 4
    hbm_bw_per_stack: float = 512e9  # B/s (HBM3 [82])
    hbm_capacity_per_stack: int = 24 * GB
    lpddr_modules: int = 4
    lpddr_bw_per_module: float = 128e9  # B/s ([83])
    lpddr_capacity_per_module: int = 128 * GB

    @property
    def hbm_bandwidth(self) -> float:
        return self.hbm_stacks * self.hbm_bw_per_stack

    @property
    def hbm_capacity(self) -> int:
        return self.hbm_stacks * self.hbm_capacity_per_stack

    @property
    def lpddr_bandwidth(self) -> float:
        return self.lpddr_modules * self.lpddr_bw_per_module

    @property
    def lpddr_capacity(self) -> int:
        return self.lpddr_modules * self.lpddr_capacity_per_module


@dataclass(frozen=True)
class IveConfig:
    """One accelerator chip (plus its memory system)."""

    name: str = "IVE"
    num_cores: int = 32
    lanes: int = 64
    clock_hz: float = 1e9
    # Functional units, per core:
    sysnttu_per_core: int = 2
    sysnttu_gemm_macs: int = 512  # 32 x 16 systolic cells, 1 MMAD/cycle each
    sysnttu_array_cols: int = 16  # logN + 4: columns a streamed element reuses
    sysnttu_ntt_butterflies: int = 384  # sqrt(N)/2 * logN for N = 2^12
    ewu_macs: int = 64  # sqrt(N) element-wise MMADs per cycle
    icrtu_cells: int = 64  # sqrt(N) iCRT cells
    # Design-point switches:
    unified_sysnttu: bool = True  # False = separate NTT unit + GEMM unit (Base)
    special_primes: bool = True  # Solinas-like moduli (Section IV-G)
    gemm_on_madu: bool = False  # ARK-like: GEMM mapped to multiply-add units
    madu_macs: int = 128  # two 64-lane MADUs (ARK [59])
    # On-chip SRAM, per core (capacities and Section VI-A bandwidths):
    rf_bytes: int = 4 * MB
    db_buffer_bytes: int = 448 * KB
    icrt_buffer_bytes: int = 448 * KB
    rf_bandwidth: float = 2.04e12  # B/s, wide-ported interleaved banks
    db_buffer_bandwidth: float = 0.81e12
    icrt_buffer_bandwidth: float = 0.41e12
    # Interconnect:
    noc_bytes_per_cycle_per_core: int = 256  # fixed-wire global transposition
    pcie_bandwidth: float = 128e9  # scale-out switch (Section V)
    memory: MemoryConfig = MemoryConfig()

    def __post_init__(self):
        if self.num_cores < 1 or self.lanes < 1:
            raise ParameterError("cores and lanes must be positive")
        if self.sysnttu_per_core < 1:
            raise ParameterError("need at least one NTT unit per core")

    # -- derived throughputs (per core, per cycle) -------------------------
    @property
    def ntt_butterflies_per_core(self) -> int:
        return self.sysnttu_per_core * self.sysnttu_ntt_butterflies

    @property
    def gemm_macs_per_core(self) -> int:
        """GEMM throughput: systolic sysNTTUs, or MADUs for the ARK-like point."""
        if self.gemm_on_madu:
            return self.madu_macs
        return self.sysnttu_per_core * self.sysnttu_gemm_macs

    @property
    def chip_gemm_macs_per_cycle(self) -> int:
        return self.num_cores * self.gemm_macs_per_core

    @property
    def sram_per_core(self) -> int:
        return self.rf_bytes + self.db_buffer_bytes + self.icrt_buffer_bytes

    @property
    def per_core_hbm_bandwidth(self) -> float:
        """Each HBM channel statically mapped to a core (Section IV-F)."""
        return self.memory.hbm_bandwidth / self.num_cores

    @property
    def noc_bandwidth(self) -> float:
        return self.num_cores * self.noc_bytes_per_cycle_per_core * self.clock_hz

    # -- named design points ------------------------------------------------
    @staticmethod
    def ive() -> "IveConfig":
        """The full 32-core IVE configuration (Table II)."""
        return IveConfig()

    @staticmethod
    def base() -> "IveConfig":
        """Fig. 13e 'Base': separate NTT and GEMM units, generic primes."""
        return IveConfig(name="Base", unified_sysnttu=False, special_primes=False)

    @staticmethod
    def base_sp() -> "IveConfig":
        """Fig. 13e '+Sp': Base plus special primes."""
        return IveConfig(name="+Sp", unified_sysnttu=False, special_primes=True)

    @staticmethod
    def ark_like() -> "IveConfig":
        """Fig. 14a ARK-like baseline: 64 cores, MADU-mapped GEMM, 2 MB/core.

        Total NTT throughput matches IVE (64 NTTUs chip-wide); GEMM falls
        back to the two 64-lane multiply-add units; per-core scratchpad is
        2 MB (Section VI-E).
        """
        return IveConfig(
            name="ARK-like",
            num_cores=64,
            sysnttu_per_core=1,
            unified_sysnttu=False,
            gemm_on_madu=True,
            madu_macs=128,
            rf_bytes=2 * MB,  # one flat 2 MB scratchpad, no carved buffers
            db_buffer_bytes=0,
            icrt_buffer_bytes=0,
        )
