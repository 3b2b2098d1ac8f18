"""IVE accelerator model: configuration, cycle simulator, area/power/energy.

This package is the paper's primary contribution rebuilt in Python: the
32-core accelerator with versatile sysNTTUs (Section IV), the cycle-level
performance simulator (Section VI-A methodology), and the Table II cost
models with every ablation design point (Base / +Sp / +SysNTTU / ARK-like).
"""

from repro.arch.area import AreaBreakdown, area
from repro.arch.config import GB, KB, MB, IveConfig, MemoryConfig
from repro.arch.energy import (
    EnergyBreakdown,
    batch_energy,
    edap,
    edap_ratio,
    energy_per_query,
    total_dram_bytes,
)
from repro.arch.opgraph import GraphBuilder, GraphOp, OpGraph
from repro.arch.power import PowerBreakdown, power
from repro.arch.simulator import IveSimulator, PirLatency, StepTiming, simulate_graph
from repro.arch.units import OpCost, Unit, UnitTimings

__all__ = [
    "GB",
    "KB",
    "MB",
    "AreaBreakdown",
    "EnergyBreakdown",
    "GraphBuilder",
    "GraphOp",
    "IveConfig",
    "IveSimulator",
    "MemoryConfig",
    "OpCost",
    "OpGraph",
    "PirLatency",
    "PowerBreakdown",
    "StepTiming",
    "Unit",
    "UnitTimings",
    "area",
    "batch_energy",
    "edap",
    "edap_ratio",
    "energy_per_query",
    "power",
    "simulate_graph",
    "total_dram_bytes",
]
