"""repro.serve — async multi-shard PIR serving runtime (ROADMAP north star).

Turns the functional pipeline into an online service: a shard registry
partitions one logical database across ``PirServer`` replicas, per-shard
dispatchers apply the paper's waiting-window batch policy behind bounded
admission queues, and a worker layer executes each window — the tier's
``ServingMode.answer_window`` — either with real cryptography (the one
thread pool) or against the accelerator latency model on a virtual-time
event loop, so million-user load tests run in wall-seconds.  One process
serves every tier: the native kernels already spread each large call
over the cores (``repro.he.native.fan_out``).
"""

from repro.serve.dispatcher import (
    AdmissionConfig,
    ServeResult,
    ServeRuntime,
    ShardDispatcher,
)
from repro.serve.loadgen import (
    LoadReport,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    run_open_loop,
    uniform_indices,
    zipf_indices,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import (
    RealShardRegistry,
    ServeRequest,
    ServingMode,
    ShardMap,
    SimShardRegistry,
)
from repro.serve.workers import (
    RealCryptoBackend,
    SimulatedBackend,
    VirtualTimeLoop,
    WindowExecutor,
    run_in_virtual_time,
)

__all__ = [
    "AdmissionConfig",
    "LoadReport",
    "RealCryptoBackend",
    "RealShardRegistry",
    "ServeMetrics",
    "ServeRequest",
    "ServeResult",
    "ServeRuntime",
    "ServingMode",
    "ShardDispatcher",
    "ShardMap",
    "SimShardRegistry",
    "SimulatedBackend",
    "VirtualTimeLoop",
    "WindowExecutor",
    "bursty_arrivals",
    "diurnal_arrivals",
    "poisson_arrivals",
    "run_in_virtual_time",
    "run_open_loop",
    "uniform_indices",
    "zipf_indices",
]
