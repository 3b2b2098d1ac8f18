"""Schedule representation for the binary-tree PIR steps (Fig. 7).

Both ExpandQuery (1 ciphertext fans out to D0) and ColTor (2^d entries
reduce to 1) are binary trees whose nodes consume a level-specific shared
key (evk_r / ct_RGSW).  A :class:`Schedule` is the ordered list of compute
steps a traversal produces, each annotated with the DRAM transfers the
on-chip capacity forces at that point.  The same object feeds both the
Fig. 8 traffic accounting and the cycle-level simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ParameterError


class StepKind(enum.Enum):
    """Compute operation performed by one schedule step."""

    CMUX = "cmux"  # ColTor node: bit ⊡ (Y - X) + X
    EXPAND = "expand"  # ExpandQuery node: Subs + even/odd combine


class Traversal(enum.Enum):
    """Operation scheduling policies from Section IV-A."""

    BFS = "bfs"
    DFS = "dfs"
    HS_BFS = "hs-bfs"  # hierarchical search, subtrees processed BFS
    HS_DFS = "hs-dfs"  # hierarchical search, subtrees processed DFS


@dataclass(frozen=True)
class Step:
    """One tree-node computation plus the DRAM traffic issued around it."""

    kind: StepKind
    level: int  # tree level (0 = leaves for ColTor, 0 = root for Expand)
    key_load: bool  # shared key (evk / RGSW) fetched from DRAM
    ct_loads: int  # BFV ciphertexts fetched from DRAM
    ct_stores: int  # BFV ciphertexts written back to DRAM


@dataclass(frozen=True)
class TrafficSummary:
    """DRAM bytes by category — the Fig. 8 bar segments."""

    ct_load_bytes: float
    ct_store_bytes: float
    key_load_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.ct_load_bytes + self.ct_store_bytes + self.key_load_bytes

    def scale(self, factor: float) -> "TrafficSummary":
        return TrafficSummary(
            ct_load_bytes=self.ct_load_bytes * factor,
            ct_store_bytes=self.ct_store_bytes * factor,
            key_load_bytes=self.key_load_bytes * factor,
        )


@dataclass
class Schedule:
    """Ordered steps for one query's tree, plus aggregate traffic."""

    steps: list[Step]
    ct_bytes: int
    key_bytes: int
    traversal: Traversal
    subtree_depth: int | None = None
    notes: dict = field(default_factory=dict)

    def traffic(self) -> TrafficSummary:
        return TrafficSummary(
            ct_load_bytes=float(sum(s.ct_loads for s in self.steps)) * self.ct_bytes,
            ct_store_bytes=float(sum(s.ct_stores for s in self.steps)) * self.ct_bytes,
            key_load_bytes=float(sum(1 for s in self.steps if s.key_load))
            * self.key_bytes,
        )

    @property
    def num_compute_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs for building a schedule."""

    capacity_bytes: int
    traversal: Traversal
    reduction_overlap: bool = False
    subtree_depth: int | None = None  # HS only; derived from capacity if None

    def __post_init__(self):
        if self.capacity_bytes <= 0:
            raise ParameterError("on-chip capacity must be positive")
        if self.subtree_depth is not None and self.subtree_depth < 1:
            raise ParameterError("subtree depth must be >= 1")
