"""Waiting-window batch scheduler (Section V "Batch scheduler").

Queries wait at most one *waiting window* before a batch launches; the
window is sized to the RowSel DB-access time, because waiting longer than
the cost batching amortizes adds latency without adding throughput.  This
bounds the batching latency overhead below ~2x the non-batched service
time while retaining the full throughput win (Section VI-F).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch rule of the scheduler."""

    waiting_window_s: float
    max_batch: int = 128

    def __post_init__(self):
        if self.waiting_window_s < 0:
            raise ParameterError("waiting window cannot be negative")
        if self.max_batch < 1:
            raise ParameterError("max batch must be at least 1")

    def should_dispatch(self, queued: int, oldest_wait_s: float) -> bool:
        """Launch when the window expires or the batch is full."""
        if queued <= 0:
            return False
        return queued >= self.max_batch or oldest_wait_s >= self.waiting_window_s


def window_from_db_read(min_db_read_s: float) -> float:
    """Paper policy: the window equals the RowSel DB access time."""
    return min_db_read_s


@dataclass(frozen=True)
class ServicePoint:
    """One load level of the load-latency curve (Fig. 14b)."""

    arrival_qps: float
    mean_latency_s: float
    p95_latency_s: float
    mean_batch: float
    served: int
