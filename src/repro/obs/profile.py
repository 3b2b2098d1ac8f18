"""Opt-in kernel profiling: per-stage seconds and bytes moved.

The compute backends' kernels (``repro.he.backend``: the NTTs, the
RowSel GEMM, expand, ColTor) call :func:`kernel_stage` around their hot
bodies.  With no
profiler installed that call returns a shared no-op context manager —
one global read and no allocation, so the uninstrumented hot path pays
essentially nothing.  With a :class:`KernelProfiler` installed (via
:func:`install` or the :func:`profiled` context manager) each stage
accumulates call count, ``perf_counter`` seconds, and the bytes its
dominant tensors moved, giving the measured side of the
measured-vs-modeled table next to :class:`~repro.arch.simulator.
IveSimulator`'s analytic per-stage predictions.

Stages intentionally nest (``subs`` contains ``ntt_inv``, and on
``eager`` also ``ntt_fwd`` and ``decompose``, which ``native`` fuses
into one key-switch call; ``rowsel`` contains ``gemm``), so per-stage
seconds overlap and do not sum to wall time — the report says so.

Worker processes install their own profiler at spawn when
``WorkerConfig.profile`` is set and ship :meth:`KernelProfiler.
stats_tuple` back in ``WorkerStopped``; the coordinator merges them
with :meth:`KernelProfiler.merge_tuples`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

_PROFILER: "KernelProfiler | None" = None


class _NullCtx:
    """The uninstalled fast path: a shared, allocation-free no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullCtx()


class _StageTimer:
    __slots__ = ("profiler", "name", "nbytes", "start")

    def __init__(self, profiler: "KernelProfiler", name: str, nbytes: int):
        self.profiler = profiler
        self.name = name
        self.nbytes = nbytes

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.profiler._record(
            self.name, time.perf_counter() - self.start, self.nbytes
        )
        return False


def kernel_stage(name: str, nbytes: int = 0):
    """Context manager timing one kernel stage (no-op when uninstalled)."""
    profiler = _PROFILER
    if profiler is None:
        return _NULL
    return _StageTimer(profiler, name, nbytes)


def install(profiler: "KernelProfiler | None") -> "KernelProfiler | None":
    """Install (or clear, with ``None``) the process-global profiler.

    Returns the previously installed profiler so callers can restore it.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


def active() -> "KernelProfiler | None":
    return _PROFILER


@contextmanager
def profiled():
    """Scoped profiling: install a fresh profiler, yield it, restore."""
    profiler = KernelProfiler()
    previous = install(profiler)
    try:
        yield profiler
    finally:
        install(previous)


@dataclass
class StageStats:
    """Accumulated cost of one kernel stage."""

    calls: int = 0
    seconds: float = 0.0
    bytes_moved: int = 0


class KernelProfiler:
    """Accumulates per-stage kernel costs; thread-safe, mergeable."""

    def __init__(self):
        self.stages: dict[str, StageStats] = {}
        self._lock = threading.Lock()

    def _record(self, name: str, seconds: float, nbytes: int) -> None:
        with self._lock:
            stats = self.stages.get(name)
            if stats is None:
                stats = self.stages[name] = StageStats()
            stats.calls += 1
            stats.seconds += seconds
            stats.bytes_moved += nbytes

    def stats_tuple(self) -> tuple:
        """Plain-data form for the cluster pipe: (name, calls, s, bytes)."""
        with self._lock:
            return tuple(
                (name, st.calls, st.seconds, st.bytes_moved)
                for name, st in sorted(self.stages.items())
            )

    def merge_tuples(self, stats: tuple) -> None:
        """Fold in another process's :meth:`stats_tuple`."""
        with self._lock:
            for name, calls, seconds, nbytes in stats:
                own = self.stages.get(name)
                if own is None:
                    own = self.stages[name] = StageStats()
                own.calls += calls
                own.seconds += seconds
                own.bytes_moved += nbytes

    def snapshot(self) -> dict:
        """JSON-serializable per-stage digest with derived bandwidth."""
        with self._lock:
            items = sorted(self.stages.items())
        return {
            name: {
                "calls": st.calls,
                "seconds": st.seconds,
                "bytes_moved": st.bytes_moved,
                "gib_per_s": (
                    st.bytes_moved / st.seconds / (1 << 30) if st.seconds > 0 else 0.0
                ),
            }
            for name, st in items
        }
