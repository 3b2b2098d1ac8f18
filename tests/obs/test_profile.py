"""Kernel-profiling hooks: no-op fast path, accumulation, and the model table."""

import json
import threading

import numpy as np
import pytest

from repro.obs import (
    KernelProfiler,
    StageStats,
    active,
    install,
    kernel_stage,
    measured_vs_modeled,
    profiled,
)
from repro.obs.profile import _NULL
from repro.obs.report import STAGE_TO_MODEL


class TestHookFastPath:
    def test_uninstalled_hook_is_the_shared_noop(self):
        assert active() is None
        # No profiler installed: every call returns the *same* object, so
        # the uninstrumented hot path allocates nothing.
        assert kernel_stage("gemm", 123) is _NULL
        assert kernel_stage("ntt_fwd") is _NULL
        with kernel_stage("gemm", 1):
            pass  # and it works as a context manager

    def test_install_returns_previous(self):
        first, second = KernelProfiler(), KernelProfiler()
        assert install(first) is None
        try:
            assert active() is first
            assert install(second) is first
            assert active() is second
        finally:
            install(None)
        assert active() is None

    def test_profiled_scope_restores_on_exit(self):
        outer = KernelProfiler()
        install(outer)
        try:
            with profiled() as inner:
                assert active() is inner
                with kernel_stage("gemm", 10):
                    pass
            assert active() is outer
            assert inner.stages["gemm"].calls == 1
            assert "gemm" not in outer.stages
        finally:
            install(None)


class TestAccumulation:
    def test_stage_accumulates_calls_seconds_bytes(self):
        with profiled() as profiler:
            for _ in range(3):
                with kernel_stage("rowsel", 1000):
                    np.dot(np.ones((50, 50)), np.ones((50, 50)))
        stats = profiler.stages["rowsel"]
        assert stats.calls == 3
        assert stats.seconds > 0.0
        assert stats.bytes_moved == 3000

    def test_real_kernel_records_under_profiled(self):
        from repro.he.backend import get_backend

        rng = np.random.default_rng(0)
        db = rng.integers(0, 97, size=(1, 2, 4, 1, 8), dtype=np.int64)
        query = rng.integers(0, 97, size=(2, 1, 4, 1, 8), dtype=np.int64)
        moduli = np.array([[97]], dtype=np.int64)
        with profiled() as profiler:
            get_backend("eager").rowsel_gemm(db, query, moduli)
        stats = profiler.stages["gemm@eager"]
        assert stats.calls == 1
        assert stats.bytes_moved == db.nbytes + query.nbytes

    def test_pool_threads_accumulate_into_one_profiler(self):
        """The serving pool's threads share the one installed profiler:
        every stage call from every thread is counted exactly once."""
        threads, calls = 4, 500
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for _ in range(calls):
                with kernel_stage("expand", 8):
                    pass

        with profiled() as profiler:
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        stats = profiler.stages["expand"]
        assert stats.calls == threads * calls
        assert stats.bytes_moved == 8 * threads * calls

    def test_snapshot_derives_bandwidth(self):
        profiler = KernelProfiler()
        profiler.stages["coltor"] = StageStats(
            calls=4, seconds=2.0, bytes_moved=4 << 30
        )
        snap = profiler.snapshot()
        assert snap["coltor"]["calls"] == 4
        assert snap["coltor"]["gib_per_s"] == pytest.approx(2.0)
        empty = KernelProfiler()
        empty.stages["x"] = StageStats(calls=1, seconds=0.0, bytes_moved=10)
        assert empty.snapshot()["x"]["gib_per_s"] == 0.0
        json.dumps(snap)


class TestMeasuredVsModeled:
    def test_rows_compare_shares(self, small_params):
        profile = {
            "expand": {"calls": 8, "seconds": 0.6, "bytes_moved": 100},
            "rowsel": {"calls": 8, "seconds": 0.3, "bytes_moved": 200},
            "coltor": {"calls": 8, "seconds": 0.1, "bytes_moved": 50},
            "gemm": {"calls": 16, "seconds": 0.2, "bytes_moved": 150},
        }
        rows = measured_vs_modeled(profile, small_params, queries=8)
        assert [row["stage"] for row in rows] == list(STAGE_TO_MODEL)
        assert sum(row["measured_share"] for row in rows) == pytest.approx(1.0)
        assert sum(row["modeled_share"] for row in rows) == pytest.approx(1.0)
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["expand"]["measured_share"] == pytest.approx(0.6)
        assert by_stage["expand"]["model_component"] == "ExpandQuery"
        # Modeled seconds scale with the measured query count.
        assert by_stage["rowsel"]["modeled_s"] > 0.0
        json.dumps(rows)

    def test_missing_stages_report_zero_not_crash(self, small_params):
        rows = measured_vs_modeled({}, small_params, queries=1)
        for row in rows:
            assert row["measured_calls"] == 0
            assert row["measured_s"] == 0.0
            assert row["measured_share"] == 0.0
            assert row["modeled_share"] > 0.0
