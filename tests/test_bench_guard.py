"""Bench-guard classification: correctness keys fail hard, perf only warns.

The guard is what keeps a silently-diverging compute backend from
slipping through CI: BENCH_hotpath's ``identical`` / ``byte_identical``
/ ``decoded_ok`` leaves must be *hard* failures on any drift, while
timing leaves merely warn.  These tests pin that classification so a
refactor of the guard cannot quietly demote a correctness key.
"""

import importlib.util
import pathlib

_GUARD = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_guard.py"
)
_spec = importlib.util.spec_from_file_location("bench_guard", _GUARD)
bench_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_guard)


class TestClassification:
    def test_correctness_leaves_are_hard_keys(self):
        for path in (
            "answer.byte_identical",
            "answer.eager.byte_identical",
            "answer.native.byte_identical",
            "answer.decoded_ok",
            "preprocess.identical",
            "correct",
            "bare_correct",
            "errored",
            "failed",
            "wrong_bytes",
        ):
            assert bench_guard._is_correctness(path), path

    def test_perf_leaves_are_advisory(self):
        for path in (
            "answer.speedup",
            "answer.native.s_per_query",
            "preprocess.fast_s",
            "qps",
            "latency.p99_s",
            "identical_twin_count",  # prefix match must not trigger
        ):
            assert not bench_guard._is_correctness(path), path


class TestCompare:
    def test_correctness_regression_fails(self):
        base = {"answer": {"byte_identical": True, "speedup": 5.0}}
        fresh = {"answer": {"byte_identical": False, "speedup": 5.0}}
        failures, warnings = bench_guard.compare("x.json", base, fresh, 0.25)
        assert len(failures) == 1 and "byte_identical" in failures[0]
        assert not warnings

    def test_decoded_ok_regression_fails(self):
        base = {"answer": {"decoded_ok": True}}
        fresh = {"answer": {"decoded_ok": False}}
        failures, _ = bench_guard.compare("x.json", base, fresh, 0.25)
        assert len(failures) == 1 and "decoded_ok" in failures[0]

    def test_perf_drift_only_warns(self):
        base = {"answer": {"byte_identical": True, "speedup": 5.0}}
        fresh = {"answer": {"byte_identical": True, "speedup": 2.0}}
        failures, warnings = bench_guard.compare("x.json", base, fresh, 0.25)
        assert not failures
        assert len(warnings) == 1 and "speedup" in warnings[0]
