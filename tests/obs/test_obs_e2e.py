"""End-to-end observability: traced loadtests export valid artifacts.

A traced sim or real loadtest must export spans, a Chrome trace and a
digest that the strict validators behind ``repro obs-report`` accept,
and the report must render them.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    validate_chrome_trace,
    validate_obs_json,
    validate_spans_jsonl,
)
from repro.obs.report import aggregate_kernel_profile


def run_traced(capsys, tmp_path, mode, extra=()):
    prefix = tmp_path / f"{mode}-run"
    argv = [
        "loadtest", "--mode", mode, "--trace", "--obs-out", str(prefix),
        *extra,
    ]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["obs_files"] == {
        "spans": f"{prefix}.spans.jsonl",
        "trace": f"{prefix}.trace.json",
        "obs": f"{prefix}.obs.json",
    }
    spans = validate_spans_jsonl(out["obs_files"]["spans"])
    trace = validate_chrome_trace(out["obs_files"]["trace"])
    obs = validate_obs_json(out["obs_files"]["obs"])
    return prefix, out, spans, trace, obs


class TestTracedLoadtest:
    def test_sim_mode_exports_valid_artifacts(self, capsys, tmp_path):
        prefix, out, spans, trace, obs = run_traced(
            capsys, tmp_path, "sim", ["--queries", "200"]
        )
        assert out["completed"] == 200
        assert obs["mode"] == "sim"
        # Every request leaves a traced span; ids start at 1.
        ids = {s["trace_id"] for s in spans if s["trace_id"] is not None}
        assert len(ids) == 200
        assert min(ids) == 1
        names = {s["name"] for s in spans}
        assert {"serve.request", "serve.queue", "serve.batch", "backend.sim"} <= names
        # Sim mode runs in-process on the virtual clock: one pid, no kernels.
        assert len({s["pid"] for s in spans}) == 1
        assert obs["kernel_profile"] == {}
        assert obs["live_series"]  # the windowed feed is populated
        assert main(["obs-report", str(prefix)]) == 0
        assert "mode sim" in capsys.readouterr().out

    def test_real_mode_profiles_kernels_and_models(self, capsys, tmp_path):
        prefix, out, spans, trace, obs = run_traced(
            capsys,
            tmp_path,
            "real",
            ["--queries", "4", "--records", "8", "--rate", "100"],
        )
        assert out["completed"] == 4 and out["errored"] == 0
        # Raw profile keys carry the backend that spent the time; the
        # aggregated view folds stage@backend back to the base stage.
        raw = obs["kernel_profile"]
        assert any("@" in name for name in raw), sorted(raw)
        profile = aggregate_kernel_profile(raw)
        # The full PIR pipeline ran under the hooks.
        for stage in ("expand", "rowsel", "coltor", "gemm", "ntt_fwd", "subs"):
            assert profile[stage]["calls"] > 0, stage
            assert profile[stage]["seconds"] > 0.0
        # One per stacked group of a dispatch window: never more than
        # one per query, fewer when arrivals shared a window.
        assert 1 <= profile["expand"]["calls"] <= 4
        mvm = obs["measured_vs_modeled"]
        assert [row["stage"] for row in mvm] == ["expand", "rowsel", "coltor"]
        assert sum(row["measured_share"] for row in mvm) == pytest.approx(1.0)
        assert main(["obs-report", str(prefix)]) == 0
        report = capsys.readouterr().out
        assert "kernel stage" in report
        assert "measured CPU vs modeled IVE" in report

    def test_real_mode_traces_every_request_in_one_process(self, capsys, tmp_path):
        """Both shards' windows run on the serving process's thread pool:
        every request is traced end to end under one pid and one
        ``serve`` process label, and the report counts the requests."""
        prefix, out, spans, trace, obs = run_traced(
            capsys,
            tmp_path,
            "real",
            ["--queries", "8", "--records", "16", "--shards", "2", "--rate", "100"],
        )
        assert out["completed"] == 8 and out["errored"] == 0
        assert len({s["pid"] for s in spans}) == 1
        names_by_trace: dict[int, set] = {}
        for s in spans:
            if s["trace_id"] is not None:
                names_by_trace.setdefault(s["trace_id"], set()).add(s["name"])
        assert len(names_by_trace) == 8
        for names in names_by_trace.values():
            assert {"serve.request", "serve.queue"} <= names
        backend = [s for s in spans if s["name"] == "backend.real"]
        assert {s["tid"] for s in backend} == {"shard-0", "shard-1"}
        assert sum(s["args"]["batch"] for s in backend) == 8
        meta = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert len(meta) == 1 and meta[0].startswith("serve (pid ")
        assert main(["obs-report", str(prefix)]) == 0
        assert f"{len(spans)} spans, 8 traced requests" in capsys.readouterr().out

    def test_untraced_loadtest_exports_nothing(self, capsys, tmp_path):
        prefix = tmp_path / "plain"
        assert (
            main(
                ["loadtest", "--mode", "sim", "--queries", "50",
                 "--obs-out", str(prefix)]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert "obs_files" not in out
        assert not (tmp_path / "plain.spans.jsonl").exists()


class TestObsReportErrors:
    def test_missing_prefix_is_a_typed_failure(self, capsys, tmp_path):
        assert main(["obs-report", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupted_artifact_fails_validation(self, capsys, tmp_path):
        prefix, *_ = run_traced(capsys, tmp_path, "sim", ["--queries", "50"])
        (tmp_path / "sim-run.obs.json").write_text('{"mode": "sim"}')
        assert main(["obs-report", str(prefix)]) == 2
        assert "digest missing" in capsys.readouterr().err
