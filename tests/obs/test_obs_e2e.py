"""End-to-end observability: traced loadtests export valid artifacts.

The acceptance bar for the cluster path: one trace id must appear in
spans from at least two processes — the coordinator that admitted the
request and the spawned worker that answered it — and the exported
Chrome trace must be loadable by the strict validators.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    cross_process_traces,
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

    def test_cluster_mode_traces_cross_the_process_boundary(
        self, capsys, tmp_path
    ):
        """Acceptance: same trace id on both sides of the spawn pipe."""
        prefix, out, spans, trace, obs = run_traced(
            capsys,
            tmp_path,
            "cluster",
            [
                "--queries", "8", "--records", "16", "--shards", "2",
                "--workers", "2", "--rate", "100",
            ],
        )
        assert out["completed"] == 8 and out["errored"] == 0
        pids = {s["pid"] for s in spans}
        assert len(pids) >= 2, "need coordinator + worker processes"
        crossing = cross_process_traces(spans)
        assert crossing, "no trace id crossed the process boundary"
        assert set(crossing) <= {s["trace_id"] for s in spans}
        names = {s["name"] for s in spans}
        # The worker answers a batch as one stacked window: one span per
        # batch, no per-query path that tracing switches on.
        assert {"cluster.rpc", "worker.batch"} <= names
        assert "worker.answer" not in names
        # Worker-side kernel stats came home in WorkerStopped: one expand
        # per stacked group, never more than one per query.
        profile = aggregate_kernel_profile(obs["kernel_profile"])
        assert 1 <= profile["expand"]["calls"] <= 8
        # The Chrome trace names both process kinds.
        meta = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert any(name.startswith("serve") for name in meta)
        assert any(name.startswith("cluster-worker") for name in meta)
        assert obs["cluster"]["live_workers"] == [0, 1]
        assert obs["cluster"]["worker_deaths"] == 0
        assert main(["obs-report", str(prefix)]) == 0
        report = capsys.readouterr().out
        assert "crossing a process boundary" in report
        assert "cluster: workers" in report

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
