"""Export plane: Prometheus exposition, health JSONL, obs-watch rendering."""

import json

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs import (
    MetricsRegistry,
    append_health_jsonl,
    health_snapshot,
    read_health_jsonl,
    render_prometheus,
    render_watch_rows,
)
from repro.serve.metrics import ServeMetrics


def populated_metrics():
    metrics = ServeMetrics(num_shards=2)
    for i in range(20):
        metrics.record_submit(True, now_s=0.1 + i * 0.01)
        metrics.record_served(0, 0.005, 0.001, finish_s=0.2 + i * 0.01)
    metrics.record_submit(False, now_s=0.5)
    metrics.record_queue_depth(3)
    return metrics


class TestPrometheus:
    def test_counters_gauges_summaries_series(self):
        metrics = populated_metrics()
        text = render_prometheus(metrics.registry.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE repro_serve_served_total counter" in lines
        assert "repro_serve_served_total 20" in lines
        assert "repro_serve_rejected_total 1" in lines
        assert "# TYPE repro_serve_queue_depth gauge" in lines
        assert "repro_serve_queue_depth 3" in lines
        assert any(
            line.startswith('repro_serve_latency_s{quantile="0.99"} ')
            for line in lines
        )
        assert "repro_serve_latency_s_count 20" in lines
        # The live series contributes last-window gauges.
        assert any(line.startswith("repro_serve_live_qps ") for line in lines)

    def test_empty_sketch_renders_without_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("empty.hist")
        lines = render_prometheus(registry.snapshot()).splitlines()
        assert "repro_empty_hist_count 0" in lines
        assert not any("quantile" in line for line in lines)

    def test_metric_names_are_sanitized(self):
        lines = render_prometheus({"serve.latency_s": 1}).splitlines()
        assert "repro_serve_latency_s_total 1" in lines

    def test_unexportable_shape_is_typed(self):
        with pytest.raises(ObsError):
            render_prometheus({"weird": "a string"})


class TestHealthJsonl:
    def test_snapshot_roundtrips_through_strict_reader(self, tmp_path):
        metrics = populated_metrics()
        row = health_snapshot(1.0, metrics, interval_s=1.0)
        path = tmp_path / "health.jsonl"
        append_health_jsonl(path, row)
        append_health_jsonl(path, row)
        rows = read_health_jsonl(path)
        assert len(rows) == 2
        assert rows[0]["served"] == 20
        assert rows[0]["rejected"] == 1
        assert rows[0]["queue_depth"] == 3
        assert rows[0]["qps"] == pytest.approx(20.0)
        assert rows[0]["worst_state"] == "ok"

    def test_missing_file_and_bad_rows_are_typed(self, tmp_path):
        with pytest.raises(ObsError, match="cannot read"):
            read_health_jsonl(tmp_path / "nope.jsonl")
        path = tmp_path / "health.jsonl"
        path.write_text('{"t_s": 1.0}\n')
        with pytest.raises(ObsError, match=":1:"):
            read_health_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(ObsError, match="not valid JSON"):
            read_health_jsonl(path)

    def test_bad_line_is_named_precisely(self, tmp_path):
        metrics = populated_metrics()
        path = tmp_path / "health.jsonl"
        append_health_jsonl(path, health_snapshot(1.0, metrics, 1.0))
        with open(path, "a") as fh:
            fh.write('{"t_s": "not a number"}\n')
        with pytest.raises(ObsError, match=":2:"):
            read_health_jsonl(path)


class TestWatchRendering:
    def row(self, **overrides):
        base = {
            "t_s": 1.0, "qps": 100.0, "p99_s": 0.004, "rejection_rate": 0.0,
            "submitted": 100, "rejected": 0, "served": 100, "failed": 0,
            "queue_depth": 2, "slo": [], "worst_state": "ok",
        }
        base.update(overrides)
        return base

    def test_rows_render_with_summary(self):
        lines = render_watch_rows([self.row(), self.row(t_s=2.0, served=200)])
        assert "t_s" in lines[0]  # header
        assert "2 snapshots: 0 breach, 0 warn" in lines[-1]
        assert "final 200 served" in lines[-1]

    def test_breach_rows_show_slo_detail(self):
        verdict = {
            "name": "p99<=0.25", "state": "breach", "burn_fast": 5.0,
            "burn_slow": 3.0, "measured": 0.5, "objective": 0.25,
        }
        lines = render_watch_rows(
            [self.row(worst_state="breach", slo=[verdict])]
        )
        joined = "\n".join(lines)
        assert "BREACH" in joined
        assert "!! p99<=0.25" in joined
        assert "1 breach" in joined

    def test_empty_file_renders_placeholder(self):
        assert "no health snapshots" in render_watch_rows([])[-1]


class TestObsWatchCli:
    def write_health(self, tmp_path, states=("ok", "ok")):
        metrics = populated_metrics()
        path = tmp_path / "health.jsonl"
        for i, state in enumerate(states):
            row = health_snapshot(float(i), metrics, 1.0)
            row["worst_state"] = state
            append_health_jsonl(path, row)
        return path

    def test_replay_renders_and_exits_zero(self, capsys, tmp_path):
        path = self.write_health(tmp_path)
        assert main(["obs-watch", str(path), "--replay"]) == 0
        out = capsys.readouterr().out
        assert "2 snapshots" in out

    def test_replay_fail_on_breach(self, capsys, tmp_path):
        path = self.write_health(tmp_path, states=("ok", "breach"))
        assert main(["obs-watch", str(path), "--replay"]) == 0
        assert (
            main(["obs-watch", str(path), "--replay", "--fail-on-breach"]) == 1
        )

    def test_replay_is_strict_about_corruption(self, capsys, tmp_path):
        path = self.write_health(tmp_path)
        with open(path, "a") as fh:
            fh.write("{torn row\n")
        assert main(["obs-watch", str(path), "--replay"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and ":3:" in err

    def test_live_tail_picks_up_appended_rows(self, capsys, tmp_path):
        path = self.write_health(tmp_path)
        # A short timeout bounds the tail; rows present before the first
        # poll are rendered exactly once.
        assert main(
            ["obs-watch", str(path), "--interval", "0.05", "--timeout", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3  # header + 2 rows
        json.dumps(out)  # sanity: printable
