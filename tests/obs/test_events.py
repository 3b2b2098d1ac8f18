"""Flight recorder: ring bounds, trace cross-links, post-mortem dumps."""

import json

import pytest

from repro.cli import main
from repro.errors import ObsError, ParameterError
from repro.obs import FlightRecorder, render_postmortem, validate_postmortem


class TestRing:
    def test_records_in_order_with_severities(self):
        rec = FlightRecorder()
        rec.record("admission.reject", 1.0, trace_ids=(7,), reason="queue-full")
        rec.record("epoch.publish", 2.0, epoch=3)
        rec.record("batch.failed", 3.0, shard=1)
        kinds = [e.kind for e in rec.events()]
        assert kinds == ["admission.reject", "epoch.publish", "batch.failed"]
        severities = [e.severity for e in rec.events()]
        assert severities == ["warn", "info", "error"]
        assert [e.seq for e in rec.events()] == [1, 2, 3]

    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("batch.dispatch", float(i), batch=i)
        events = rec.events()
        assert len(events) == 4
        assert [e.args["batch"] for e in events] == [6, 7, 8, 9]
        assert rec.dropped == 6
        # Sequence numbers keep counting through evictions.
        assert events[-1].seq == 10

    def test_none_trace_ids_are_filtered(self):
        rec = FlightRecorder()
        event = rec.record("batch.dispatch", 1.0, trace_ids=(None, 4, None, 9))
        assert event.trace_ids == (4, 9)

    def test_trace_index_cross_links(self):
        rec = FlightRecorder()
        rec.record("batch.dispatch", 1.0, trace_ids=(4,))
        rec.record("batch.failed", 2.0, trace_ids=(4, 9))
        rec.record("admission.reject", 3.0, trace_ids=(9,))
        index = rec.postmortem("drill", 4.0)["trace_index"]
        assert index == {"4": [1, 2], "9": [2, 3]}

    def test_bad_capacity_is_typed(self):
        with pytest.raises(ParameterError):
            FlightRecorder(capacity=0)
        with pytest.raises(ParameterError):
            FlightRecorder(max_dumps=0)


class TestPostmortem:
    def test_trigger_kind_dumps_automatically(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        rec.record("batch.dispatch", 1.0, trace_ids=(3,))
        rec.record("batch.failed", 2.0, trace_ids=(3,), shard=0)
        assert rec.dumps_written == 1
        (path,) = tmp_path.glob("postmortem-*.json")
        assert "batch-failed" in path.name
        doc = validate_postmortem(path)
        assert doc["reason"].startswith("batch.failed")
        assert [e["kind"] for e in doc["events"]] == [
            "batch.dispatch", "batch.failed",
        ]
        assert doc["trace_index"] == {"3": [1, 2]}

    def test_non_trigger_kinds_do_not_dump(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path))
        rec.record("admission.reject", 1.0)
        rec.record("slo.breach", 2.0)
        assert rec.dumps_written == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_dump_budget_is_bounded(self, tmp_path):
        rec = FlightRecorder(dump_dir=str(tmp_path), max_dumps=2)
        for t in range(5):
            rec.record("batch.failed", float(t), shard=t)
        assert rec.dumps_written == 2
        assert len(list(tmp_path.glob("postmortem-*.json"))) == 2

    def test_sources_are_snapshotted_and_failures_contained(self, tmp_path):
        rec = FlightRecorder()
        rec.attach_source("serve_metrics", lambda: {"submitted": 1})

        def broken():
            raise RuntimeError("snapshot race")

        rec.attach_source("broken", broken)
        doc = rec.postmortem("test", at_s=1.0)
        assert doc["sources"]["serve_metrics"] == {"submitted": 1}
        assert "RuntimeError" in doc["sources"]["broken"]["error"]

    def test_failed_auto_dump_becomes_its_own_event(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("a file where the dump dir should be")
        rec = FlightRecorder(dump_dir=str(target))
        rec.record("batch.failed", 1.0, shard=0)
        (marker,) = [e for e in rec.events() if e.kind == "postmortem.error"]
        assert marker.severity == "error"
        assert rec.dumps_written == 0

    def test_manual_dump_roundtrips_through_validator(self, tmp_path):
        rec = FlightRecorder()
        rec.record("epoch.publish", 1.0, epoch=1)
        path = tmp_path / "pm.json"
        rec.dump(str(path), reason="manual", at_s=2.0)
        doc = validate_postmortem(path)
        lines = render_postmortem(doc)
        assert any("manual" in line for line in lines)
        assert any("epoch.publish" in line for line in lines)


class TestPostmortemValidation:
    def make_valid(self, tmp_path):
        rec = FlightRecorder()
        rec.record("batch.failed", 1.0, shard=0)
        path = tmp_path / "pm.json"
        rec.dump(str(path), reason="r", at_s=1.0)
        return path

    def test_missing_keys_and_bad_events_are_typed(self, tmp_path):
        path = self.make_valid(tmp_path)
        doc = json.loads(path.read_text())
        del doc["trace_index"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ObsError, match="trace_index"):
            validate_postmortem(path)
        doc["trace_index"] = {}
        doc["events"] = [{"seq": 1}]
        path.write_text(json.dumps(doc))
        with pytest.raises(ObsError, match="events\\[0\\]"):
            validate_postmortem(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = self.make_valid(tmp_path)
        doc = json.loads(path.read_text())
        doc["postmortem_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ObsError, match="version"):
            validate_postmortem(path)

    def test_cli_renders_a_postmortem(self, capsys, tmp_path):
        path = self.make_valid(tmp_path)
        assert main(["obs-report", "--postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "post-mortem" in out
        assert "batch.failed" in out

    def test_cli_rejects_corrupt_postmortem(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["obs-report", "--postmortem", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_needs_prefix_or_postmortem(self, capsys):
        assert main(["obs-report"]) == 2
        assert "PREFIX" in capsys.readouterr().err
