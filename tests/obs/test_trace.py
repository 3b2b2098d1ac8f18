"""Tracer unit tests: ids, spans and exports."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    Span,
    Tracer,
    validate_chrome_trace,
    validate_spans_jsonl,
)


def span(trace_id, name="op", start=1.0, dur=0.5, pid=100, tid="main"):
    return Span(
        trace_id=trace_id, name=name, start_s=start, dur_s=dur, pid=pid, tid=tid
    )


class TestTracer:
    def test_mint_is_monotonic_and_unique(self):
        tracer = Tracer()
        ids = [tracer.mint() for _ in range(10)]
        assert ids == sorted(set(ids))
        assert ids[0] == 1

    def test_record_span_clamps_negative_duration(self):
        tracer = Tracer()
        tracer.record_span("op", start_s=2.0, end_s=1.5, trace_id=1)
        assert tracer.spans[0].dur_s == 0.0

    def test_record_instant_has_zero_duration(self):
        tracer = Tracer()
        tracer.record_instant("serve.reject", at_s=3.0, reason="queue-full")
        only = tracer.spans[0]
        assert only.dur_s == 0.0
        assert only.args == {"reason": "queue-full"}



class TestExports:
    def _tracer(self):
        tracer = Tracer()
        tracer.record_span("serve.request", 10.0, 10.5, trace_id=1)
        tracer.record_span("serve.batch", 10.1, 10.4, shard=0)
        tracer.record_span("backend.real", 10.2, 10.3, trace_id=1, tid="shard-0")
        return tracer

    def test_jsonl_round_trips_through_validator(self, tmp_path):
        tracer = self._tracer()
        path = tmp_path / "run.spans.jsonl"
        assert tracer.export_jsonl(path) == 3
        spans = validate_spans_jsonl(path)
        assert len(spans) == 3
        assert [s["trace_id"] for s in spans] == [1, None, 1]

    def test_chrome_trace_normalized_with_process_metadata(self, tmp_path):
        tracer = self._tracer()
        trace = tracer.chrome_trace()
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert min(e["ts"] for e in xs) == 0.0  # normalized to t0
        assert [e["args"]["name"] for e in ms] == [f"serve (pid {tracer.pid})"]
        path = tmp_path / "run.trace.json"
        assert tracer.export_chrome(path) == 3
        validate_chrome_trace(path)

    def test_validator_rejects_corrupt_spans(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "op"}\n')
        with pytest.raises(ObsError):
            validate_spans_jsonl(path)
        path.write_text("not json\n")
        with pytest.raises(ObsError):
            validate_spans_jsonl(path)
        with pytest.raises(ObsError):
            validate_spans_jsonl(tmp_path / "missing.jsonl")

    def test_validator_rejects_negative_duration(self, tmp_path):
        path = tmp_path / "neg.jsonl"
        record = span(1).to_json()
        record["dur_s"] = -0.1
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ObsError):
            validate_spans_jsonl(path)

    def test_chrome_validator_rejects_unknown_phase(self, tmp_path):
        path = tmp_path / "bad.trace.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "B", "name": "x"}]}))
        with pytest.raises(ObsError):
            validate_chrome_trace(path)
