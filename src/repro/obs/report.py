"""Validate and render the artifacts a traced loadtest exports.

Three files come out of ``repro loadtest --trace --obs-out PREFIX``:

* ``PREFIX.spans.jsonl``  — one span per line (machine-readable);
* ``PREFIX.trace.json``   — Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto;
* ``PREFIX.obs.json``     — the run digest: metrics snapshot, live
  time series and kernel profile.

``repro obs-report`` (and the CI trace smoke) run the validators here —
strict, typed failures via :class:`~repro.errors.ObsError` — and render
the human-readable report, including the measured-vs-modeled table that
puts profiled kernel seconds next to the analytic
:class:`~repro.arch.simulator.IveSimulator` attribution.
"""

from __future__ import annotations

import json

from repro.errors import ObsError

#: Profiled stage name -> IveSimulator breakdown component.  Only the
#: three pipeline stages have an analytic twin; the finer-grained kernel
#: stages (ntt_fwd, gemm, ...) are reported measured-only.
STAGE_TO_MODEL = {
    "expand": "ExpandQuery",
    "rowsel": "RowSel",
    "coltor": "ColTor",
}

_SPAN_FIELDS = {
    "name": str,
    "cat": str,
    "start_s": (int, float),
    "dur_s": (int, float),
    "pid": int,
    "tid": str,
    "args": dict,
}


def validate_spans_jsonl(path) -> list[dict]:
    """Parse + schema-check a spans JSONL file; returns the span dicts."""
    spans: list[dict] = []
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ObsError(f"cannot read spans file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(span, dict):
            raise ObsError(f"{path}:{lineno}: span must be an object")
        for key, kind in _SPAN_FIELDS.items():
            if key not in span:
                raise ObsError(f"{path}:{lineno}: span missing {key!r}")
            if not isinstance(span[key], kind) or isinstance(span[key], bool):
                raise ObsError(
                    f"{path}:{lineno}: span field {key!r} has type "
                    f"{type(span[key]).__name__}"
                )
        if "trace_id" not in span:
            raise ObsError(f"{path}:{lineno}: span missing 'trace_id'")
        tid = span["trace_id"]
        if tid is not None and (not isinstance(tid, int) or isinstance(tid, bool)):
            raise ObsError(f"{path}:{lineno}: trace_id must be an int or null")
        if span["dur_s"] < 0:
            raise ObsError(f"{path}:{lineno}: negative span duration")
        spans.append(span)
    return spans


def validate_chrome_trace(path) -> dict:
    """Parse + schema-check a Chrome ``trace_event`` file."""
    try:
        with open(path) as fh:
            trace = json.load(fh)
    except OSError as exc:
        raise ObsError(f"cannot read trace file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(trace, dict) or not isinstance(
        trace.get("traceEvents"), list
    ):
        raise ObsError(f"{path}: expected an object with a 'traceEvents' list")
    for i, event in enumerate(trace["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            raise ObsError(f"{path}: traceEvents[{i}] is not a phased event")
        if event["ph"] == "X":
            for key in ("name", "cat", "ts", "dur", "pid", "tid"):
                if key not in event:
                    raise ObsError(f"{path}: traceEvents[{i}] missing {key!r}")
            if event["ts"] < 0 or event["dur"] < 0:
                raise ObsError(f"{path}: traceEvents[{i}] has a negative time")
        elif event["ph"] == "M":
            for key in ("name", "pid", "args"):
                if key not in event:
                    raise ObsError(f"{path}: traceEvents[{i}] missing {key!r}")
        else:
            raise ObsError(
                f"{path}: traceEvents[{i}] has unsupported phase {event['ph']!r}"
            )
    return trace


def validate_obs_json(path) -> dict:
    """Parse + schema-check the run digest."""
    try:
        with open(path) as fh:
            obs = json.load(fh)
    except OSError as exc:
        raise ObsError(f"cannot read obs file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obs, dict):
        raise ObsError(f"{path}: expected a JSON object")
    for key in ("mode", "metrics", "live_series", "kernel_profile"):
        if key not in obs:
            raise ObsError(f"{path}: digest missing {key!r}")
    metrics = obs["metrics"]
    if not isinstance(metrics, dict):
        raise ObsError(f"{path}: 'metrics' must be an object")
    for key in ("submitted", "served", "latency", "queue_wait"):
        if key not in metrics:
            raise ObsError(f"{path}: metrics snapshot missing {key!r}")
    if not isinstance(obs["live_series"], list):
        raise ObsError(f"{path}: 'live_series' must be a list")
    if not isinstance(obs["kernel_profile"], dict):
        raise ObsError(f"{path}: 'kernel_profile' must be an object")
    return obs


def validate_postmortem(path) -> dict:
    """Parse + schema-check a flight-recorder post-mortem dump."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ObsError(f"cannot read postmortem file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ObsError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ObsError(f"{path}: expected a JSON object")
    for key in ("postmortem_version", "reason", "at_s", "events", "trace_index"):
        if key not in doc:
            raise ObsError(f"{path}: postmortem missing {key!r}")
    if doc["postmortem_version"] != 1:
        raise ObsError(
            f"{path}: unsupported postmortem version {doc['postmortem_version']!r}"
        )
    if not isinstance(doc["events"], list):
        raise ObsError(f"{path}: 'events' must be a list")
    for i, event in enumerate(doc["events"]):
        if not isinstance(event, dict):
            raise ObsError(f"{path}: events[{i}] is not an object")
        for key, kind in (
            ("seq", int),
            ("at_s", (int, float)),
            ("kind", str),
            ("severity", str),
            ("trace_ids", list),
            ("args", dict),
        ):
            if key not in event:
                raise ObsError(f"{path}: events[{i}] missing {key!r}")
            if not isinstance(event[key], kind) or isinstance(event[key], bool):
                raise ObsError(
                    f"{path}: events[{i}] field {key!r} has type "
                    f"{type(event[key]).__name__}"
                )
    if not isinstance(doc["trace_index"], dict):
        raise ObsError(f"{path}: 'trace_index' must be an object")
    return doc


def render_postmortem(doc: dict, last_events: int = 20) -> list[str]:
    """Human-readable post-mortem lines for ``repro obs-report``."""
    events = doc["events"]
    by_severity: dict[str, int] = {}
    for event in events:
        by_severity[event["severity"]] = by_severity.get(event["severity"], 0) + 1
    severity = ", ".join(f"{n} {s}" for s, n in sorted(by_severity.items()))
    lines = [
        f"post-mortem: {doc['reason']} at t={doc['at_s']:.3f}s",
        f"{len(events)} event(s) in ring ({doc.get('dropped', 0)} dropped); "
        f"{severity or 'none'}",
        f"{len(doc['trace_index'])} trace(s) cross-linked to events",
    ]
    for event in events[-last_events:]:
        args = " ".join(f"{k}={v}" for k, v in sorted(event["args"].items()))
        traced = (
            f" traces={event['trace_ids']}" if event["trace_ids"] else ""
        )
        lines.append(
            f"  [{event['seq']:>5d}] t={event['at_s']:9.3f}s "
            f"{event['severity']:>5s} {event['kind']:<18s} {args}{traced}"
        )
    return lines


def aggregate_kernel_profile(kernel_profile: dict) -> dict:
    """Sum per-stage stats across compute backends.

    Kernel-stage labels carry the backend that spent the time
    (``ntt_fwd@native``); model comparison and stage-level assertions
    want the base stage regardless of implementation, so fold
    ``stage@backend`` into ``stage`` by summing calls/seconds/bytes.
    """
    out: dict[str, dict] = {}
    for name, stats in kernel_profile.items():
        base = name.split("@", 1)[0]
        agg = out.setdefault(
            base, {"calls": 0, "seconds": 0.0, "bytes_moved": 0}
        )
        agg["calls"] += stats.get("calls", 0)
        agg["seconds"] += stats.get("seconds", 0.0)
        agg["bytes_moved"] += stats.get("bytes_moved", 0)
    return out


def measured_vs_modeled(
    kernel_profile: dict, params, queries: int
) -> list[dict]:
    """Profiled pipeline seconds next to the IVE analytic attribution.

    Absolute numbers are incomparable by design — the measurement is
    numpy on a CPU, the model is the accelerator — so the comparison
    that matters is the *share* each pipeline stage takes.  Modeled
    seconds are per query (batch=1) scaled by the measured query count.
    """
    from repro.arch.config import IveConfig
    from repro.arch.simulator import IveSimulator

    kernel_profile = aggregate_kernel_profile(kernel_profile)
    modeled = IveSimulator(IveConfig.ive(), params).latency(1).breakdown()
    modeled_total = sum(modeled[STAGE_TO_MODEL[s]] for s in STAGE_TO_MODEL)
    measured_total = sum(
        kernel_profile.get(s, {}).get("seconds", 0.0) for s in STAGE_TO_MODEL
    )
    rows = []
    for stage, component in STAGE_TO_MODEL.items():
        stats = kernel_profile.get(stage, {})
        seconds = stats.get("seconds", 0.0)
        model_s = modeled[component] * queries
        rows.append(
            {
                "stage": stage,
                "model_component": component,
                "measured_calls": stats.get("calls", 0),
                "measured_s": seconds,
                "measured_share": (
                    seconds / measured_total if measured_total > 0 else 0.0
                ),
                "modeled_s": model_s,
                "modeled_share": (
                    modeled[component] / modeled_total if modeled_total > 0 else 0.0
                ),
            }
        )
    return rows


def _fmt(value, scale: float = 1.0, unit: str = "") -> str:
    if value is None:
        return "n/a"
    return f"{value * scale:.2f}{unit}"


def render_report(
    spans: list[dict], trace: dict, obs: dict, mvm: list[dict] | None = None
) -> list[str]:
    """Human-readable report lines for ``repro obs-report``."""
    traced = {s["trace_id"] for s in spans if s["trace_id"] is not None}
    metrics = obs["metrics"]
    lat, qw = metrics["latency"], metrics["queue_wait"]
    lines = [
        f"mode {obs['mode']}: {metrics['submitted']} submitted, "
        f"{metrics['served']} served, {metrics['rejected']} rejected, "
        f"{metrics['failed']} failed "
        f"({metrics['achieved_qps']:.1f} QPS over {metrics['elapsed_s']:.2f}s)",
        f"latency p50 {_fmt(lat['p50_s'], 1e3, ' ms')}, "
        f"p95 {_fmt(lat['p95_s'], 1e3, ' ms')}, "
        f"p99 {_fmt(lat['p99_s'], 1e3, ' ms')}; queue wait "
        f"p50 {_fmt(qw['p50_s'], 1e3, ' ms')}, "
        f"p99 {_fmt(qw['p99_s'], 1e3, ' ms')}",
        f"{len(spans)} spans, {len(traced)} traced requests",
    ]
    series = obs["live_series"]
    if series:
        lines.append(f"live series ({len(series)} windows, last 5):")
        for row in series[-5:]:
            lines.append(
                f"  t={row['t_s']:8.1f}s qps {row['qps']:7.1f} "
                f"p99 {_fmt(row['p99_s'], 1e3, ' ms'):>10s} "
                f"reject {row['rejection_rate']:6.1%}"
            )
    profile = obs["kernel_profile"]
    if profile:
        lines.append(
            f"{'kernel stage':>14s} {'calls':>7s} {'seconds':>9s} "
            f"{'GiB moved':>10s} {'GiB/s':>7s}"
        )
        for name, st in sorted(
            profile.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:>14s} {st['calls']:>7d} {st['seconds']:>9.3f} "
                f"{st['bytes_moved'] / (1 << 30):>10.3f} {st['gib_per_s']:>7.2f}"
            )
        lines.append("(stages nest — e.g. gemm inside rowsel — so seconds overlap)")
    if mvm:
        lines.append(
            f"{'stage':>8s} {'measured s':>11s} {'share':>7s} "
            f"{'modeled s':>11s} {'share':>7s}   (measured CPU vs modeled IVE)"
        )
        for row in mvm:
            lines.append(
                f"{row['stage']:>8s} {row['measured_s']:>11.4f} "
                f"{row['measured_share']:>6.1%} {row['modeled_s']:>11.6f} "
                f"{row['modeled_share']:>6.1%}"
            )
    return lines
