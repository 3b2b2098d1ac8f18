"""repro.obs — tracing, metrics, SLOs, flight recorder, export (one surface).

The observability subsystem behind the serving stack:

* :mod:`repro.obs.trace` — per-request spans minted at admission and
  recorded through the dispatcher and the window executor; exported as
  JSONL and Chrome ``trace_event`` JSON.
* :mod:`repro.obs.metrics` — bounded-memory counters / gauges /
  quantile sketches / windowed time series; the recording substrate
  under :class:`~repro.serve.metrics.ServeMetrics` and the live signal
  feed for the ROADMAP's SLO autoscaler.
* :mod:`repro.obs.slo` — declarative :class:`~repro.obs.slo.SloSpec`
  objectives judged by Google-SRE-style multi-window burn rates; the
  sensor half of that autoscaler.
* :mod:`repro.obs.events` — the flight recorder: a bounded ring of
  structured control-plane events with post-mortem dumps when a
  dispatch window fails.
* :mod:`repro.obs.export` — Prometheus text exposition, periodic health
  JSONL, and the ``repro obs-watch`` dashboard rendering.
* :mod:`repro.obs.profile` — opt-in kernel stage timers in the batched
  hot path, reported next to the :class:`~repro.arch.simulator.
  IveSimulator` analytic attribution.
* :mod:`repro.obs.report` — strict validation + rendering of the files
  ``repro loadtest --trace`` exports (``repro obs-report``).
"""

from repro.obs.events import Event, FlightRecorder
from repro.obs.export import (
    append_health_jsonl,
    health_snapshot,
    read_health_jsonl,
    render_prometheus,
    render_watch_rows,
)
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    TimeSeries,
    WindowAggregate,
)
from repro.obs.profile import (
    KernelProfiler,
    StageStats,
    active,
    install,
    kernel_stage,
    profiled,
)
from repro.obs.report import (
    measured_vs_modeled,
    render_postmortem,
    render_report,
    validate_chrome_trace,
    validate_obs_json,
    validate_postmortem,
    validate_spans_jsonl,
)
from repro.obs.slo import SloEvaluator, SloSpec, SloVerdict, parse_slo
from repro.obs.trace import Span, Tracer

__all__ = [
    "CounterMetric",
    "Event",
    "FlightRecorder",
    "GaugeMetric",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "QuantileSketch",
    "SloEvaluator",
    "SloSpec",
    "SloVerdict",
    "Span",
    "StageStats",
    "TimeSeries",
    "Tracer",
    "WindowAggregate",
    "active",
    "append_health_jsonl",
    "health_snapshot",
    "install",
    "kernel_stage",
    "measured_vs_modeled",
    "parse_slo",
    "profiled",
    "read_health_jsonl",
    "render_postmortem",
    "render_prometheus",
    "render_report",
    "render_watch_rows",
    "validate_chrome_trace",
    "validate_obs_json",
    "validate_postmortem",
    "validate_spans_jsonl",
]
