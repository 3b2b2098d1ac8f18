"""Export surfaces: Prometheus text exposition, health JSONL, watch views.

Three ways the same observability state leaves the process:

* :func:`render_prometheus` — any
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as Prometheus text
  exposition format, so a real scrape pipeline can ingest a run without
  bespoke glue;
* :func:`health_snapshot` / :func:`append_health_jsonl` — one periodic
  health row (rates over the sampling interval, cumulative counters,
  SLO verdicts) appended to a JSONL file that a live ``repro obs-watch``
  tails and ``--replay`` re-renders;
* :func:`render_watch_rows` — the terminal dashboard lines themselves.

:func:`read_health_jsonl` is the strict loader (typed
:class:`~repro.errors.ObsError` naming the bad file and line), the same
contract as the span/trace validators in :mod:`repro.obs.report`.
"""

from __future__ import annotations

import json
import re

from repro.errors import ObsError

#: Keys every health row must carry (type-checked by the loader).
_HEALTH_NUMBERS = ("t_s", "qps", "rejection_rate")
_HEALTH_COUNTS = ("submitted", "rejected", "served", "failed")

#: Cliff counters copied into every health row: queries per stacked PIR
#: window and the groups the scratch budget cut them into, then the
#: native backend's drops to the eager primitives (no library on this
#: machine; a ring, gadget or operand outside the kernels' bounds), its
#: library built without the host's vector ISA, and the dense GEMM's drops
#: to object-dtype bignums.
_CLIFF_COUNTERS = (
    "pir_window_queries",
    "pir_window_groups",
    "he_native_unavailable",
    "he_native_portable",
    "he_native_none",
    "he_modular_gemm_bignum",
)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    return f"{namespace}_{_NAME_OK.sub('_', name)}"


def _prom_number(value) -> str:
    if value != value:  # NaN
        return "NaN"
    return repr(float(value)) if isinstance(value, float) else str(int(value))


def render_prometheus(snapshot: dict, namespace: str = "repro") -> str:
    """A registry snapshot as Prometheus text exposition format.

    Counters get the conventional ``_total`` suffix, histograms render
    as summaries (quantile-labelled samples + ``_sum``/``_count``,
    ``None`` quantiles of an empty sketch simply absent), gauges carry a
    ``_max`` twin, and a time series contributes its most recent window
    as instantaneous gauges.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.items()):
        metric = _prom_name(name, namespace)
        if isinstance(value, bool):
            raise ObsError(f"metric {name!r} has a non-exportable bool value")
        if isinstance(value, int):
            lines.append(f"# TYPE {metric}_total counter")
            lines.append(f"{metric}_total {value}")
        elif isinstance(value, dict) and {"value", "max"} <= set(value):
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_number(value['value'])}")
            lines.append(f"{metric}_max {_prom_number(value['max'])}")
        elif isinstance(value, dict) and "count" in value:
            lines.append(f"# TYPE {metric} summary")
            for q in ("p50", "p95", "p99"):
                if value.get(q) is not None:
                    quantile = int(q[1:]) / 100.0
                    lines.append(
                        f'{metric}{{quantile="{quantile}"}} '
                        f"{_prom_number(value[q])}"
                    )
            mean = value.get("mean")
            total = 0.0 if mean is None else mean * value["count"]
            lines.append(f"{metric}_sum {_prom_number(total)}")
            lines.append(f"{metric}_count {value['count']}")
        elif isinstance(value, list):
            if not value:
                continue
            last = value[-1]
            lines.append(f"# TYPE {metric}_qps gauge")
            lines.append(f"{metric}_qps {_prom_number(last['qps'])}")
            if last.get("p99_s") is not None:
                lines.append(f"# TYPE {metric}_p99_s gauge")
                lines.append(f"{metric}_p99_s {_prom_number(last['p99_s'])}")
            lines.append(f"# TYPE {metric}_rejection_rate gauge")
            lines.append(
                f"{metric}_rejection_rate {_prom_number(last['rejection_rate'])}"
            )
        else:
            raise ObsError(
                f"metric {name!r} has unexportable shape {type(value).__name__}"
            )
    return "\n".join(lines) + "\n"


# -- health snapshots ------------------------------------------------------
def health_snapshot(now_s: float, metrics, interval_s: float, verdicts=()) -> dict:
    """One JSONL health row: interval rates + cumulative counters + SLOs.

    ``metrics`` is a :class:`~repro.serve.metrics.ServeMetrics`; rates
    come from its windowed series aggregated over the last
    ``interval_s`` (counts, not rounded rates), cumulative counters from
    its registry counters.
    """
    agg = metrics.series.aggregate(now_s - interval_s, now_s)
    p99 = agg.latency.quantile(0.99)
    return {
        "t_s": now_s,
        "interval_s": interval_s,
        "qps": agg.served / interval_s if interval_s > 0 else 0.0,
        "p99_s": p99,
        "rejection_rate": agg.rejection_rate,
        "submitted": metrics.submitted,
        "rejected": metrics.rejected,
        "served": metrics.served,
        "failed": metrics.failed,
        "queue_depth": metrics.queue_depth,
        **{name: metrics.registry.counter(name).value for name in _CLIFF_COUNTERS},
        "slo": [v.to_json() for v in verdicts],
        "worst_state": _worst(verdicts),
    }


def _worst(verdicts) -> str:
    rank = {"ok": 0, "warn": 1, "breach": 2}
    worst = "ok"
    for verdict in verdicts:
        if rank[verdict.state] > rank[worst]:
            worst = verdict.state
    return worst


def append_health_jsonl(path, row: dict) -> None:
    """Append one row; open-per-write so a tailing watcher sees it."""
    with open(path, "a") as fh:
        fh.write(json.dumps(row) + "\n")


def read_health_jsonl(path) -> list[dict]:
    """Strictly load a health JSONL file (typed failures name the line)."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ObsError(f"cannot read health file {path}: {exc}") from None
    rows: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObsError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(row, dict):
            raise ObsError(f"{path}:{lineno}: health row must be an object")
        for key in _HEALTH_NUMBERS:
            if not isinstance(row.get(key), (int, float)) or isinstance(
                row.get(key), bool
            ):
                raise ObsError(f"{path}:{lineno}: health row needs number {key!r}")
        for key in _HEALTH_COUNTS:
            if not isinstance(row.get(key), int) or isinstance(row.get(key), bool):
                raise ObsError(f"{path}:{lineno}: health row needs count {key!r}")
        if not isinstance(row.get("slo", []), list):
            raise ObsError(f"{path}:{lineno}: 'slo' must be a list of verdicts")
        rows.append(row)
    return rows


# -- the watch view --------------------------------------------------------
def _ms(value) -> str:
    return "n/a" if value is None else f"{value * 1e3:7.1f}ms"


def render_watch_header() -> str:
    return (
        f"{'t_s':>9s} {'qps':>8s} {'p99':>9s} {'reject':>7s} "
        f"{'queue':>6s} {'served':>8s} {'slo':>7s}"
    )


def render_watch_row(row: dict) -> str:
    """One health row as one dashboard line (+ per-SLO detail on trouble)."""
    state = row.get("worst_state", "ok")
    flag = {"ok": "ok", "warn": "WARN", "breach": "BREACH"}[state]
    line = (
        f"{row['t_s']:>9.1f} {row['qps']:>8.1f} {_ms(row.get('p99_s')):>9s} "
        f"{row['rejection_rate']:>6.1%} {row.get('queue_depth', 0):>6d} "
        f"{row['served']:>8d} {flag:>7s}"
    )
    details = [
        f"    !! {v['name']}: {v['state']} burn fast {v['burn_fast']:.1f} "
        f"slow {v['burn_slow']:.1f} (measured {v['measured']}, "
        f"objective {v['objective']})"
        for v in row.get("slo", ())
        if v.get("state") != "ok"
    ]
    return "\n".join([line, *details])


def render_watch_rows(rows: list[dict]) -> list[str]:
    """The full replay view: header, every row, and a closing summary."""
    lines = [render_watch_header()]
    lines.extend(render_watch_row(row) for row in rows)
    if rows:
        states = [row.get("worst_state", "ok") for row in rows]
        breaches = sum(1 for s in states if s == "breach")
        warns = sum(1 for s in states if s == "warn")
        last = rows[-1]
        lines.append(
            f"{len(rows)} snapshots: {breaches} breach, {warns} warn; "
            f"final {last['served']} served / {last['rejected']} rejected / "
            f"{last['failed']} failed"
        )
    else:
        lines.append("no health snapshots")
    return lines
