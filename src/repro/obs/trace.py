"""Per-request tracing across the serving stack.

A trace id is minted once at the admission door and rides the request
through every layer: the dispatcher's queue/batch spans and the
executor's backend span.  Each layer records :class:`Span` values into
one shared :class:`Tracer`.

Clocks: spans store the event loop's clock — ``time.monotonic()`` on a
real loop, virtual seconds under the virtual-time loop — so one run's
spans share one timebase.

Exports: JSONL (one span per line, the machine-readable artifact) and
Chrome ``trace_event`` JSON — open ``chrome://tracing`` or
https://ui.perfetto.dev and load the file.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass, field

#: Span timestamps are exported to Chrome in microseconds.
_US = 1e6


@dataclass(frozen=True)
class Span:
    """One timed operation, attributed to a trace and a process/thread.

    ``trace_id`` is ``None`` for a span recorded outside any request's
    trace.
    """

    trace_id: int | None
    name: str
    start_s: float
    dur_s: float
    pid: int
    tid: str
    cat: str = "serve"
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "cat": self.cat,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }


class Tracer:
    """Mints trace ids and collects spans from every layer of one run."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self.pid = os.getpid()

    # -- recording ---------------------------------------------------------
    def mint(self) -> int:
        """A fresh request-unique trace id (minted at admission)."""
        return next(self._ids)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        trace_id: int | None = None,
        tid: str = "main",
        cat: str = "serve",
        **args,
    ) -> None:
        """Record a completed operation from explicit timestamps.

        The serving layers time themselves with ``loop.time()`` and call
        this afterwards, so tracing never adds an await point.
        """
        self.record(
            Span(
                trace_id=trace_id,
                name=name,
                start_s=start_s,
                dur_s=max(0.0, end_s - start_s),
                pid=self.pid,
                tid=tid,
                cat=cat,
                args=args,
            )
        )

    def record_instant(
        self,
        name: str,
        at_s: float,
        trace_id: int | None = None,
        tid: str = "main",
        cat: str = "serve",
        **args,
    ) -> None:
        """A zero-duration marker (e.g. an admission rejection)."""
        self.record_span(
            name, at_s, at_s, trace_id=trace_id, tid=tid, cat=cat, **args
        )

    # -- reading -----------------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    # -- export ------------------------------------------------------------
    def export_jsonl(self, path) -> int:
        """One span per line; returns the number of spans written."""
        spans = self.spans
        with open(path, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_json()) + "\n")
        return len(spans)

    def chrome_trace(self) -> dict:
        """The run as Chrome ``trace_event`` JSON (complete "X" events).

        Timestamps are normalized to the earliest span so the timeline
        starts at zero regardless of the absolute clock, and the serving
        process gets a ``process_name`` metadata event.
        """
        spans = self.spans
        t0 = min((s.start_s for s in spans), default=0.0)
        events: list[dict] = []
        for pid in sorted({s.pid for s in spans}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"serve (pid {pid})"},
                }
            )
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": "X",
                    "ts": (span.start_s - t0) * _US,
                    "dur": span.dur_s * _US,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": {"trace_id": span.trace_id, **span.args},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path) -> int:
        """Write the Chrome trace; returns the number of span events."""
        trace = self.chrome_trace()
        with open(path, "w") as fh:
            json.dump(trace, fh)
        return sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
