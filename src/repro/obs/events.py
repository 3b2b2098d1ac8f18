"""Flight recorder: a bounded ring of structured serving events.

Metrics say *how much*; traces say *how long*; neither says *what
happened* when a worker dies mid-batch.  The flight recorder fills that
gap: every control-plane decision — an admission rejection, a dispatch,
a worker death, a retry, a rebalance, an epoch publish, a heartbeat
timeout, an SLO state transition — is one :class:`Event` in a fixed-size
ring buffer.  Recording is a deque append under a lock: cheap enough to
leave on in production, bounded no matter how long a run streams.

On a fatal event (by default ``worker.death`` and ``heartbeat.timeout``)
the recorder snapshots itself into a **post-mortem**: the ring, every
attached context source (the coordinator's ``cluster_snapshot()``, the
live metrics series), and a trace-id index cross-linking events to the
distributed traces of the requests they affected.  The dump is one JSON
file, validated and rendered by ``repro obs-report --postmortem``.

Event timestamps are whatever clock the recorder's callers use —
``loop.time()`` on the serving side — so the ring lines up with the
metrics windows and trace spans of the same run, wall-clock or virtual.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ParameterError

#: The schema version stamped into post-mortem dumps.
POSTMORTEM_VERSION = 1

#: Event kinds that snapshot a post-mortem when a dump directory is set.
DEFAULT_TRIGGER_KINDS = frozenset({"worker.death", "heartbeat.timeout"})

#: kind -> severity for the kinds the serving stack records.  Unknown
#: kinds default to "info" — the recorder owns no semantics beyond this.
_SEVERITY = {
    "admission.reject": "warn",
    "batch.failed": "error",
    "batch.retry": "warn",
    "worker.death": "error",
    "heartbeat.timeout": "error",
    "shard.rebalance": "warn",
    "slo.breach": "error",
    "slo.warn": "warn",
    "postmortem.error": "error",
}


@dataclass(frozen=True)
class Event:
    """One structured control-plane occurrence."""

    seq: int
    at_s: float
    kind: str
    severity: str
    trace_ids: tuple = ()
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "at_s": self.at_s,
            "kind": self.kind,
            "severity": self.severity,
            "trace_ids": list(self.trace_ids),
            "args": self.args,
        }


class FlightRecorder:
    """Bounded ring of :class:`Event` values with post-mortem dumps.

    Thread-safe: the dispatcher records from the event loop while the
    coordinator's reader threads marshal deaths in and benchmark
    harnesses read snapshots.  The ring holds the last ``capacity``
    events; older ones are evicted (counted in ``dropped``), which is
    exactly what a post-mortem wants — the most recent history, not an
    unbounded archive.
    """

    def __init__(
        self,
        capacity: int = 4096,
        dump_dir: str | None = None,
        trigger_kinds=DEFAULT_TRIGGER_KINDS,
        max_dumps: int = 8,
    ):
        if capacity < 1:
            raise ParameterError("flight recorder needs capacity >= 1")
        if max_dumps < 1:
            raise ParameterError("need room for at least one post-mortem")
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.trigger_kinds = frozenset(trigger_kinds)
        self.max_dumps = max_dumps
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._dumps_written = 0
        self._sources: dict[str, object] = {}
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def record(
        self,
        kind: str,
        at_s: float,
        trace_ids=(),
        severity: str | None = None,
        **args,
    ) -> Event:
        """Append one event; fires a post-mortem dump on a trigger kind."""
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                at_s=at_s,
                kind=kind,
                severity=severity or _SEVERITY.get(kind, "info"),
                trace_ids=tuple(t for t in trace_ids if t is not None),
                args=args,
            )
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)
        # The failure marker itself can never trigger (that would recurse).
        if (
            kind in self.trigger_kinds
            and kind != "postmortem.error"
            and self.dump_dir is not None
        ):
            self._auto_dump(event)
        return event

    def attach_source(self, name: str, snapshot_fn) -> None:
        """Register a zero-arg callable snapshotted into every dump.

        The coordinator attaches ``cluster_snapshot``; the serving metrics
        attach ``live_series``.  Sources are called at dump time, so the
        post-mortem captures the state *at* the fatal event.
        """
        with self._lock:
            self._sources[name] = snapshot_fn

    # -- reading -----------------------------------------------------------
    def events(self) -> list[Event]:
        with self._lock:
            return list(self._ring)

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def dumps_written(self) -> int:
        return self._dumps_written

    # -- post-mortems ------------------------------------------------------
    def postmortem(self, reason: str, at_s: float) -> dict:
        """The dump as a JSON-ready dict (ring + sources + cross-links)."""
        events = self.events()
        sources = {}
        with self._lock:
            snapshot_fns = dict(self._sources)
        for name, fn in sorted(snapshot_fns.items()):
            try:
                sources[name] = fn()
            except Exception as exc:  # noqa: BLE001 — a dead source must
                # not cost us the dump; the failure is itself recorded.
                sources[name] = {"error": f"{type(exc).__name__}: {exc}"}
        index: dict[int, list[int]] = {}
        for event in events:
            for trace_id in event.trace_ids:
                index.setdefault(trace_id, []).append(event.seq)
        return {
            "postmortem_version": POSTMORTEM_VERSION,
            "reason": reason,
            "at_s": at_s,
            "capacity": self.capacity,
            "dropped": self._dropped,
            "events": [e.to_json() for e in events],
            "trace_index": {str(t): seqs for t, seqs in sorted(index.items())},
            "sources": sources,
        }

    def dump(self, path: str, reason: str, at_s: float) -> str:
        """Write one post-mortem JSON file; returns the path."""
        doc = self.postmortem(reason, at_s)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, default=_jsonable)
        with self._lock:
            self._dumps_written += 1
        return path

    def _auto_dump(self, event: Event) -> None:
        """Triggered dump into ``dump_dir``; never breaks the caller."""
        with self._lock:
            if self._dumps_written >= self.max_dumps:
                return
            n = self._dumps_written
        path = os.path.join(
            self.dump_dir, f"postmortem-{n:03d}-{event.kind.replace('.', '-')}.json"
        )
        try:
            os.makedirs(self.dump_dir, exist_ok=True)
            self.dump(path, reason=f"{event.kind} (event seq {event.seq})",
                      at_s=event.at_s)
        except Exception as exc:  # noqa: BLE001 — the recorder is an
            # observer: a full disk must not take the coordinator down
            # with it.  The failure stays visible as its own event.
            self.record(
                "postmortem.error",
                event.at_s,
                path=path,
                error=f"{type(exc).__name__}: {exc}",
            )


def _jsonable(value):
    """Last-resort serializer for source snapshots (tuples, numpy scalars)."""
    if hasattr(value, "item"):
        return value.item()
    if hasattr(value, "to_json"):
        return value.to_json()
    return str(value)
