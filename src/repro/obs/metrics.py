"""Bounded-memory metrics: counters, gauges, quantile sketches, windows.

The serving stack used to account a run by appending every latency to a
Python list and calling ``np.percentile`` at the end — exact, but the
reservoir grows forever and there is no *live* view, so an autoscaler
has nothing to watch.  This module is the replacement substrate:

* :class:`CounterMetric` / :class:`GaugeMetric` — named scalars;
* :class:`QuantileSketch` — a DDSketch-style log-bucketed streaming
  quantile estimator with a relative-accuracy guarantee: memory is
  O(log(max/min) / alpha) regardless of how many samples stream in, and
  every reported quantile is within ``relative_accuracy`` of the exact
  nearest-rank value;
* :class:`Histogram` — a sketch plus exact count/sum/min/max;
* :class:`TimeSeries` — fixed-width time windows of serving signals
  (``qps``, ``p99_s``, ``rejection_rate``), the live feed the future
  SLO controller consumes;
* :class:`MetricsRegistry` — create-or-get ownership of the above by
  name, with one JSON-serializable snapshot of everything.

Everything is thread-safe: dispatchers record from the event loop while
kernel threads and benchmark harnesses read snapshots concurrently.

An *empty* sketch reports ``None`` quantiles — never ``0.0``, which
would be indistinguishable from a genuine zero-latency run.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.errors import ParameterError

#: Values at or below this are counted in the sketch's zero bucket: the
#: log mapping needs a positive floor, and sub-picosecond "latencies"
#: are clock noise, not signal.
_ZERO_FLOOR = 1e-12


class CounterMetric:
    """A monotonically increasing named counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ParameterError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class GaugeMetric:
    """A named point-in-time value; also tracks the maximum ever set."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max


class QuantileSketch:
    """Streaming quantiles in bounded memory (DDSketch-style log buckets).

    A non-negative sample ``v`` lands in bucket ``ceil(log_gamma(v))``
    with ``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``; the
    bucket midpoint ``2 * gamma^k / (gamma + 1)`` is then within a
    relative error of ``a`` of every value the bucket holds.  Quantiles
    are nearest-rank over the bucket counts, so the estimate is within
    ``a`` (relative) of the exact nearest-rank sample — the guarantee
    the accuracy tests assert against ``np.percentile``.
    """

    def __init__(self, relative_accuracy: float = 0.01):
        if not 0.0 < relative_accuracy < 1.0:
            raise ParameterError("relative accuracy must be in (0, 1)")
        self.relative_accuracy = relative_accuracy
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            raise ParameterError(f"sketch values must be non-negative, got {value}")
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if value <= _ZERO_FLOOR:
                self._zero_count += 1
            else:
                key = math.ceil(math.log(value) / self._log_gamma)
                self._buckets[key] = self._buckets.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (same accuracy, hence same bucketing)."""
        if other.gamma != self.gamma:
            raise ParameterError("cannot merge sketches of different accuracy")
        # Snapshot the source under its own lock first (it may be a live
        # window still being recorded into), then fold under ours.  Lock
        # order is always source-then-destination on distinct objects, and
        # self-merge would deadlock, so it short-circuits.
        if other is self:
            with self._lock:
                self.count *= 2
                self.sum *= 2.0
                self._zero_count *= 2
                for key in list(self._buckets):
                    self._buckets[key] *= 2
            return
        with other._lock:
            count, total = other.count, other.sum
            zero = other._zero_count
            buckets = dict(other._buckets)
            lo, hi = other.min, other.max
        with self._lock:
            self.count += count
            self.sum += total
            self._zero_count += zero
            for key, n in buckets.items():
                self._buckets[key] = self._buckets.get(key, 0) + n
            for bound, pick, theirs in (("min", min, lo), ("max", max, hi)):
                ours = getattr(self, bound)
                if theirs is not None:
                    setattr(self, bound, theirs if ours is None else pick(ours, theirs))

    def count_above(self, threshold: float) -> int:
        """How many recorded samples exceeded ``threshold``.

        The count is exact up to bucket granularity: samples in the
        threshold's own bucket are within ``relative_accuracy`` of it, so
        the answer is exact for any threshold at least that far from
        every sample — which is what burn-rate math needs ("requests
        slower than the objective"), not an exact rank.
        """
        threshold = float(threshold)
        with self._lock:
            if self.count == 0:
                return 0
            if threshold < 0.0:
                return self.count
            if threshold <= _ZERO_FLOOR:
                return self.count - self._zero_count
            key = math.ceil(math.log(threshold) / self._log_gamma)
            return sum(n for k, n in self._buckets.items() if k > key)

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile estimate; ``None`` on an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile {q} must be in [0, 1]")
        with self._lock:
            if self.count == 0:
                return None
            rank = max(0, math.ceil(q * self.count) - 1)
            # The extremes are tracked exactly; rank 0 / count-1 short-
            # circuit to them so q=0 and q=1 are exact, not bucketed.
            if rank == 0:
                return self.min
            if rank == self.count - 1:
                return self.max
            if rank < self._zero_count:
                return 0.0
            seen = self._zero_count
            for key in sorted(self._buckets):
                seen += self._buckets[key]
                if rank < seen:
                    estimate = 2.0 * self.gamma**key / (self.gamma + 1.0)
                    # Clamping to the exact extremes never worsens the
                    # relative-error bound for interior ranks.
                    return min(max(estimate, self.min), self.max)
            return self.max  # pragma: no cover — rank < count always lands

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def summary(self) -> dict:
        """JSON-serializable digest (quantiles ``None`` when empty)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class Histogram:
    """A named distribution: one quantile sketch with its exact moments."""

    def __init__(self, name: str, relative_accuracy: float = 0.01):
        self.name = name
        self.sketch = QuantileSketch(relative_accuracy)

    def record(self, value: float) -> None:
        self.sketch.record(value)

    def quantile(self, q: float) -> float | None:
        return self.sketch.quantile(q)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def mean(self) -> float | None:
        return self.sketch.mean

    def summary(self) -> dict:
        return self.sketch.summary()


@dataclass
class _Window:
    """One time bucket of serving signals."""

    submitted: int = 0
    rejected: int = 0
    served: int = 0
    failed: int = 0
    latency: QuantileSketch | None = None


@dataclass
class WindowAggregate:
    """Serving signals folded over a span of time-series windows.

    The SLO evaluator's raw material: exact counts plus one merged
    latency sketch, so burn rates are computed from counts — never
    reconstructed from rounded rates.
    """

    since_s: float
    until_s: float
    submitted: int = 0
    rejected: int = 0
    served: int = 0
    failed: int = 0
    latency: QuantileSketch | None = None

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def error_rate(self) -> float:
        finished = self.served + self.failed
        return self.failed / finished if finished else 0.0


class TimeSeries:
    """Windowed serving signals: the live view an autoscaler watches.

    Events are bucketed by ``int(t // window_s)`` against whatever clock
    the caller records with (event-loop time, so the same series works
    under the virtual-time loop).  Retention is bounded: once more than
    ``max_windows`` buckets exist, the oldest are dropped — the series
    is a live feed, not an archive.
    """

    def __init__(
        self,
        window_s: float = 1.0,
        max_windows: int = 600,
        relative_accuracy: float = 0.01,
    ):
        if window_s <= 0:
            raise ParameterError("window width must be positive")
        if max_windows < 1:
            raise ParameterError("need at least one retained window")
        self.window_s = window_s
        self.max_windows = max_windows
        self.relative_accuracy = relative_accuracy
        self._windows: dict[int, _Window] = {}
        self._lock = threading.Lock()

    def _window(self, t_s: float) -> _Window:
        key = int(t_s // self.window_s)
        window = self._windows.get(key)
        if window is None:
            window = _Window(latency=QuantileSketch(self.relative_accuracy))
            self._windows[key] = window
            if len(self._windows) > self.max_windows:
                for stale in sorted(self._windows)[: -self.max_windows]:
                    del self._windows[stale]
        return window

    def record_submit(self, accepted: bool, t_s: float) -> None:
        with self._lock:
            window = self._window(t_s)
            window.submitted += 1
            if not accepted:
                window.rejected += 1

    def record_served(self, latency_s: float, t_s: float) -> None:
        with self._lock:
            window = self._window(t_s)
            window.served += 1
            window.latency.record(latency_s)

    def record_failed(self, t_s: float, count: int = 1) -> None:
        with self._lock:
            self._window(t_s).failed += count

    def rows(self) -> list[dict]:
        """The series as JSON rows, oldest first."""
        with self._lock:
            items = sorted(self._windows.items())
        return [
            {
                "t_s": key * self.window_s,
                "qps": window.served / self.window_s,
                "p99_s": window.latency.quantile(0.99),
                "rejection_rate": (
                    window.rejected / window.submitted if window.submitted else 0.0
                ),
                "submitted": window.submitted,
                # The raw shed count, not just the rounded rate: burn-rate
                # math divides counts, and counts also survive re-windowing.
                "rejected": window.rejected,
                "served": window.served,
                "failed": window.failed,
            }
            for key, window in items
        ]

    def aggregate(self, since_s: float, until_s: float) -> WindowAggregate:
        """Fold every window overlapping ``[since_s, until_s)`` into one.

        A window is included when it overlaps the span at all, so the
        aggregate is quantized to whole windows (the evaluator's lookback
        resolution is the series' window width).  Works under either the
        wall clock or the virtual-time loop — both record against the
        same ``loop.time()`` axis the span refers to.
        """
        if until_s < since_s:
            raise ParameterError("aggregate span must not be negative")
        agg = WindowAggregate(
            since_s=since_s,
            until_s=until_s,
            latency=QuantileSketch(self.relative_accuracy),
        )
        with self._lock:
            windows = [
                window
                for key, window in self._windows.items()
                if key * self.window_s < until_s
                and (key + 1) * self.window_s > since_s
            ]
        for window in windows:
            agg.submitted += window.submitted
            agg.rejected += window.rejected
            agg.served += window.served
            agg.failed += window.failed
            agg.latency.merge(window.latency)
        return agg


class MetricsRegistry:
    """Create-or-get ownership of named metrics, one snapshot for all.

    The registry is the recording substrate behind
    :class:`~repro.serve.metrics.ServeMetrics` and anything else that
    wants named instruments; it owns no semantics, only the namespace.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ParameterError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric, lambda: CounterMetric(name))

    def gauge(self, name: str) -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric, lambda: GaugeMetric(name))

    def histogram(self, name: str, relative_accuracy: float = 0.01) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, relative_accuracy)
        )

    def series(self, name: str, window_s: float = 1.0) -> TimeSeries:
        return self._get_or_create(name, TimeSeries, lambda: TimeSeries(window_s))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> dict:
        """Every metric's current value, JSON-serializable."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, object] = {}
        for name, metric in sorted(metrics.items()):
            if isinstance(metric, CounterMetric):
                out[name] = metric.value
            elif isinstance(metric, GaugeMetric):
                out[name] = {"value": metric.value, "max": metric.max}
            elif isinstance(metric, Histogram):
                out[name] = metric.summary()
            elif isinstance(metric, TimeSeries):
                out[name] = metric.rows()
        return out


# -- kernel-side counters ----------------------------------------------------
#
# Code below the serving layer (the PIR servers, the compute backends)
# has no runtime to hand it a registry, so — like the kernel profiler in
# :mod:`repro.obs.profile` — it records through a process-global hook:
# whoever owns a registry installs it, and :func:`count` is a no-op
# global read while none is installed.

_INSTALLED: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or clear, with ``None``) the registry :func:`count` feeds.

    Returns the previously installed registry so callers can restore it.
    """
    global _INSTALLED
    previous = _INSTALLED
    _INSTALLED = registry
    return previous


def active() -> MetricsRegistry | None:
    """The registry :func:`count` currently feeds, if any."""
    return _INSTALLED


def count(name: str, amount: int = 1) -> None:
    """Add ``amount`` to counter ``name`` of the installed registry, if any."""
    registry = _INSTALLED
    if registry is not None:
        registry.counter(name).inc(amount)
