"""SLO definitions and multi-window burn-rate evaluation.

The sensor half of the ROADMAP's SLO-driven autoscaling loop: an
:class:`SloSpec` declares an objective — a latency quantile, a
rejection-rate bound, or an error-rate bound — and the
:class:`SloEvaluator` turns the live
:class:`~repro.obs.metrics.TimeSeries` into typed :class:`SloVerdict`
values using Google-SRE-style burn rates.

Burn rate is *budget consumption speed*: with an objective of "p99 at or
under 250 ms" (quantile 0.99), one request in a hundred is allowed to be
slower — that 1% is the error budget.  If 3% of the requests in a window
were slower, the window burned budget at 3x the sustainable rate: burn
rate 3.0.  Rates come straight from the raw window counts (``rejected``
over ``submitted``, sketch ``count_above`` over ``count``) — never
reconstructed from rounded rates.

One window is not enough: a single slow batch in an otherwise quiet
second produces a huge instantaneous burn that self-heals; a long window
alone keeps paging for an incident that ended ten minutes ago.  The
classic fix is to require **both** a fast and a slow window over
threshold — fast proves it is happening *now*, slow proves it is
*sustained* — and that is exactly what the evaluator does, with a lower
``warn_burn`` and higher ``breach_burn`` pair.

Everything is clock-agnostic: the evaluator is handed ``now_s`` on the
same axis the series records on, so the identical code judges a
wall-clock real-crypto run and a virtual-time million-query simulation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import SloError
from repro.obs.metrics import TimeSeries, WindowAggregate

#: Verdict states, in increasing severity (index = badness rank).
STATES = ("ok", "warn", "breach")

_LATENCY_QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}

#: ``p99<=0.25``, ``reject<=0.01``, ``error<=0.001`` with an optional
#: ``@fast/slow`` window suffix in seconds, e.g. ``p99<=0.25@5/60``.
_SPEC_RE = re.compile(
    r"^(?P<signal>p50|p95|p99|reject|error)"
    r"<=(?P<objective>[0-9.eE+-]+)"
    r"(?:@(?P<fast>[0-9.]+)/(?P<slow>[0-9.]+))?$"
)


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the serving signals.

    ``kind`` selects the signal:

    * ``latency`` — fraction of served requests slower than ``objective``
      seconds must stay within ``1 - quantile``;
    * ``rejection`` — fraction of submissions shed at admission must stay
      within ``objective``;
    * ``error`` — fraction of finished requests that failed must stay
      within ``objective``.
    """

    name: str
    kind: str
    objective: float
    quantile: float = 0.99
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    warn_burn: float = 1.0
    breach_burn: float = 2.0

    def __post_init__(self):
        if self.kind not in ("latency", "rejection", "error"):
            raise SloError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency":
            if self.objective <= 0.0:
                raise SloError("latency objective must be positive seconds")
            if not 0.0 < self.quantile < 1.0:
                raise SloError("latency quantile must be in (0, 1)")
        elif not 0.0 < self.objective < 1.0:
            raise SloError(f"{self.kind} objective must be a fraction in (0, 1)")
        if not 0.0 < self.fast_window_s <= self.slow_window_s:
            raise SloError("need 0 < fast window <= slow window")
        if not 0.0 < self.warn_burn <= self.breach_burn:
            raise SloError("need 0 < warn burn <= breach burn")

    @property
    def budget(self) -> float:
        """Allowed bad fraction (what a burn rate of 1.0 consumes)."""
        return (1.0 - self.quantile) if self.kind == "latency" else self.objective

    def bad_total(self, agg: WindowAggregate) -> tuple[int, int]:
        """(bad events, total events) for this objective in one aggregate."""
        if self.kind == "latency":
            return agg.latency.count_above(self.objective), agg.latency.count
        if self.kind == "rejection":
            return agg.rejected, agg.submitted
        return agg.failed, agg.served + agg.failed

    def burn_rate(self, agg: WindowAggregate) -> float:
        """Budget-consumption speed over one aggregate; 0.0 when idle."""
        bad, total = self.bad_total(agg)
        if total == 0:
            return 0.0
        return (bad / total) / self.budget

    def measured(self, agg: WindowAggregate) -> float | None:
        """The headline number a human compares to the objective."""
        if self.kind == "latency":
            return agg.latency.quantile(self.quantile)
        if self.kind == "rejection":
            return agg.rejection_rate
        return agg.error_rate

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "quantile": self.quantile if self.kind == "latency" else None,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "warn_burn": self.warn_burn,
            "breach_burn": self.breach_burn,
        }


@dataclass(frozen=True)
class SloVerdict:
    """One evaluation of one spec at one instant."""

    name: str
    kind: str
    state: str
    at_s: float
    burn_fast: float
    burn_slow: float
    measured: float | None
    objective: float
    fast_window_s: float
    slow_window_s: float
    samples: int = 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "at_s": self.at_s,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "measured": self.measured,
            "objective": self.objective,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "samples": self.samples,
        }


def parse_slo(text: str, **overrides) -> SloSpec:
    """Parse one ``--slo`` string into a spec.

    Forms: ``p50|p95|p99<=SECONDS`` (latency), ``reject<=FRACTION``,
    ``error<=FRACTION``; all take an optional ``@FAST/SLOW`` window
    suffix in seconds.  Anything else is a typed :class:`SloError`.
    """
    m = _SPEC_RE.match(text.strip())
    if m is None:
        raise SloError(
            f"cannot parse SLO {text!r}; expected e.g. 'p99<=0.25', "
            f"'reject<=0.01', 'error<=0.001', optionally '@FAST/SLOW' seconds"
        )
    signal = m.group("signal")
    try:
        objective = float(m.group("objective"))
    except ValueError:
        raise SloError(f"bad objective number in SLO {text!r}") from None
    kwargs: dict = {"name": text.strip(), "objective": objective}
    if signal in _LATENCY_QUANTILES:
        kwargs["kind"] = "latency"
        kwargs["quantile"] = _LATENCY_QUANTILES[signal]
    else:
        kwargs["kind"] = "rejection" if signal == "reject" else "error"
    if m.group("fast") is not None:
        kwargs["fast_window_s"] = float(m.group("fast"))
        kwargs["slow_window_s"] = float(m.group("slow"))
    kwargs.update(overrides)
    return SloSpec(**kwargs)


@dataclass
class _SpecState:
    """Streaming bookkeeping for one spec."""

    last: SloVerdict | None = None
    transitions: dict = field(default_factory=dict)


class SloEvaluator:
    """Streams verdicts for a set of specs over one live series.

    Stateless per evaluation (aggregate, divide, compare) but stateful
    across evaluations: it remembers the previous verdict per spec so
    state *transitions* — the events an operator and the flight recorder
    care about — are detected and counted exactly once.
    """

    def __init__(self, series: TimeSeries, specs, recorder=None):
        specs = list(specs)
        if not specs:
            raise SloError("need at least one SLO spec to evaluate")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise SloError(f"duplicate SLO names: {sorted(names)}")
        self.series = series
        self.specs = specs
        self.recorder = recorder
        self._state = {s.name: _SpecState() for s in specs}
        self.evaluations = 0
        self.breaches = 0

    def evaluate(self, now_s: float) -> list[SloVerdict]:
        """Judge every spec at ``now_s``; pure — no streaming state."""
        verdicts = []
        for spec in self.specs:
            fast = self.series.aggregate(now_s - spec.fast_window_s, now_s)
            slow = self.series.aggregate(now_s - spec.slow_window_s, now_s)
            burn_fast = spec.burn_rate(fast)
            burn_slow = spec.burn_rate(slow)
            # Multi-window gating: BOTH windows must burn over threshold —
            # fast alone is noise, slow alone is an incident already over.
            confirmed = min(burn_fast, burn_slow)
            if confirmed >= spec.breach_burn:
                state = "breach"
            elif confirmed >= spec.warn_burn:
                state = "warn"
            else:
                state = "ok"
            verdicts.append(
                SloVerdict(
                    name=spec.name,
                    kind=spec.kind,
                    state=state,
                    at_s=now_s,
                    burn_fast=burn_fast,
                    burn_slow=burn_slow,
                    measured=spec.measured(fast),
                    objective=spec.objective,
                    fast_window_s=spec.fast_window_s,
                    slow_window_s=spec.slow_window_s,
                    samples=spec.bad_total(fast)[1],
                )
            )
        return verdicts

    def poll(self, now_s: float) -> list[SloVerdict]:
        """Evaluate + update streaming state; records transition events."""
        verdicts = self.evaluate(now_s)
        self.evaluations += 1
        for verdict in verdicts:
            state = self._state[verdict.name]
            previous = state.last.state if state.last is not None else "ok"
            if verdict.state != previous:
                key = f"{previous}->{verdict.state}"
                state.transitions[key] = state.transitions.get(key, 0) + 1
                if verdict.state == "breach":
                    self.breaches += 1
                self._record_transition(verdict, previous)
            state.last = verdict
        return verdicts

    def _record_transition(self, verdict: SloVerdict, previous: str) -> None:
        if self.recorder is None:
            return
        kind = {
            "breach": "slo.breach",
            "warn": "slo.warn",
            "ok": "slo.recover",
        }[verdict.state]
        self.recorder.record(
            kind,
            verdict.at_s,
            slo=verdict.name,
            previous=previous,
            burn_fast=verdict.burn_fast,
            burn_slow=verdict.burn_slow,
            measured=verdict.measured,
            objective=verdict.objective,
        )

    # -- streaming summaries ----------------------------------------------
    @property
    def last_verdicts(self) -> list[SloVerdict]:
        return [
            st.last
            for st in (self._state[s.name] for s in self.specs)
            if st.last is not None
        ]

    @property
    def worst_state(self) -> str:
        verdicts = self.last_verdicts
        if not verdicts:
            return "ok"
        return max(verdicts, key=lambda v: STATES.index(v.state)).state

    def transitions(self, name: str) -> dict:
        return dict(self._state[name].transitions)

    def summary(self) -> dict:
        """JSON-ready digest: last verdict + transition counts per spec."""
        return {
            "evaluations": self.evaluations,
            "breaches": self.breaches,
            "worst_state": self.worst_state,
            "slos": [
                {
                    "spec": spec.to_json(),
                    "last": (
                        self._state[spec.name].last.to_json()
                        if self._state[spec.name].last is not None
                        else None
                    ),
                    "transitions": dict(self._state[spec.name].transitions),
                }
                for spec in self.specs
            ],
        }
