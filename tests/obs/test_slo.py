"""SLO engine: spec validation, burn-rate math, multi-window gating.

All tests drive the evaluator over a :class:`TimeSeries` with explicit
timestamps — the same clock-agnostic contract the serving stack uses —
so the arithmetic is checked exactly, without a running event loop.
"""

import pytest

from repro.errors import ParameterError, SloError
from repro.obs import FlightRecorder, SloEvaluator, SloSpec, TimeSeries, parse_slo


def series_with(window_s=1.0):
    return TimeSeries(window_s=window_s)


def fill(series, t0, t1, latency_s, qps=100, reject_every=0, fail_every=0):
    """Uniform load on [t0, t1): ``qps`` submits per second at ``latency_s``."""
    t = t0
    i = 0
    while t < t1:
        i += 1
        if reject_every and i % reject_every == 0:
            series.record_submit(False, t)
        elif fail_every and i % fail_every == 0:
            series.record_submit(True, t)
            series.record_failed(t)
        else:
            series.record_submit(True, t)
            series.record_served(latency_s, t)
        t = t0 + i / qps
    return series


class TestTimeSeriesSubstrate:
    def test_rows_carry_the_raw_rejected_count(self):
        """Regression: burn-rate math needs counts, not just rounded rates."""
        series = series_with()
        for i in range(10):
            series.record_submit(i % 3 != 0, 0.5)
        rows = series.rows()
        assert len(rows) == 1
        assert rows[0]["submitted"] == 10
        assert rows[0]["rejected"] == 4
        assert rows[0]["rejection_rate"] == pytest.approx(0.4)

    def test_aggregate_merges_windows_in_span(self):
        series = fill(series_with(), 0.0, 5.0, latency_s=0.010)
        agg = series.aggregate(1.0, 4.0)
        assert agg.submitted == 300
        assert agg.served == 300
        assert agg.rejected == 0
        assert agg.latency.count == 300
        assert agg.latency.quantile(0.99) == pytest.approx(0.010, rel=0.05)
        # The full span sees everything; an empty span sees nothing.
        assert series.aggregate(0.0, 5.0).submitted == 500
        assert series.aggregate(10.0, 20.0).submitted == 0

    def test_aggregate_rejects_negative_span(self):
        with pytest.raises(ParameterError):
            series_with().aggregate(5.0, 1.0)

    def test_count_above_matches_recorded_split(self):
        series = series_with()
        for _ in range(90):
            series.record_served(0.010, 0.5)
        for _ in range(10):
            series.record_served(0.800, 0.5)
        agg = series.aggregate(0.0, 1.0)
        # 0.1 sits far from both populations: the sketch's 1% relative
        # accuracy cannot blur the split.
        assert agg.latency.count_above(0.1) == 10
        assert agg.latency.count_above(1.0) == 0
        assert agg.latency.count_above(0.001) == 100
        assert agg.latency.count_above(-1.0) == 100


class TestSloSpec:
    def test_latency_burn_rate_from_counts(self):
        spec = SloSpec(name="p99", kind="latency", objective=0.1, quantile=0.99)
        series = series_with()
        for _ in range(97):
            series.record_served(0.010, 0.5)
        for _ in range(3):
            series.record_served(0.900, 0.5)
        agg = series.aggregate(0.0, 1.0)
        # 3% slow against a 1% budget: burning 3x too fast.
        assert spec.budget == pytest.approx(0.01)
        assert spec.bad_total(agg) == (3, 100)
        assert spec.burn_rate(agg) == pytest.approx(3.0)

    def test_rejection_and_error_burn_rates(self):
        series = fill(series_with(), 0.0, 1.0, 0.01, reject_every=10)
        agg = series.aggregate(0.0, 1.0)
        reject = SloSpec(name="rej", kind="rejection", objective=0.05)
        assert reject.burn_rate(agg) == pytest.approx((10 / 100) / 0.05)
        series2 = fill(series_with(), 0.0, 1.0, 0.01, fail_every=4)
        agg2 = series2.aggregate(0.0, 1.0)
        err = SloSpec(name="err", kind="error", objective=0.5)
        assert err.bad_total(agg2) == (25, 100)
        assert err.burn_rate(agg2) == pytest.approx(0.25 / 0.5)

    def test_idle_window_burns_nothing(self):
        spec = SloSpec(name="p99", kind="latency", objective=0.1)
        agg = series_with().aggregate(0.0, 1.0)
        assert spec.burn_rate(agg) == 0.0
        assert spec.measured(agg) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="nope", objective=0.1),
            dict(kind="latency", objective=0.0),
            dict(kind="latency", objective=0.1, quantile=1.0),
            dict(kind="rejection", objective=1.5),
            dict(kind="error", objective=0.0),
            dict(kind="latency", objective=0.1, fast_window_s=0.0),
            dict(kind="latency", objective=0.1, fast_window_s=10.0, slow_window_s=5.0),
            dict(kind="latency", objective=0.1, warn_burn=3.0, breach_burn=2.0),
        ],
    )
    def test_invalid_specs_raise_typed_errors(self, kwargs):
        with pytest.raises(SloError):
            SloSpec(name="bad", **kwargs)


class TestParseSlo:
    def test_parses_latency_rejection_error_forms(self):
        p99 = parse_slo("p99<=0.25")
        assert (p99.kind, p99.quantile, p99.objective) == ("latency", 0.99, 0.25)
        p50 = parse_slo("p50<=0.02@2/30")
        assert (p50.quantile, p50.fast_window_s, p50.slow_window_s) == (
            0.5, 2.0, 30.0,
        )
        rej = parse_slo("reject<=0.01")
        assert (rej.kind, rej.objective) == ("rejection", 0.01)
        err = parse_slo("error<=0.001")
        assert (err.kind, err.objective) == ("error", 0.001)

    @pytest.mark.parametrize(
        "text", ["p99<0.25", "p42<=0.1", "reject<=", "latency<=0.1", "", "p99<=x"]
    )
    def test_garbage_is_a_typed_error(self, text):
        with pytest.raises(SloError):
            parse_slo(text)

    def test_overrides_win(self):
        spec = parse_slo("p99<=0.25", breach_burn=10.0)
        assert spec.breach_burn == 10.0


class TestSloEvaluator:
    def spec(self, **overrides):
        kwargs = dict(
            name="p99",
            kind="latency",
            objective=0.1,
            quantile=0.99,
            fast_window_s=2.0,
            slow_window_s=10.0,
            warn_burn=1.0,
            breach_burn=2.0,
        )
        kwargs.update(overrides)
        return SloSpec(**kwargs)

    def test_healthy_traffic_is_ok(self):
        series = fill(series_with(), 0.0, 10.0, latency_s=0.010)
        ev = SloEvaluator(series, [self.spec()])
        (verdict,) = ev.evaluate(10.0)
        assert verdict.state == "ok"
        assert verdict.burn_fast == 0.0
        assert verdict.measured == pytest.approx(0.010, rel=0.05)

    def test_sustained_badness_breaches(self):
        # 10% of requests slow against a 1% budget, for the whole slow
        # window: both burns are ~10x, far over breach_burn=2.
        series = series_with()
        for t in range(10):
            for i in range(100):
                lat = 0.900 if i < 10 else 0.010
                series.record_served(lat, t + 0.5)
        ev = SloEvaluator(series, [self.spec()])
        (verdict,) = ev.evaluate(10.0)
        assert verdict.state == "breach"
        assert verdict.burn_fast == pytest.approx(10.0, rel=0.05)
        assert verdict.burn_slow == pytest.approx(10.0, rel=0.05)

    def test_transient_spike_is_gated_by_the_slow_window(self):
        """One bad blip in a long healthy run: fast burns, slow absolves."""
        series = fill(series_with(), 0.0, 9.0, latency_s=0.010)
        # 5 slow of ~105 in the fast window (burn ~4.8x) but 5 of ~905
        # across the slow window (burn ~0.55x): not sustained, no breach.
        for _ in range(5):
            series.record_served(0.900, 9.5)
        ev = SloEvaluator(series, [self.spec()])
        (verdict,) = ev.evaluate(10.0)
        assert verdict.burn_fast > 2.0  # the fast window alone would page
        assert verdict.burn_slow < 2.0  # ...but it is not sustained
        assert verdict.state in ("ok", "warn")
        assert verdict.state != "breach"

    def test_poll_counts_transitions_once_and_records_events(self):
        recorder = FlightRecorder()
        series = series_with()
        ev = SloEvaluator(series, [self.spec()], recorder=recorder)
        ev.poll(1.0)  # idle: ok
        for t in range(12):
            for _ in range(100):
                series.record_served(0.900, t + 0.5)
        ev.poll(12.0)  # everything slow: breach
        ev.poll(12.5)  # still breached: no new transition
        assert ev.breaches == 1
        assert ev.worst_state == "breach"
        assert ev.transitions("p99") == {"ok->breach": 1}
        (event,) = [e for e in recorder.events() if e.kind == "slo.breach"]
        assert event.args["slo"] == "p99"
        assert event.args["previous"] == "ok"
        summary = ev.summary()
        assert summary["breaches"] == 1
        assert summary["slos"][0]["last"]["state"] == "breach"

    def test_recovery_records_the_return_transition(self):
        series = series_with()
        spec = self.spec(fast_window_s=1.0, slow_window_s=2.0)
        recorder = FlightRecorder()
        ev = SloEvaluator(series, [spec], recorder=recorder)
        for _ in range(100):
            series.record_served(0.900, 0.5)
            series.record_served(0.900, 1.5)
        ev.poll(2.0)
        fill(series, 10.0, 12.0, latency_s=0.010)
        ev.poll(12.0)
        assert ev.transitions(spec.name) == {"ok->breach": 1, "breach->ok": 1}
        assert [e.kind for e in recorder.events()] == ["slo.breach", "slo.recover"]

    def test_duplicate_or_empty_specs_are_typed_errors(self):
        series = series_with()
        with pytest.raises(SloError):
            SloEvaluator(series, [])
        with pytest.raises(SloError):
            SloEvaluator(series, [self.spec(), self.spec()])
