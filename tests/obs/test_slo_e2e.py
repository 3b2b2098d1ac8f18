"""E2E acceptance: SLO engine + flight recorder + health plane, real crypto.

One failure drill on the thread executor: two shards serve healthy
traffic (SLO ok), then shard 0's windows stall and shard 1's windows
raise.  The stall pushes the p99 SLO into breach; the raise is the fatal
``batch.failed`` the dispatcher records, which writes the automatic
post-mortem.  Everything the observability plane promises must line up
afterwards:

* the auto post-mortem is named for ``batch.failed`` and cross-links the
  failed window's trace ids;
* the flight recorder holds dispatch + failure + breach events;
* the SLO evaluator reports ok before the fault, breach after;
* the health JSONL replays through ``repro obs-watch``;
* every response that was not failed is byte-correct.
"""

import asyncio
import time

import pytest

from repro.cli import main
from repro.obs import (
    FlightRecorder,
    SloEvaluator,
    Tracer,
    append_health_jsonl,
    health_snapshot,
    parse_slo,
    validate_postmortem,
)
from repro.serve import RealCryptoBackend, RealShardRegistry, ServeRuntime
from repro.systems.batching import BatchPolicy

NUM_RECORDS = 8
RECORD_BYTES = 48
#: The drill sizes itself on the healthy sweep it measures: the latency
#: objective is this many times the slowest healthy query, and the stall
#: the same multiple of the objective.  No constant sits between the two
#: on every host: a healthy sweep takes from a few hundredths to a few
#: tenths of a second depending on the host's state and the backend.
MARGIN = 2.0


class DrillRegistry(RealShardRegistry):
    """Real shards whose windows can be told to stall (shard 0) or to
    raise (shard 1): the faults a production executor meets as a slow or
    a failing window."""

    stall_s = 0.0
    fail = False

    def answer_window(self, shard_id, requests):
        if shard_id == 0 and self.stall_s:
            time.sleep(self.stall_s)
        if shard_id == 1 and self.fail:
            raise RuntimeError("injected window fault")
        return super().answer_window(shard_id, requests)


@pytest.fixture(scope="module")
def drill(small_params, tmp_path_factory):
    """Run the failure drill once; every test asserts on its artifacts."""
    tmp_path = tmp_path_factory.mktemp("slo-e2e")
    registry = DrillRegistry.random(
        small_params,
        num_records=NUM_RECORDS,
        record_bytes=RECORD_BYTES,
        num_shards=2,
        seed=77,
    )
    dump_dir = tmp_path / "postmortems"
    health_path = tmp_path / "health.jsonl"
    recorder = FlightRecorder(dump_dir=str(dump_dir))
    tracer = Tracer()
    policy = BatchPolicy(waiting_window_s=0.005, max_batch=4)

    async def run():
        runtime = ServeRuntime(
            registry,
            RealCryptoBackend(registry, tracer=tracer),
            policy,
            tracer=tracer,
            recorder=recorder,
        )
        loop = asyncio.get_running_loop()
        async with runtime:
            healthy = await asyncio.gather(
                *(runtime.serve_index(i) for i in range(NUM_RECORDS))
            )
            # Latency SLO between healthy and stalled: deterministic
            # ok-before / breach-after, short windows so the drill's few
            # seconds of traffic are what gets judged.
            objective = MARGIN * max(r.latency_s for r in healthy)
            spec = parse_slo(f"p99<={objective:.4f}@1/2")
            evaluator = SloEvaluator(
                runtime.metrics.series, [spec], recorder=recorder
            )
            verdict_before = evaluator.poll(loop.time())[0]
            append_health_jsonl(
                health_path,
                health_snapshot(loop.time(), runtime.metrics, 1.0, [verdict_before]),
            )
            registry.stall_s = MARGIN * spec.objective
            registry.fail = True
            faulted = await asyncio.gather(
                *(runtime.serve_index(i) for i in range(NUM_RECORDS)),
                return_exceptions=True,
            )
            verdict_after = evaluator.poll(loop.time())[0]
            append_health_jsonl(
                health_path,
                health_snapshot(loop.time(), runtime.metrics, 1.0, [verdict_after]),
            )
        return {
            "healthy": healthy,
            "faulted": faulted,
            "before": verdict_before,
            "after": verdict_after,
            "spec": spec,
            "stall_s": registry.stall_s,
        }

    out = asyncio.run(run())
    out.update(
        registry=registry,
        recorder=recorder,
        dump_dir=dump_dir,
        health_path=health_path,
    )
    return out


class TestFailureDrill:
    def test_every_response_that_was_not_failed_is_byte_correct(self, drill):
        registry = drill["registry"]
        served = [r for r in drill["faulted"] if not isinstance(r, Exception)]
        failed = [r for r in drill["faulted"] if isinstance(r, Exception)]
        # Shard 0 stalled but answered; every shard-1 request failed.
        assert {r.request.shard_id for r in served} == {0}
        assert len(failed) == NUM_RECORDS - len(served) > 0
        assert all(isinstance(e, RuntimeError) for e in failed)
        for result in drill["healthy"] + served:
            record = registry.decode(result.request, result.response)
            assert record == registry.expected(result.request.global_index)

    def test_slo_ok_before_breach_after(self, drill):
        assert drill["before"].state == "ok"
        assert drill["before"].burn_fast == 0.0
        assert drill["after"].state == "breach"
        # The stalled windows took at least the stall, so the measured
        # p99 is at least that.
        assert drill["after"].measured >= drill["stall_s"]
        assert drill["after"].burn_fast >= 2.0
        assert drill["after"].burn_slow >= 2.0

    def test_recorder_holds_the_whole_incident(self, drill):
        recorder = drill["recorder"]
        kinds = {e.kind for e in recorder.events()}
        assert {"batch.dispatch", "batch.failed", "slo.breach"} <= kinds
        failures = [e for e in recorder.events() if e.kind == "batch.failed"]
        assert all(e.args["shard"] == 1 for e in failures)
        assert all(e.args["error"] == "RuntimeError" for e in failures)
        assert all(e.trace_ids for e in failures), "failure lost its trace ids"

    def test_postmortem_dump_cross_links_the_failed_window(self, drill):
        dumps = sorted(drill["dump_dir"].glob("postmortem-*.json"))
        failures = [
            e for e in drill["recorder"].events() if e.kind == "batch.failed"
        ]
        assert len(dumps) == len(failures) >= 1  # one dump per failed window
        assert all("batch-failed" in path.name for path in dumps)
        doc = validate_postmortem(dumps[0])
        assert doc["reason"].startswith("batch.failed")
        failed = [e for e in doc["events"] if e["kind"] == "batch.failed"][-1]
        assert failed["trace_ids"], "dump lost the failed window's trace ids"
        for trace_id in failed["trace_ids"]:
            assert failed["seq"] in doc["trace_index"][str(trace_id)]
        # The serving metrics source rode along from the runtime.
        assert doc["sources"]["serve_metrics"]["submitted"] >= NUM_RECORDS

    def test_postmortem_renders_through_the_cli(self, drill, capsys):
        dumps = sorted(drill["dump_dir"].glob("postmortem-*.json"))
        assert main(["obs-report", "--postmortem", str(dumps[0])]) == 0
        out = capsys.readouterr().out
        assert "batch.failed" in out
        assert "trace(s) cross-linked" in out

    def test_health_jsonl_replays_through_obs_watch(self, drill, capsys):
        path = str(drill["health_path"])
        assert main(["obs-watch", path, "--replay"]) == 0
        out = capsys.readouterr().out
        assert "2 snapshots: 1 breach" in out
        assert "BREACH" in out
        assert f"!! {drill['spec'].name}" in out
        # And the breach is machine-detectable for CI gating.
        assert main(["obs-watch", path, "--replay", "--fail-on-breach"]) == 1
