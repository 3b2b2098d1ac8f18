"""E2E acceptance: SLO engine + flight recorder + health plane on a cluster.

One real failure drill: a cluster serves healthy traffic (SLO ok), then a
worker is SIGSTOP'd with a batch in flight — the heartbeat monitor
declares it dead, the victim batch retries onto a rebalanced replica, and
the added ~heartbeat-timeout of latency pushes the p99 SLO into breach.
Everything the observability plane promises must line up afterwards:

* the auto post-mortem names the death and cross-links the victim
  batch's trace ids;
* the flight recorder holds death + retry + rebalance events;
* the SLO evaluator reports ok before the kill, breach after;
* the health JSONL replays through ``repro obs-watch``.
"""

import asyncio
import os
import signal

import pytest

from repro.cli import main
from repro.cluster import ClusterCoordinator, ClusterRegistry
from repro.obs import (
    FlightRecorder,
    SloEvaluator,
    Tracer,
    append_health_jsonl,
    health_snapshot,
    parse_slo,
    validate_postmortem,
)
from repro.serve import ServeRuntime
from repro.systems.batching import BatchPolicy

NUM_RECORDS = 8
RECORD_BYTES = 48
#: The drill sizes itself on the healthy sweep it measures: the latency
#: objective is this many times the slowest healthy query, and the
#: heartbeat timeout — the least a victim can take — the same multiple of
#: the objective.  No constant sits between the two on every host: the
#: 2-vCPU box serves a healthy sweep in 0.05 s or in 0.45 s depending on
#: which of its two speeds it is in and on the compute backend.
MARGIN = 2.0


@pytest.fixture(scope="module")
def drill(small_params, tmp_path_factory):
    """Run the failure drill once; every test asserts on its artifacts."""
    tmp_path = tmp_path_factory.mktemp("slo-e2e")
    registry = ClusterRegistry.random(
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
        # The heartbeat timeout is set once the healthy sweep has been
        # measured; until then nothing is stalled and the default holds.
        coordinator = ClusterCoordinator(
            registry,
            num_workers=2,
            replication=1,
            heartbeat_interval_s=0.05,
            tracer=tracer,
            recorder=recorder,
        )
        async with coordinator:
            runtime = ServeRuntime(
                registry,
                coordinator,
                policy,
                tracer=tracer,
                recorder=recorder,
            )
            loop = asyncio.get_running_loop()
            async with runtime:
                healthy = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
                # Latency SLO between healthy and victim (>= heartbeat
                # timeout): deterministic ok-before / breach-after, short
                # windows so the drill's few seconds of traffic are what
                # gets judged.
                objective = MARGIN * max(r.latency_s for r in healthy)
                spec = parse_slo(f"p99<={objective:.4f}@1/2")
                coordinator.heartbeat_timeout_s = MARGIN * spec.objective
                evaluator = SloEvaluator(
                    runtime.metrics.series, [spec], recorder=recorder
                )
                verdict_before = evaluator.poll(loop.time())[0]
                append_health_jsonl(
                    health_path,
                    health_snapshot(
                        loop.time(), runtime.metrics, 1.0, [verdict_before],
                        coordinator.cluster_snapshot(),
                    ),
                )
                # Stall worker 0 *before* the second sweep: its shard-0
                # batch lands on a frozen process and can only complete
                # after the heartbeat monitor declares the death.
                os.kill(
                    coordinator._workers[0].process.pid, signal.SIGSTOP
                )
                victims = await asyncio.gather(
                    *(runtime.serve_index(i) for i in range(NUM_RECORDS))
                )
                verdict_after = evaluator.poll(loop.time())[0]
                append_health_jsonl(
                    health_path,
                    health_snapshot(
                        loop.time(), runtime.metrics, 1.0, [verdict_after],
                        coordinator.cluster_snapshot(),
                    ),
                )
            return {
                "healthy": healthy,
                "victims": victims,
                "before": verdict_before,
                "after": verdict_after,
                "stats": coordinator.stats,
                "spec": spec,
                "heartbeat_timeout_s": coordinator.heartbeat_timeout_s,
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
    def test_every_response_is_byte_correct(self, drill):
        registry = drill["registry"]
        for result in drill["healthy"] + drill["victims"]:
            record = registry.decode(result.request, result.response)
            assert record == registry.expected(result.request.global_index)

    def test_death_was_a_heartbeat_timeout_with_retry_and_rebalance(self, drill):
        stats = drill["stats"]
        assert stats.worker_deaths == 1
        assert stats.heartbeat_timeouts == 1
        assert stats.batches_retried >= 1
        assert stats.rebalanced_shards >= 1

    def test_slo_ok_before_breach_after(self, drill):
        assert drill["before"].state == "ok"
        assert drill["before"].burn_fast == 0.0
        assert drill["after"].state == "breach"
        # The victim batch waited out the heartbeat timeout, so the
        # measured p99 is at least that.
        assert drill["after"].measured >= drill["heartbeat_timeout_s"]
        assert drill["after"].burn_fast >= 2.0
        assert drill["after"].burn_slow >= 2.0

    def test_recorder_holds_the_whole_incident(self, drill):
        recorder = drill["recorder"]
        kinds = {e.kind for e in recorder.events()}
        assert {
            "batch.dispatch",
            "heartbeat.timeout",
            "worker.death",
            "batch.retry",
            "shard.rebalance",
            "slo.breach",
        } <= kinds
        (death,) = [e for e in recorder.events() if e.kind == "worker.death"]
        (retry,) = [e for e in recorder.events() if e.kind == "batch.retry"]
        assert death.args["worker"] == 0
        assert death.trace_ids, "death event lost its victim trace ids"
        # The retried batch is the one the death victimized.
        assert set(retry.trace_ids) <= set(death.trace_ids)
        (rebalance,) = [e for e in recorder.events() if e.kind == "shard.rebalance"]
        assert rebalance.args["target_worker"] == 1

    def test_postmortem_dump_cross_links_the_victim_batch(self, drill):
        dumps = sorted(drill["dump_dir"].glob("postmortem-*.json"))
        assert len(dumps) == 2  # heartbeat.timeout, then worker.death
        doc = validate_postmortem(dumps[1])
        assert "worker-death" in dumps[1].name
        events = {e["kind"]: e for e in doc["events"]}
        death = events["worker.death"]
        assert death["trace_ids"], "dump lost the victim trace ids"
        for trace_id in death["trace_ids"]:
            assert death["seq"] in doc["trace_index"][str(trace_id)]
        # The attached cluster source captured the fleet *at* the death.
        cluster = doc["sources"]["cluster"]
        assert cluster["workers"]["0"]["inflight"] >= 1
        # The serving metrics source rode along from the runtime.
        assert doc["sources"]["serve_metrics"]["submitted"] >= NUM_RECORDS

    def test_postmortem_renders_through_the_cli(self, drill, capsys):
        dumps = sorted(drill["dump_dir"].glob("postmortem-*.json"))
        assert main(["obs-report", "--postmortem", str(dumps[1])]) == 0
        out = capsys.readouterr().out
        assert "worker.death" in out
        assert "trace(s) cross-linked" in out

    def test_health_jsonl_replays_through_obs_watch(self, drill, capsys):
        path = str(drill["health_path"])
        assert main(["obs-watch", path, "--replay"]) == 0
        out = capsys.readouterr().out
        assert "2 snapshots: 1 breach" in out
        assert "BREACH" in out
        assert f"!! {drill['spec'].name}" in out
        assert "1 death(s)" in out  # the cluster tail from the last row
        # And the breach is machine-detectable for CI gating.
        assert main(["obs-watch", path, "--replay", "--fail-on-breach"]) == 1
