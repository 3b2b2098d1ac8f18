"""Command-line interface: ``python -m repro <command>``.

One command per purpose:

``demo``        one functional private retrieval, end to end
``loadtest``    all real traffic: every (--serving tier) x (--mode sim, real,
                cluster) cell deploys from one table, and real and cluster
                runs audit every response against ground truth
``qps``         modeled IVE serving numbers at a DB size: the plain tier's
                breakdown, then each tier's table (batch amortization,
                keyword overhead, hint speedup and refresh, update cost)
``figures``     the reproduced paper figures and their bench targets, then
                the modeled Table II area/power and Table III workloads
``obs-report``  validate + render a traced loadtest's exported artifacts
``obs-watch``   live (or --replay) terminal dashboard over a health JSONL
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

from repro.errors import ParameterError, ReproError
from repro.params import PirParams

_FIGURES = {
    "Fig. 4a/4b": "benchmarks/bench_fig04_complexity.py",
    "Fig. 6": "benchmarks/bench_fig06_roofline.py",
    "Fig. 7d": "benchmarks/bench_fig04_complexity.py",
    "Fig. 8": "benchmarks/bench_fig08_dram_traffic.py",
    "Table II": "benchmarks/bench_table2_area_power.py",
    "Fig. 12": "benchmarks/bench_fig12_throughput.py",
    "Table III": "benchmarks/bench_table3_prior_hw.py",
    "Fig. 13a-e": "benchmarks/bench_fig13_sensitivity.py",
    "Table IV": "benchmarks/bench_table4_other_schemes.py",
    "Table IV (hintpir)": "benchmarks/bench_hintpir.py",
    "Fig. 14a/14b": "benchmarks/bench_fig14_ark_scheduler.py",
}


def _paper_params(db_gib: int) -> PirParams:
    """The paper-scale model geometry behind a ``--db-gib`` argument."""
    from repro.analysis.figures import DIMS_BY_GB, params_for_gb

    if db_gib not in DIMS_BY_GB:
        raise ParameterError(f"supported DB sizes: {sorted(DIMS_BY_GB)} GiB")
    return params_for_gb(db_gib)


def _seconds(text: str) -> float:
    """argparse type of a timer period: ``wait_for(..., 0)`` never sleeps,
    so a zero period would spin its task and starve the event loop."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive seconds, got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse type of a churn: the share of the records one epoch dirties."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a fraction in (0, 1], got {text}")
    return value


def _toy_params() -> PirParams:
    """The insecure N = 256 ring every real-crypto command here runs at."""
    return PirParams.small(n=256, d0=8, num_dims=2)


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.pir.database import PirDatabase
    from repro.pir.protocol import PirProtocol

    params = _toy_params()
    db = PirDatabase.random(
        params, num_records=args.records, record_bytes=args.record_bytes, seed=0
    )
    protocol = PirProtocol(params, db, seed=1)
    index = args.index % db.num_records
    result = protocol.retrieve(index)
    ok = result.record == db.record(index)
    print(f"retrieved record {index}: {'OK' if ok else 'MISMATCH'}")
    t = protocol.transcript
    print(
        f"query {t.query_bytes / 1024:.0f} KiB, response "
        f"{t.response_bytes / 1024:.0f} KiB, setup {t.setup_bytes / 1024:.0f} KiB"
    )
    return 0 if ok else 1


def _batch_table(params: PirParams) -> list[str]:
    from repro.batchpir import amortized_cost_curve

    lines = [
        f"  {'k':>4s} {'buckets':>8s} {'single ms':>10s} {'amort ms':>9s} "
        f"{'speedup':>8s} {'placement':>9s}"
    ]
    for p in amortized_cost_curve(params, ks=(4, 16, 64)):
        lines.append(
            f"  {p.k:>4d} {p.num_buckets:>8d} {p.single_query_s * 1e3:>10.2f} "
            f"{p.amortized_per_query_s * 1e3:>9.3f} {p.speedup:>7.1f}x "
            f"{p.placement:>9s}"
        )
    return lines


def _keyword_table(params: PirParams) -> list[str]:
    from repro.kvpir import keyword_overhead_curve

    lines = [
        f"  {'k':>4s} {'index ms':>9s} {'lookup ms':>10s} {'overhead':>9s} "
        f"{'placement':>11s}"
    ]
    points = keyword_overhead_curve(params, ks=(4, 16, 64))
    for p in points:
        lines.append(
            f"  {p.k:>4d} {p.amortized_index_s * 1e3:>9.3f} "
            f"{p.amortized_lookup_s * 1e3:>10.3f} {p.amortized_overhead:>8.1f}x "
            f"{p.index_placement + '->' + p.kv_placement:>11s}"
        )
    single = points[-1]
    lines.append(
        f"standalone: index {single.index_query_s * 1e3:.2f} ms, lookup "
        f"{single.lookup_s * 1e3:.2f} ms ({single.standalone_overhead:.1f}x, "
        f"{single.candidates} probes)"
    )
    return lines


def _hint_table(params: PirParams) -> list[str]:
    from repro.hintpir import churn_refresh_curve, crossover_churn, hintpir_vs_full

    lines = [
        f"  {'batch':>6s} {'window ms':>10s} {'per-query ms':>13s} "
        f"{'vs full pass':>12s}"
    ]
    for p in hintpir_vs_full(params, batches=(1, 16, 64, 256)):
        lines.append(
            f"  {p.batch:>6d} {p.online_s * 1e3:>10.3f} "
            f"{p.per_query_s * 1e3:>13.4f} {p.speedup:>11.1f}x"
        )
    curve = churn_refresh_curve(params)
    lines.append("modeled hint refresh economics (per epoch, per client):")
    lines.append(
        f"  {'churn':>8s} {'dirty':>7s} {'mode':>6s} {'refresh MiB':>12s} "
        f"{'online MiB':>11s} {'refresh %':>10s}"
    )
    for p in curve:
        lines.append(
            f"  {p.churn:>8.4%} {p.dirty_records:>7d} {p.refresh_mode:>6s} "
            f"{p.refresh_bytes / 2**20:>12.3f} {p.online_bytes / 2**20:>11.3f} "
            f"{p.refresh_fraction:>9.1%}"
        )
    crossover = crossover_churn(curve)
    lines.append(
        "refresh dominates the client's wire budget beyond "
        f"{crossover:.2%} churn/epoch"
        if crossover is not None
        else "refresh never dominates across the swept churn range"
    )
    return lines


def _update_table(params: PirParams) -> list[str]:
    from repro.mutate import churn_update_curve

    lines = [
        f"  {'churn':>7s} {'dirty polys':>12s} {'apply ms':>9s} {'full ms':>8s} "
        f"{'speedup':>8s}"
    ]
    for p in churn_update_curve(params, churns=(0.001, 0.01, 0.1)):
        lines.append(
            f"  {p.churn:>6.2%} {p.dirty_polys:>12d} {p.apply_s * 1e3:>9.2f} "
            f"{p.full_s * 1e3:>8.1f} {p.speedup:>7.1f}x ({p.placement})"
        )
    return lines


#: ``qps`` after the plain breakdown: (heading, the tier's modeled table).
_TIER_MODELS = (
    ("batchpir: modeled on IVE, {} DB (amortized batch pass)", _batch_table),
    ("kvpir: modeled on IVE, {} live records (keyword vs index)", _keyword_table),
    (
        "hintpir: modeled on IVE, {} DB (hint-tier online vs full RowSel/ColTor pass)",
        _hint_table,
    ),
    (
        "plain updates: modeled on IVE, {} DB (delta apply vs full re-preprocess)",
        _update_table,
    ),
)


def cmd_qps(args: argparse.Namespace) -> int:
    """Every modeled serving number at ``--db-gib``: the plain tier's
    breakdown, then one table per tier.  A tier whose store outgrows one
    IVE system says so in place of its table."""
    from repro.arch.energy import energy_per_query
    from repro.systems.scale_up import ScaleUpSystem

    params = _paper_params(args.db_gib)
    db = f"{args.db_gib} GiB"
    system = ScaleUpSystem(params)  # picks HBM or LPDDR
    lat = system.latency(args.batch)
    print(f"plain: modeled on IVE, {db} DB ({system.placement.value}), batch {args.batch}:")
    print(f"  latency  {lat.total_s * 1e3:8.2f} ms")
    print(f"  QPS      {lat.qps:8.1f}")
    for name, value in lat.breakdown().items():
        print(f"  {name:<12s} {value * 1e3:8.2f} ms")
    print(f"  energy   {energy_per_query(system.simulator, args.batch):8.4f} J/query")
    for heading, table in _TIER_MODELS:
        print(heading.format(db) + ":")
        try:
            lines = table(params)
        except ParameterError as exc:
            lines = [f"  not modeled: {exc}"]
        print("\n".join(lines))
    return 0


# -- the deployment table: (--serving tier) x (--mode executor) -------------
#
# A tier row builds its real registry from the one shared shape (--records,
# --record-bytes, --shards, --seed, --backend) at the CLI's toy geometry and
# says what a load item is: ``keys`` is None where items are record indices,
# else the key a drawn index stands for.  An executor column says what hosts
# the window; a cell with no host is refused by ``_deploy``.  ``loadtest``
# deploys through here.


def _shape(args: argparse.Namespace) -> dict:
    return dict(
        num_records=args.records,
        record_bytes=args.record_bytes,
        num_shards=args.shards,
        seed=args.seed,
    )


def _tier_plain(args: argparse.Namespace, publishes: bool):
    from repro.mutate import VersionedShardRegistry
    from repro.serve import RealShardRegistry

    cls = VersionedShardRegistry if publishes else RealShardRegistry
    return cls.random(_toy_params(), backend=args.backend, **_shape(args)), None


def _tier_batch(args: argparse.Namespace, publishes: bool):
    from repro.batchpir.serving import BatchServeRegistry

    # One cuckoo pass is sized for the window, but no larger than a shard.
    design = max(1, min(args.max_batch, args.records // args.shards))
    registry = BatchServeRegistry.random(
        _toy_params(), max_batch=design, hash_seed=args.seed, backend=args.backend,
        **_shape(args),
    )
    return registry, None


def _tier_kv(args: argparse.Namespace, publishes: bool):
    from repro.kvpir import KvServeRegistry
    from repro.kvpir.layout import random_items

    # Records are keys and record bytes are value bytes on this tier.
    items = random_items(args.records, args.record_bytes, seed=args.seed)
    registry = KvServeRegistry(
        _toy_params(), items, num_shards=args.shards, seed=args.seed,
        backend=args.backend,
    )
    return registry, list(items)


def _tier_hint(args: argparse.Namespace, publishes: bool):
    from repro.hintpir import HintServeRegistry
    from repro.pir.simplepir import SimplePirParams

    registry = HintServeRegistry.random(
        params=SimplePirParams(lwe_dim=64),
        client_history=1 << 20,  # the audit replays every epoch's hint
        backend=args.backend,
        **_shape(args),
    )
    return registry, None


_TIERS = {
    "plain": _tier_plain,
    "batchpir": _tier_batch,
    "kvpir": _tier_kv,
    "hintpir": _tier_hint,
}


@dataclass
class _Deployment:
    """One cell of the table, built: what a ``ServeRuntime`` is handed."""

    registry: object
    executor: object
    policy: object
    keys: list | None = None
    #: The worker fleet, the caller's to start and close; None off-cluster.
    coordinator: object = None


def _sim_column(args, serving, publishes, obs) -> _Deployment:
    from repro.serve import SimShardRegistry, SimulatedBackend
    from repro.systems.batching import BatchPolicy

    registry = SimShardRegistry(
        _paper_params(args.db_gib), num_shards=args.shards, tier=serving
    )
    policy = BatchPolicy(
        waiting_window_s=registry.waiting_window_s(), max_batch=args.max_batch
    )
    return _Deployment(
        registry, SimulatedBackend(registry, tracer=obs.get("tracer")), policy
    )


def _window_policy(args):
    from repro.systems.batching import BatchPolicy

    return BatchPolicy(
        waiting_window_s=args.window_ms / 1e3, max_batch=args.max_batch
    )


def _real_column(args, serving, publishes, obs) -> _Deployment:
    from repro.serve import RealCryptoBackend

    registry, keys = _TIERS[serving](args, publishes)
    executor = RealCryptoBackend(registry, tracer=obs.get("tracer"))
    return _Deployment(registry, executor, _window_policy(args), keys)


def _cluster_column(args, serving, publishes, obs) -> _Deployment:
    # Replicas live in worker processes, which host the plain tier only
    # (ROADMAP ServingMode (a): ship a tier's window state to workers, and
    # the other rows gain this column).
    from repro.cluster import ClusterCoordinator, ClusterRegistry

    registry = ClusterRegistry.random(_toy_params(), **_shape(args))
    coordinator = ClusterCoordinator(
        registry, num_workers=args.workers, backend=args.backend, **obs
    )
    return _Deployment(
        registry, coordinator, _window_policy(args), coordinator=coordinator
    )


#: ``--mode`` -> (the tiers it hosts, how the cell is built).
_EXECUTORS = {
    "sim": (tuple(_TIERS), _sim_column),
    "real": (tuple(_TIERS), _real_column),
    "cluster": (("plain",), _cluster_column),
}


def _deploy(
    args: argparse.Namespace,
    serving: str,
    mode: str,
    publishes: bool,
    **obs,
) -> _Deployment:
    """Build the (``serving``, ``mode``) cell; a hostless one is refused typed.

    ``obs`` is the tracer/profiler/recorder the executor should report to.
    """
    hosted, column = _EXECUTORS[mode]
    if serving not in hosted:
        raise ParameterError(
            f"no host for --serving {serving} in --mode {mode}: the {mode} "
            f"executor hosts {', '.join(hosted)}"
        )
    deployment = column(args, serving, publishes, obs)
    if publishes and not hasattr(deployment.registry, "publish"):
        raise ParameterError(
            f"--publish-period: --serving {serving} in --mode {mode} has no publish"
        )
    return deployment


def _audit(registry, results) -> dict:
    """Never a wrong byte: decode every completed response against the
    ground truth at its answering epoch.

    A publishing tier keeps its truth per epoch, and an answer is held to
    the epoch it was computed at (the request's pin, or the epoch a hint
    answer carries); decoding in epoch order replays hint patches the way
    a client would apply them.  ``HintStale``/``StaleEpoch`` are the typed
    refusals a client retries; ``KeyNotFound`` is the keyword tier's
    answer for an absent key; anything else that differs is a wrong byte.
    """
    from repro.errors import HintStale, KeyNotFound, StaleEpoch

    per_epoch = hasattr(registry, "publish")

    def answered_at(result) -> int:
        epoch = getattr(result.response, "epoch", result.request.epoch)
        return -1 if epoch is None else epoch

    correct = wrong = refused = 0
    for result in sorted(results, key=answered_at):
        request = result.request
        item = request.global_index if request.key is None else request.key
        try:
            # Truth first: decoding drops the versioned tier's epoch pin.
            truth = (
                registry.expected(item, epoch=answered_at(result))
                if per_epoch
                else registry.expected(item)
            )
            value = registry.decode(request, result.response)
        except KeyNotFound:
            value = None
        except (HintStale, StaleEpoch):
            refused += 1
            continue
        if value == truth:
            correct += 1
        else:
            wrong += 1
    return {
        "decoded_correct": correct,
        "wrong_bytes": wrong,
        "typed_refusals": refused,
    }


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop load test; prints a JSON report to stdout."""
    import asyncio
    import contextlib
    import json
    import time

    from repro.serve import loadgen
    from repro.serve.dispatcher import AdmissionConfig, ServeRuntime

    sim = args.mode == "sim"
    if args.queries is None:
        args.queries = 10000 if sim else 24
    if args.rate is None:
        args.rate = 2000.0 if sim else 50.0
    if args.pattern == "poisson":
        arrivals = loadgen.poisson_arrivals(args.rate, args.queries, seed=args.seed)
    elif args.pattern == "bursty":
        arrivals = loadgen.bursty_arrivals(
            args.rate / 2, 2 * args.rate, args.queries, seed=args.seed
        )
    else:
        arrivals = loadgen.diurnal_arrivals(
            args.rate, args.queries, period_s=60.0, seed=args.seed
        )
    admission = AdmissionConfig(max_queue_depth=args.max_queue)
    wall_start = time.monotonic()

    recorder = None
    if args.postmortem_dir or args.slo or args.health_out:
        from repro.obs.events import FlightRecorder

        recorder = FlightRecorder(dump_dir=args.postmortem_dir)
    slo_specs = []
    if args.slo:
        from repro.obs.slo import parse_slo

        slo_specs = [parse_slo(text) for text in args.slo]
    if args.health_out:
        open(args.health_out, "w").close()  # truncate: one run, one file

    tracer = None
    profiler = None
    previous_profiler = None
    if args.trace:
        from repro.obs import KernelProfiler, Tracer
        from repro.obs.profile import install as install_profiler

        tracer = Tracer()
        profiler = KernelProfiler()
        # In-process kernels (real-mode serving, cluster-mode query
        # building) accumulate here; worker-process kernels are merged in
        # by the coordinator at shutdown.
        previous_profiler = install_profiler(profiler)

    publishes = args.publish_period is not None
    epochs_published = 0

    async def run(deployment: _Deployment, items: list):
        registry, coordinator = deployment.registry, deployment.coordinator
        runtime = ServeRuntime(
            registry, deployment.executor, deployment.policy, admission,
            tracer=tracer, recorder=recorder,
        )
        # The fleet starts before the runtime and drains after it; either
        # drains on the way out of an error too, so no task is left pending.
        fleet = contextlib.nullcontext() if coordinator is None else coordinator
        async with fleet, runtime:
            evaluator = None
            if slo_specs:
                from repro.obs.slo import SloEvaluator

                evaluator = SloEvaluator(
                    runtime.metrics.series, slo_specs, recorder=recorder
                )
            sampler_task = None
            stop_sampling = asyncio.Event()
            if evaluator is not None or args.health_out:
                from repro.obs.export import append_health_jsonl, health_snapshot

                async def sample_health() -> None:
                    loop = asyncio.get_running_loop()
                    while True:
                        try:
                            # Timer-based wait: advances the virtual clock in
                            # sim mode exactly like a real sleep would.
                            await asyncio.wait_for(
                                stop_sampling.wait(), args.health_interval
                            )
                        except asyncio.TimeoutError:
                            pass
                        now = loop.time()
                        verdicts = (
                            evaluator.poll(now) if evaluator is not None else []
                        )
                        if args.health_out:
                            append_health_jsonl(
                                args.health_out,
                                health_snapshot(
                                    now,
                                    runtime.metrics,
                                    args.health_interval,
                                    verdicts,
                                    coordinator.cluster_snapshot()
                                    if coordinator is not None
                                    else None,
                                ),
                            )
                        if stop_sampling.is_set():
                            return

                sampler_task = asyncio.create_task(
                    sample_health(), name="health-sampler"
                )
            publisher_task = None
            stop_publishing = asyncio.Event()
            if publishes:
                import numpy as np

                from repro.mutate import UpdateLog

                pub_rng = np.random.default_rng(args.seed + 1)

                async def publish_epochs() -> None:
                    nonlocal epochs_published
                    while True:
                        try:
                            await asyncio.wait_for(
                                stop_publishing.wait(), args.publish_period
                            )
                            return
                        except asyncio.TimeoutError:
                            pass
                        dirty = max(
                            1, round(args.publish_churn * registry.num_records)
                        )
                        log = UpdateLog()
                        for idx in pub_rng.choice(
                            registry.num_records, size=dirty, replace=False
                        ):
                            log.put(int(idx), pub_rng.bytes(args.record_bytes))
                        registry.publish(log)
                        epochs_published += 1

                publisher_task = asyncio.create_task(
                    publish_epochs(), name="epoch-publisher"
                )
            report = await loadgen.run_open_loop(
                runtime, arrivals, items, collect_results=not sim
            )
            if publisher_task is not None:
                stop_publishing.set()
                await publisher_task
            if sampler_task is not None:
                stop_sampling.set()  # one final sample fires on the way out
                await sampler_task
            cluster_snap = (
                coordinator.cluster_snapshot() if coordinator is not None else None
            )
        return report, runtime, cluster_snap, evaluator

    try:
        deployment = _deploy(
            args, args.serving, args.mode, publishes,
            tracer=tracer, profiler=profiler, recorder=recorder,
        )
        registry, coordinator = deployment.registry, deployment.coordinator
        # Drawn before anything starts: a bad argument here exits 2 with
        # no dispatcher, worker or timer task to leave behind.
        if args.distribution == "zipf":
            draws = loadgen.zipf_indices(
                registry.num_records, args.queries, a=args.zipf_a, seed=args.seed
            )
        else:
            draws = loadgen.uniform_indices(
                registry.num_records, args.queries, seed=args.seed
            )
        keys = deployment.keys
        items = draws.tolist() if keys is None else [keys[i] for i in draws]
        if sim:
            from repro.serve import run_in_virtual_time

            (report, runtime, cluster_snap, evaluator), virtual_s = (
                run_in_virtual_time(run(deployment, items))
            )
        else:
            report, runtime, cluster_snap, evaluator = asyncio.run(
                run(deployment, items)
            )
            virtual_s = None
    finally:
        if args.trace:
            install_profiler(previous_profiler)

    out = {
        "mode": args.mode,
        "pattern": args.pattern,
        "serving": args.serving,
        "distribution": args.distribution,
        "shards": args.shards,
        "offered": report.offered,
        "offered_qps": report.offered_qps,
        "completed": report.completed,
        "rejected": report.rejected,
        "errored": report.errored,
        "wall_s": time.monotonic() - wall_start,
        "virtual_s": virtual_s,
        "metrics": report.metrics,
    }
    wrong_bytes = 0
    if report.results is not None:
        audit = _audit(registry, report.results)
        wrong_bytes = audit["wrong_bytes"]
        if publishes:
            audit["epochs_published"] = epochs_published
        if args.serving == "hintpir":
            clients = [registry.client(s) for s in range(registry.num_shards)]
            transcript = registry.transcript()
            audit.update(
                hint_downloads=sum(c.downloads for c in clients),
                patched_epochs=sum(c.patched_epochs for c in clients),
                offline_bytes=transcript.offline_bytes,
                online_bytes_per_query=transcript.online_bytes,
            )
        out["audit"] = audit
    if evaluator is not None:
        out["slo"] = evaluator.summary()
    if recorder is not None:
        out["flight_recorder"] = {
            "events": len(recorder.events()),
            "dropped": recorder.dropped,
            "postmortems": recorder.dumps_written,
        }
    if args.health_out:
        out["health_out"] = args.health_out
    if args.prom_out:
        from repro.obs.export import render_prometheus

        with open(args.prom_out, "w") as fh:
            fh.write(
                render_prometheus(
                    runtime.metrics.registry.snapshot(), cluster=cluster_snap
                )
            )
        out["prom_out"] = args.prom_out
    if coordinator is not None:
        out["cluster"] = {"workers": args.workers, **asdict(coordinator.stats)}
    if args.trace:
        spans_path = f"{args.obs_out}.spans.jsonl"
        trace_path = f"{args.obs_out}.trace.json"
        obs_path = f"{args.obs_out}.obs.json"
        tracer.export_jsonl(spans_path)
        tracer.export_chrome(trace_path)
        profile = profiler.snapshot()
        obs = {
            "mode": args.mode,
            "metrics": report.metrics,
            "live_series": runtime.metrics.live_series(),
            "kernel_profile": profile,
        }
        if profile and not sim:
            from repro.obs import measured_vs_modeled

            obs["measured_vs_modeled"] = measured_vs_modeled(
                profile, registry.params, max(1, report.completed)
            )
        if cluster_snap is not None:
            obs["cluster"] = cluster_snap
        with open(obs_path, "w") as fh:
            json.dump(obs, fh, indent=2)
        out["obs_files"] = {
            "spans": spans_path,
            "trace": trace_path,
            "obs": obs_path,
        }
    print(json.dumps(out, indent=2))
    breached = (
        args.fail_on_breach
        and evaluator is not None
        and evaluator.breaches > 0
    )
    return 0 if report.errored == 0 and wrong_bytes == 0 and not breached else 1


def cmd_obs_report(args: argparse.Namespace) -> int:
    """Validate a traced loadtest's exports, then render the digest."""
    from repro.obs import (
        render_postmortem,
        render_report,
        validate_chrome_trace,
        validate_obs_json,
        validate_postmortem,
        validate_spans_jsonl,
    )

    if args.prefix is None and args.postmortem is None:
        print("error: need a PREFIX and/or --postmortem FILE", file=sys.stderr)
        return 2
    if args.prefix is not None:
        spans = validate_spans_jsonl(f"{args.prefix}.spans.jsonl")
        trace = validate_chrome_trace(f"{args.prefix}.trace.json")
        obs = validate_obs_json(f"{args.prefix}.obs.json")
        for line in render_report(
            spans, trace, obs, obs.get("measured_vs_modeled") or None
        ):
            print(line)
    if args.postmortem is not None:
        doc = validate_postmortem(args.postmortem)
        for line in render_postmortem(doc):
            print(line)
    return 0


def cmd_obs_watch(args: argparse.Namespace) -> int:
    """Render a health JSONL as a terminal dashboard (live tail or replay)."""
    import json
    import time

    from repro.obs.export import (
        read_health_jsonl,
        render_watch_header,
        render_watch_row,
        render_watch_rows,
    )

    if args.replay:
        rows = read_health_jsonl(args.health)
        for line in render_watch_rows(rows):
            print(line)
        breached = any(row.get("worst_state") == "breach" for row in rows)
        return 1 if args.fail_on_breach and breached else 0
    # Live mode: tail the file a running loadtest is appending to.  Only
    # newline-terminated lines are consumed, so a row caught mid-write is
    # simply picked up whole on the next poll.
    print(render_watch_header(), flush=True)
    seen = 0
    breached = False
    deadline = None if args.timeout is None else time.monotonic() + args.timeout
    while True:
        try:
            with open(args.health) as fh:
                lines = fh.readlines()
        except OSError:
            lines = []
        complete = [line for line in lines if line.endswith("\n")]
        for line in complete[seen:]:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn row self-heals; strictness is --replay's job
            breached = breached or row.get("worst_state") == "breach"
            print(render_watch_row(row), flush=True)
        seen = len(complete)
        if deadline is not None and time.monotonic() >= deadline:
            return 1 if args.fail_on_breach and breached else 0
        time.sleep(args.interval)


def cmd_figures(_: argparse.Namespace) -> int:
    """The figure -> bench target list, then the modeled paper tables."""
    from repro.analysis.workloads import REAL_WORKLOADS
    from repro.arch.area import area
    from repro.arch.config import IveConfig
    from repro.arch.power import power
    from repro.systems.cluster import IveCluster

    width = max(len(k) for k in _FIGURES)
    for figure, target in _FIGURES.items():
        print(f"{figure:<{width}}  {target}")
    print("\nrun all:  pytest benchmarks/ --benchmark-only")

    a, p = area(IveConfig.ive()), power(IveConfig.ive())
    print("\nTable II, modeled IVE area/power:")
    print(f"{'component':>14s} {'area mm2':>9s} {'peak W':>7s}")
    for name in a.per_core:
        print(f"{name:>14s} {a.per_core[name]:>9.2f} {p.per_core.get(name, 0):>7.2f}")
    print(f"{'1 core':>14s} {a.core_total:>9.2f} {p.core_total:>7.2f}")
    print(f"{'chip total':>14s} {a.total:>9.1f} {p.total:>7.1f}")

    print("\nTable III, modeled on a 16-system IVE cluster at batch 128:")
    print(f"{'workload':>8s} {'DB':>9s} {'record':>7s} {'QPS':>8s} {'latency':>9s}")
    for workload in REAL_WORKLOADS:
        lat = IveCluster(workload.geometry(PirParams.paper()), 16).latency(128)
        print(
            f"{workload.name:>8s} {workload.db_bytes / (1 << 30):>6.0f}GiB "
            f"{workload.record_bytes:>6d}B {lat.qps:>8.1f} {lat.total_s:>8.2f}s"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IVE (HPCA 2026) reproduction — functional PIR and accelerator models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a functional private retrieval")
    demo.add_argument("--records", type=int, default=32)
    demo.add_argument("--record-bytes", type=int, default=128)
    demo.add_argument("--index", type=int, default=7)
    demo.set_defaults(func=cmd_demo)

    qps = sub.add_parser(
        "qps", help="modeled IVE serving numbers, one table per tier"
    )
    qps.add_argument("--db-gib", type=int, default=2)
    qps.add_argument("--batch", type=int, default=64)
    qps.set_defaults(func=cmd_qps)

    figures = sub.add_parser(
        "figures", help="reproduced figures + modeled Table II/III"
    )
    figures.set_defaults(func=cmd_figures)

    loadtest = sub.add_parser(
        "loadtest", help="all real traffic: open-loop load test, tier x executor"
    )
    loadtest.add_argument(
        "--mode", choices=("sim", "real", "cluster"), default="sim"
    )
    loadtest.add_argument(
        "--workers", type=int, default=2, help="cluster mode worker processes"
    )
    loadtest.add_argument(
        "--pattern", choices=("poisson", "bursty", "diurnal"), default="poisson"
    )
    loadtest.add_argument(
        "--distribution",
        choices=("uniform", "zipf"),
        default="uniform",
        help="record-popularity distribution of the generated indices",
    )
    loadtest.add_argument(
        "--serving",
        choices=("plain", "batchpir", "kvpir", "hintpir"),
        default="plain",
        help="serving tier: per-query scans, cuckoo-batched passes, "
        "keyword lookups, or the hint tier's batched plaintext GEMM; every "
        "tier runs in --mode sim and --mode real (records are keys and "
        "record bytes value bytes on kvpir), the cluster hosts plain",
    )
    loadtest.add_argument(
        "--publish-period",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="on a tier with publish (--mode real --serving plain|hintpir): "
        "publish a mutation epoch every SECONDS mid-traffic, exercising "
        "epoch pins / the delta-patch and HintStale path under load",
    )
    loadtest.add_argument(
        "--publish-churn",
        type=_fraction,
        default=0.05,
        help="fraction of records dirtied per --publish-period epoch",
    )
    loadtest.add_argument(
        "--zipf-a", type=float, default=1.2, help="Zipf exponent (with zipf)"
    )
    loadtest.add_argument(
        "--queries", type=int, default=None, help="default: 10000 sim / 24 real"
    )
    loadtest.add_argument(
        "--rate", type=float, default=None, help="QPS; default: 2000 sim / 50 real"
    )
    loadtest.add_argument("--shards", type=int, default=4)
    loadtest.add_argument("--max-batch", type=int, default=128)
    loadtest.add_argument("--max-queue", type=int, default=4096)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--db-gib", type=int, default=2, help="sim mode DB size")
    loadtest.add_argument("--records", type=int, default=16, help="real mode records")
    loadtest.add_argument("--record-bytes", type=int, default=64)
    loadtest.add_argument("--window-ms", type=float, default=10.0)
    loadtest.add_argument(
        "--trace",
        action="store_true",
        help="per-request tracing + kernel profiling; exports "
        "<obs-out>.spans.jsonl, .trace.json (chrome://tracing), .obs.json",
    )
    loadtest.add_argument(
        "--obs-out",
        default="loadtest",
        help="output path prefix for the --trace artifacts",
    )
    loadtest.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="SPEC",
        help="SLO to evaluate during the run, e.g. 'p99<=0.25', "
        "'reject<=0.01', 'error<=0.001', optionally '@FAST/SLOW' window "
        "seconds; repeatable",
    )
    loadtest.add_argument(
        "--fail-on-breach",
        action="store_true",
        help="exit non-zero if any --slo entered the breach state",
    )
    loadtest.add_argument(
        "--health-out",
        default=None,
        metavar="FILE",
        help="append periodic health snapshots (JSONL) for repro obs-watch",
    )
    loadtest.add_argument(
        "--health-interval",
        type=_seconds,
        default=1.0,
        help="seconds between health snapshots / SLO polls",
    )
    loadtest.add_argument(
        "--postmortem-dir",
        default=None,
        metavar="DIR",
        help="flight-recorder post-mortem dumps on worker death / "
        "heartbeat timeout",
    )
    loadtest.add_argument(
        "--prom-out",
        default=None,
        metavar="FILE",
        help="write the final metrics registry as Prometheus text exposition",
    )
    loadtest.add_argument(
        "--backend",
        help="compute backend of every real and cluster deployment (sim mode "
        "ignores it; default: native where a C compiler is found, else "
        "eager); unknown names exit 2 listing the registered ones",
    )
    loadtest.set_defaults(func=cmd_loadtest)

    obs_report = sub.add_parser(
        "obs-report", help="validate + render a traced loadtest's artifacts"
    )
    obs_report.add_argument(
        "prefix",
        nargs="?",
        default=None,
        help="the --obs-out prefix the loadtest exported under",
    )
    obs_report.add_argument(
        "--postmortem",
        default=None,
        metavar="FILE",
        help="also validate + render a flight-recorder post-mortem dump",
    )
    obs_report.set_defaults(func=cmd_obs_report)

    obs_watch = sub.add_parser(
        "obs-watch", help="terminal dashboard over a --health-out JSONL"
    )
    obs_watch.add_argument(
        "health", help="the health JSONL a loadtest writes via --health-out"
    )
    obs_watch.add_argument(
        "--replay",
        action="store_true",
        help="render the whole file strictly and exit (default: live tail)",
    )
    obs_watch.add_argument(
        "--interval", type=_seconds, default=0.5, help="live-tail poll seconds"
    )
    obs_watch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="stop the live tail after this many seconds (default: forever)",
    )
    obs_watch.add_argument(
        "--fail-on-breach",
        action="store_true",
        help="exit non-zero if any rendered snapshot was in breach",
    )
    obs_watch.set_defaults(func=cmd_obs_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
