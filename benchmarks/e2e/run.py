#!/usr/bin/env python3
"""End-to-end benchmark: verified real-crypto round trips on four workloads.

    python3 benchmarks/e2e/run.py                       # all four, untraced
    python3 benchmarks/e2e/run.py --trace 1             # plus per-layer metrics and spans
    python3 benchmarks/e2e/run.py --workload NAME --seed 3 --seconds 20 --trace 0

Without ``--workload`` every workload runs in its own fresh subprocess.
A single-workload run prints each metric by name and unit and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json``, or with ``--trace 1`` its
per-layer metrics).  The exit code is non-zero when any record failed to
verify, a staged replay disagreed with production, or a latency budget
did not close.  See README.md beside this file.
"""

import os

# Before numpy loads its BLAS: one runnable crypto thread beside the event loop.
for _pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pin] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures that package")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import e2e_harness as harness  # noqa: E402
import e2e_layers as layers  # noqa: E402
from e2e_workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Share of ``--seconds`` the saturate phase gets; solo gets the rest.
SATURATE_SHARE = 0.6
#: ``--smoke``: seconds per workload, phases and set-ups shrunk with it.
SMOKE_SECONDS = 0.6
#: Workloads whose smoke-size traced run supplies the per-layer metrics a
#: workload's own layers do not produce (so every run reports every name).
REFERENCE_OWNERS = ("plain_n256_serve", "kv_n256_serve", "hint_publish_serve")
#: Latency budgets that must close within MAX_UNATTRIBUTED (full-size runs only).
BUDGETS = {
    "plain_n4096_direct": ("pir.unattributed_share",),
    "plain_n256_serve": ("pir.unattributed_share", "serve.unattributed_share"),
}
MAX_UNATTRIBUTED = 0.10


async def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run the phases, verify every record; one result dict."""
    if workload.clients == 1:
        plan = [("solo", 1, seconds)]
    else:
        saturate_s = seconds * SATURATE_SHARE
        plan = [("saturate", harness.CLIENTS, saturate_s), ("solo", 1, seconds - saturate_s)]
    inputs = workload.inputs(seed, smoke, paced_s=plan[-1][2])
    log = harness.SpanLog() if trace else None
    proc_start = harness.proc_snapshot()
    dep, cold_s, warm_s, attempted, verified = await harness.timed_setups(
        lambda log: workload.deploy(inputs, log), inputs.first, log,
        min_warm=1 if smoke else 2, budget_s=0.0 if smoke else 2.0,
    )
    try:
        online_bytes, offline_bytes = dep.traffic()
        phases, baseline = {}, None
        for name, clients, phase_s in plan:
            items = getattr(inputs, name)
            gc.collect()
            warm = await harness.warm_up(dep, items, clients)
            if trace and baseline is None:
                baseline = await harness.closed_loop(dep, name, items, clients, phase_s, None)
                gc.collect()
            phases[name] = await harness.closed_loop(dep, name, items, clients, phase_s, log)
            attempted += warm[0] + phases[name]["attempted"]
            verified += warm[1] + phases[name]["verified"]
        throughput = phases[plan[0][0]]
        result = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "traced": trace,
            "cold_setup_s": cold_s,
            "warm_setups": len(warm_s),
            "samples": {name: phase["verified"] for name, phase in phases.items()},
            "block_spread": {name: phase["block_spread"] for name, phase in phases.items()},
            "end_to_end": {
                "throughput_rec_s": throughput["throughput_rec_s"],
                "latency_p50_ms": phases["solo"]["latency_p50_ms"],
                "setup_s": statistics.median(warm_s),
                "online_bytes_per_rec": online_bytes,
                "offline_bytes_per_client": offline_bytes,
            },
        }
        if trace:
            if workload.paced_rate:
                phases["paced"] = await harness.open_loop(
                    dep, inputs.solo, inputs.paced_due, log
                )
                attempted += phases["paced"]["attempted"]
                verified += phases["paced"]["verified"]
            log.phase = "replay"
            result["per_layer"] = {
                **await workload.layer_metrics(dep, inputs, log, phases),
                "bench.cpu_ms_per_rec": throughput["cpu_ms_per_rec"],
                "bench.trace_overhead_share": 1.0
                - throughput["throughput_rec_s"] / baseline["throughput_rec_s"],
                "bench.cold_setup_s": cold_s,
                "bench.block_spread": throughput["block_spread"],
            }
            result["spans"] = log
    finally:
        await dep.close()
    result["attempted"], result["failed"] = attempted, attempted - verified
    result["end_to_end"]["verified_share"] = verified / attempted
    result["end_to_end"]["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    result["noisy"] = max(result["block_spread"].values()) > harness.NOISY_SPREAD
    result["proc"] = {"start": proc_start, "end": harness.proc_snapshot()}
    if trace:
        result["per_layer"]["bench.steal_share"] = harness.steal_share(
            proc_start, result["proc"]["end"]
        )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload in this process; traced runs fill in reference metrics."""
    if smoke:
        seconds = SMOKE_SECONDS
    result = asyncio.run(measure(WORKLOADS[name], seed, seconds, trace, smoke))
    result["correct"] = result["failed"] == 0
    if trace:
        declared = [m["name"] for m in SPEC["per_layer"]]
        own = result["per_layer"]
        own.update(layers.arch_probe())
        result["reference"] = {}
        for owner in REFERENCE_OWNERS:
            if owner == name or all(metric in own for metric in declared):
                continue
            donor = asyncio.run(measure(WORKLOADS[owner], seed, SMOKE_SECONDS, True, True))
            result["correct"] &= donor["failed"] == 0
            for metric, value in donor["per_layer"].items():
                if metric not in own:
                    own[metric] = value
                    result["reference"][metric] = owner
        result["budget_ok"] = smoke or all(
            abs(own[metric]) <= MAX_UNATTRIBUTED for metric in BUDGETS.get(name, ())
        )
    return result


def report(result: dict, out_dir: Path, env: dict) -> int:
    """Print every metric, write the result (and span) files, return the exit code."""
    name, traced = result["workload"], result["traced"]
    metrics = result["per_layer"] if traced else result["end_to_end"]
    expected = [m["name"] for m in SPEC["per_layer" if traced else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise SystemExit(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(expected))}"
        )
    print(f"== {name}  seed={result['seed']}  seconds={result['seconds']}"
          f"  samples={result['samples']}  block_spread="
          + json.dumps({k: round(v, 4) for k, v in result["block_spread"].items()}))
    for metric in expected:
        note = f"   (reference: {result['reference'][metric]})" if traced and \
            metric in result["reference"] else ""
        print(f"{name:22s} {metric:36s} {metrics[metric]:>18.9g} {UNITS[metric]}{note}")
    if result["noisy"]:
        print(f"{name}: NOISY - a phase's block spread exceeds "
              f"{harness.NOISY_SPREAD}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans", None)
    if spans is not None:
        spans.write(str(out_dir / name))
    (out_dir / f"{name}{'.traced' if traced else ''}.json").write_text(
        json.dumps({"env": env, **result}, indent=1) + "\n"
    )
    ok = result["correct"] and result.get("budget_ok", True)
    if not ok:
        print(f"{name}: FAILED - correct={result['correct']} "
              f"budget_ok={result.get('budget_ok', True)}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in expected},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload shrunk to about a second (tests only)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result and span files")
    args = parser.parse_args(argv)
    if args.workload is None:
        code = 0
        for name in WORKLOADS:
            child = [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--out", str(args.out)]
            code |= subprocess.run(child + ["--smoke"] * args.smoke).returncode
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    env = harness.environment(ROOT, args.seed, layers.get_backend().name)
    return report(result, args.out, env)


if __name__ == "__main__":
    sys.exit(main())
