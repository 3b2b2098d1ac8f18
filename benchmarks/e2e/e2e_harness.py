"""Measurement machinery of the end-to-end benchmark.

Spans, closed- and open-loop phases, block statistics, repeated set-up
and the environment stamp.  Nothing here knows a workload: a deployment
is anything with ``round_trip``/``side_tasks``/``close`` (see
``e2e_workloads``), and every layer is reached through the deployment's
public calls only.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: One clock for everything: ``loop.time()`` is ``time.monotonic()`` on a
#: real event loop, so ``ServeResult`` timestamps share the span timebase.
now = time.monotonic

#: Every timed phase is cut into this many equal-duration blocks.
BLOCKS = 10
#: Closed-loop callers of a saturate phase.
CLIENTS = 16
#: Verified requests before each phase (cut short after WARMUP_CAP_S).
WARMUP = 8
WARMUP_CAP_S = 1.0
#: A phase whose block rates spread wider than this marks the run noisy.
NOISY_SPREAD = 0.10
#: Overshoot of a sleeper with this period is the event-loop lag.
LAG_PERIOD_S = 0.005


# -- spans ------------------------------------------------------------------


class SpanLog:
    """Spans kept in memory and written when the run ends.

    A span is a dict: ``id`` (its position), ``name``, ``start_s``,
    ``end_s``, ``parent`` (span id or None), ``request`` (id of the root
    of its tree: a served request, a staged replay, a set-up or a
    publish) and ``phase`` (what the run was doing when it was recorded).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.children: dict[int, list[dict]] = {}
        self.phase = "setup"

    def add(self, name, start_s, end_s, parent=None, **args) -> int:
        span_id = len(self.spans)
        request = span_id if parent is None else self.spans[parent]["request"]
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start_s": start_s,
                "end_s": end_s,
                "parent": parent,
                "request": request,
                "phase": self.phase,
                **args,
            }
        )
        if parent is not None:
            self.children.setdefault(parent, []).append(self.spans[-1])
        return span_id

    def named(self, name: str, phase: str | None = None) -> list[dict]:
        return [
            s
            for s in self.spans
            if s["name"] == name and (phase is None or s["phase"] == phase)
        ]

    def ms(self, name: str, phase: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, in milliseconds."""
        return [(s["end_s"] - s["start_s"]) * 1e3 for s in self.named(name, phase)]

    def write(self, prefix: str) -> None:
        """``prefix.spans.jsonl`` plus Chrome ``trace_event`` ``prefix.trace.json``."""
        with open(prefix + ".spans.jsonl", "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        t0 = min((s["start_s"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": s["phase"],
                "ph": "X",
                "ts": (s["start_s"] - t0) * 1e6,
                "dur": (s["end_s"] - s["start_s"]) * 1e6,
                "pid": 0,
                # One row per tree, so concurrent requests do not overlap.
                "tid": s["request"],
                "args": {k: v for k, v in s.items() if k not in ("name", "start_s", "end_s")},
            }
            for s in self.spans
        ]
        with open(prefix + ".trace.json", "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def self_time(log: SpanLog, span_id: int) -> float:
    """A span's duration minus the part of it its child spans cover."""
    span = log.spans[span_id]
    covered, edge = 0.0, span["start_s"]
    for start, end in sorted((c["start_s"], c["end_s"]) for c in log.children.get(span_id, [])):
        start, end = max(start, edge), min(end, span["end_s"])
        if end > start:
            covered += end - start
            edge = end
    return (span["end_s"] - span["start_s"]) - covered


def unattributed_share(log: SpanLog, root_id: int) -> float:
    """Share of a root span's duration that no child span accounts for."""
    root = log.spans[root_id]
    return self_time(log, root_id) / (root["end_s"] - root["start_s"])


# -- statistics -------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def block_rates(trips, t_start: float, t_end: float) -> list[float]:
    """Verified completions per second in each of BLOCKS equal blocks.

    A round trip's one completion is credited evenly over its own
    interval, so a block that cuts a round trip in two gets the matching
    share of it.  Counting whole completions at their end time instead
    would quantise a block to the dispatch windows that happen to end in
    it (eight records at a time on the cuckoo tier).
    """
    width = (t_end - t_start) / BLOCKS
    credit = [0.0] * BLOCKS
    for start, end, ok in trips:
        if not ok or end <= start:
            continue
        first = max(0, int((start - t_start) // width))
        last = min(BLOCKS - 1, int((end - t_start) // width))
        for block in range(first, last + 1):
            lo = max(start, t_start + block * width)
            hi = min(end, t_start + (block + 1) * width)
            if hi > lo:
                credit[block] += (hi - lo) / (end - start)
    return [c / width for c in credit]


def spread(values) -> float:
    """(p75 - p25) / p50: the noise witness of a set of block rates."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# -- phases -----------------------------------------------------------------


async def _loop_lag(stop: asyncio.Event, out: list[float]) -> None:
    while not stop.is_set():
        start = now()
        await asyncio.sleep(LAG_PERIOD_S)
        out.append(now() - start - LAG_PERIOD_S)


async def _with_side_tasks(dep, phase: str, log, body, lag: list | None = None):
    """Run ``body`` while the deployment's side tasks (e.g. a publisher) run."""
    stop = asyncio.Event()
    side = [asyncio.create_task(c) for c in dep.side_tasks(phase, stop, log)]
    if lag is not None:
        side.append(asyncio.create_task(_loop_lag(stop, lag)))
    try:
        return await body
    finally:
        stop.set()
        await asyncio.gather(*side)


async def closed_loop(dep, phase: str, items, clients: int, seconds: float, log) -> dict:
    """``clients`` callers, each awaiting its reply before its next request.

    Callers stop issuing at the deadline and the requests in flight are
    awaited (and verified) before the phase returns.
    """
    if log is not None:
        log.phase = phase
    trips: list[tuple] = []
    lag: list[float] = []
    cpu0, t_start = time.process_time(), now()
    deadline = t_start + seconds

    async def caller(mine):
        at = 0
        while now() < deadline:
            trips.append(await dep.round_trip(mine[at % len(mine)], log))
            at += 1

    await _with_side_tasks(
        dep,
        phase,
        log,
        asyncio.gather(*(caller(items[c::clients]) for c in range(clients))),
        lag if log is not None and clients > 1 else None,
    )
    cpu_s = time.process_time() - cpu0
    latencies = [end - start for start, end, ok in trips if ok]
    if not latencies:
        raise SystemExit(f"{phase}: none of {len(trips)} records verified")
    rates = block_rates(trips, t_start, deadline)
    verified = len(latencies)
    return {
        "attempted": len(trips),
        "verified": verified,
        "throughput_rec_s": statistics.median(rates),
        "block_spread": spread(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "cpu_ms_per_rec": cpu_s * 1e3 / verified,
        "loop_lag_s": lag,
    }


async def open_loop(dep, items, due_offsets, log) -> dict:
    """Requests sent on a fixed schedule; latency counts from the due time."""
    log.phase = "paced"
    late: list[float] = []
    tasks = []

    async def generate():
        t_start = now()
        for item, offset in zip(items, due_offsets):
            due = t_start + float(offset)
            if due > now():
                await asyncio.sleep(due - now())
            late.append(now() - due)
            tasks.append(asyncio.create_task(dep.round_trip(item, log, due=due)))
        return await asyncio.gather(*tasks)

    rejected0 = dep.rejected
    trips = await _with_side_tasks(dep, "paced", log, generate())
    latencies = [end - start for start, end, ok in trips if ok]
    return {
        "attempted": len(trips),
        "verified": len(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
        "rejected_share": (dep.rejected - rejected0) / len(trips),
        "lateness_ms_p95": percentile(late, 95) * 1e3,
    }


async def warm_up(dep, items, clients: int) -> tuple[int, int]:
    """Up to WARMUP verified requests, ``clients`` at a time; (attempted, verified)."""
    deadline = now() + WARMUP_CAP_S
    attempted = verified = 0
    while attempted < WARMUP and (attempted == 0 or now() < deadline):
        group = items[attempted : attempted + min(clients, WARMUP - attempted)]
        trips = await asyncio.gather(*(dep.round_trip(item, None) for item in group))
        attempted += len(trips)
        verified += sum(ok for _, _, ok in trips)
    return attempted, verified


async def timed_setups(deploy, first_item, log, min_warm: int, budget_s: float):
    """Build the deployment through its first verified answer, several times.

    The first build is cold (imports, page faults, plan caches) and is
    reported apart.  Warm builds repeat until ``min_warm`` are done and
    ``budget_s`` seconds of them have passed (at most 12), so a cheap
    build is sampled more often than a multi-second one.  The previous
    deployment is dropped and collected before each build.  Returns
    ``(deployment, cold_s, warm_s list, attempted, verified)``.
    """
    dep, times, verified = None, [], 0
    while True:
        warm = times[1:]
        if len(warm) >= min_warm and (sum(warm) >= budget_s or len(warm) >= 12):
            return dep, times[0], warm, len(times), verified
        if dep is not None:
            await dep.close()
            dep = None
        gc.collect()
        start = now()
        dep = await deploy(log)
        _, end, ok = await dep.round_trip(first_item, log)
        times.append(end - start)
        verified += ok


# -- environment ------------------------------------------------------------


def proc_snapshot() -> dict:
    """Load average and cumulative CPU jiffies (total, steal) from /proc."""
    with open("/proc/stat") as fh:
        jiffies = [int(x) for x in fh.readline().split()[1:]]
    with open("/proc/loadavg") as fh:
        load = [float(x) for x in fh.read().split()[:3]]
    return {"loadavg": load, "cpu_jiffies": sum(jiffies), "steal_jiffies": jiffies[7]}


def steal_share(before: dict, after: dict) -> float:
    total = after["cpu_jiffies"] - before["cpu_jiffies"]
    return (after["steal_jiffies"] - before["steal_jiffies"]) / max(1, total)


def git_sha(root: Path) -> str | None:
    """The checkout's commit, or None where the checkout is not a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_version() -> str:
    try:
        libs = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{libs.get('name')} {libs.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: Path, seed: int, backend: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
        "backend": backend,
        "argv": sys.argv[1:],
    }
