"""Discrete-event queue simulation for the batch scheduler (Fig. 14b).

Poisson arrivals feed a single IVE server.  Two disciplines:

* ``simulate_batching`` — the waiting-window scheduler: a batch launches
  when the oldest query has waited one window or ``max_batch`` queries are
  queued; service time comes from the cycle simulator's batched latency.
* ``simulate_fifo`` — the non-batching baseline: queries are served one at
  a time at the single-query latency.

Both return mean/percentile latency so the load-latency curve, break-even
point, and throughput limits of Section VI-F can be regenerated.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import ParameterError
from repro.systems.batching import BatchPolicy, ServicePoint


def poisson_arrival_times(
    rate_qps: float, num_queries: int, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrival instants: cumulative exponential gaps.

    The one shared sampler behind both the discrete-event queue models here
    and the open-loop load generator (:mod:`repro.serve.loadgen`).
    """
    if rate_qps <= 0:
        raise ParameterError("arrival rate must be positive")
    gaps = rng.exponential(1.0 / rate_qps, size=num_queries)
    return np.cumsum(gaps)


def simulate_batching(
    service_time: Callable[[int], float],
    policy: BatchPolicy,
    arrival_qps: float,
    num_queries: int = 2000,
    seed: int = 0,
) -> ServicePoint:
    """Event-driven waiting-window batching simulation."""
    if arrival_qps <= 0:
        raise ParameterError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(arrival_qps, num_queries, rng)
    latencies: list[float] = []
    batches: list[int] = []
    server_free = 0.0
    i = 0
    while i < len(arrivals):
        first = arrivals[i]
        # The server considers dispatch once it is free and a query waits.
        earliest_start = max(server_free, first)
        # Window countdown starts when the oldest query arrived; the batch
        # fires at first + window, or immediately at earliest_start if the
        # window already expired (server was busy), or as soon as max_batch
        # queries have arrived.
        window_deadline = first + policy.waiting_window_s
        if i + policy.max_batch <= len(arrivals) - 1:
            full_time = arrivals[i + policy.max_batch - 1]
        else:
            full_time = math.inf
        dispatch_time = max(earliest_start, min(window_deadline, full_time))
        batch = int(np.searchsorted(arrivals, dispatch_time, side="right") - i)
        batch = max(1, min(batch, policy.max_batch))
        finish = dispatch_time + service_time(batch)
        for j in range(i, i + batch):
            latencies.append(finish - arrivals[j])
        batches.append(batch)
        server_free = finish
        i += batch
    lat = np.array(latencies)
    return ServicePoint(
        arrival_qps=arrival_qps,
        mean_latency_s=float(lat.mean()),
        p95_latency_s=float(np.percentile(lat, 95)),
        mean_batch=float(np.mean(batches)),
        served=len(lat),
    )


def simulate_fifo(
    single_query_time: float,
    arrival_qps: float,
    num_queries: int = 2000,
    seed: int = 0,
) -> ServicePoint:
    """Non-batching baseline: one query at a time."""
    if arrival_qps <= 0:
        raise ParameterError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(arrival_qps, num_queries, rng)
    latencies = np.empty(len(arrivals))
    server_free = 0.0
    for i, t in enumerate(arrivals):
        start = max(server_free, t)
        finish = start + single_query_time
        latencies[i] = finish - t
        server_free = finish
    return ServicePoint(
        arrival_qps=arrival_qps,
        mean_latency_s=float(latencies.mean()),
        p95_latency_s=float(np.percentile(latencies, 95)),
        mean_batch=1.0,
        served=len(latencies),
    )


def break_even_rate(
    batching_points: list[ServicePoint], fifo_points: list[ServicePoint]
) -> float | None:
    """Lowest arrival rate where batching's mean latency wins (Fig. 14b)."""
    for bp, fp in zip(batching_points, fifo_points):
        if bp.arrival_qps != fp.arrival_qps:
            raise ParameterError("curves must share arrival rates")
        if bp.mean_latency_s <= fp.mean_latency_s:
            return bp.arrival_qps
    return None
