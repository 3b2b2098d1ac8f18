"""Open-loop load generation: Poisson, bursty, and diurnal arrivals.

Open loop means arrivals do not wait for responses — the generator keeps
firing at its own rate regardless of how far behind the server falls,
which is what exposes queueing collapse and makes admission control earn
its keep.  Arrival schedules are plain arrays of absolute times so the
same schedule replays under the wall clock or the virtual-time loop.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, ServeError
from repro.systems.queueing import poisson_arrival_times


def poisson_arrivals(rate_qps: float, num: int, seed: int = 0) -> np.ndarray:
    """Homogeneous Poisson process: exponential inter-arrival gaps.

    Seed-taking wrapper over the shared sampler
    (:func:`repro.systems.queueing.poisson_arrival_times`), so the serving
    load generator and the discrete-event queue models draw identical
    schedules.
    """
    return poisson_arrival_times(rate_qps, num, np.random.default_rng(seed))


def _inhomogeneous_arrivals(rate_fn, num: int, seed: int) -> np.ndarray:
    """Time-varying Poisson process by per-arrival rate evaluation.

    Each gap is drawn at the instantaneous rate at the previous arrival —
    accurate while the rate changes slowly relative to one gap, which holds
    for the burst/diurnal periods used here.
    """
    rng = np.random.default_rng(seed)
    times = np.empty(num)
    t = 0.0
    for i in range(num):
        rate = rate_fn(t)
        if rate <= 0:
            raise ParameterError("instantaneous rate must stay positive")
        t += rng.exponential(1.0 / rate)
        times[i] = t
    return times


def bursty_arrivals(
    base_qps: float,
    burst_qps: float,
    num: int,
    period_s: float = 1.0,
    duty: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """On/off modulated Poisson: ``burst_qps`` for ``duty`` of each period."""
    if not 0.0 < duty < 1.0:
        raise ParameterError("duty cycle must be in (0, 1)")
    if period_s <= 0:
        raise ParameterError("burst period must be positive")

    def rate(t: float) -> float:
        return burst_qps if (t % period_s) < duty * period_s else base_qps

    return _inhomogeneous_arrivals(rate, num, seed)


def diurnal_arrivals(
    mean_qps: float,
    num: int,
    period_s: float = 86400.0,
    amplitude: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Sinusoidal day/night rate: ``mean * (1 + A * sin(2*pi*t/period))``."""
    if not 0.0 <= amplitude < 1.0:
        raise ParameterError("amplitude must be in [0, 1)")

    def rate(t: float) -> float:
        return mean_qps * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period_s))

    return _inhomogeneous_arrivals(rate, num, seed)


def uniform_indices(num_records: int, num: int, seed: int = 0) -> np.ndarray:
    """Uniformly random record indices (every shard equally hot)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_records, size=num)


def zipf_indices(num_records: int, num: int, a: float = 1.2, seed: int = 0) -> np.ndarray:
    """Zipf-skewed indices: a hot head concentrated on the first shards.

    ``rng.zipf`` draws unbounded ranks; draws beyond ``num_records`` are
    rejection-sampled away rather than reduced mod ``num_records`` — the
    modulo would alias the entire unbounded tail back onto the hottest
    indices, silently reshaping the distribution (index 0 would absorb the
    mass of ranks ``num_records + 1``, ``2 * num_records + 1``, ...).
    The result is exactly Zipf truncated to ``[0, num_records)``.
    """
    if a <= 1.0:
        raise ParameterError("Zipf exponent must be greater than 1")
    if num_records < 1:
        raise ParameterError("need at least one record to draw indices")
    rng = np.random.default_rng(seed)
    out = np.empty(num, dtype=np.int64)
    filled = 0
    while filled < num:
        # Acceptance is >= 1/zeta(a) (> 17% even at num_records=1, a=1.2),
        # so modest oversampling converges in a handful of rounds.
        draws = rng.zipf(a, size=max(2 * (num - filled), 64)) - 1
        draws = draws[draws < num_records]
        take = min(draws.size, num - filled)
        out[filled : filled + take] = draws[:take]
        filled += take
    return out


@dataclass
class LoadReport:
    """Outcome of one open-loop run (admission + completion accounting)."""

    offered: int
    completed: int
    rejected: int
    errored: int
    offered_qps: float
    metrics: dict
    #: Completed :class:`~repro.serve.dispatcher.ServeResult`\ s, populated
    #: only when ``run_open_loop(collect_results=True)`` — the CLI's
    #: never-a-wrong-byte audit needs the responses, not just the counters.
    results: list | None = None


async def run_open_loop(
    runtime,
    arrivals: np.ndarray,
    items,
    drain: bool = True,
    collect_results: bool = False,
) -> LoadReport:
    """Drive ``runtime`` with the given arrival schedule.

    At each arrival time a request for the paired item — whatever the
    registry's ``make_request`` takes: a record index, or a key on the
    keyword tier — is submitted without waiting for earlier responses.
    Shed queries count as rejected; backend failures as errored.  Returns
    the combined report after (optionally) draining the runtime.
    """
    if len(arrivals) != len(items):
        raise ParameterError("need one item per arrival")
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    futures: list[asyncio.Future] = []
    rejected = 0
    for offset, item in zip(arrivals, items):
        delay = epoch + float(offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            futures.append(runtime.submit(runtime.registry.make_request(item)))
        except ServeError:
            rejected += 1
    if drain:
        await runtime.drain()
    outcomes = await asyncio.gather(*futures, return_exceptions=True)
    errored = sum(1 for o in outcomes if isinstance(o, BaseException))
    offered_span = float(arrivals[-1] - arrivals[0]) if len(arrivals) > 1 else 0.0
    return LoadReport(
        offered=len(arrivals),
        completed=len(outcomes) - errored,
        rejected=rejected,
        errored=errored,
        offered_qps=(len(arrivals) - 1) / offered_span if offered_span > 0 else 0.0,
        metrics=runtime.metrics.snapshot(),
        results=(
            [o for o in outcomes if not isinstance(o, BaseException)]
            if collect_results
            else None
        ),
    )
