"""Data-plane trace replay.

Drives a cache (:class:`~repro.core.zexpander.ZExpander` or
:class:`~repro.core.simple.SimpleKVCache`) with a compact trace, supplying
real value bytes and advancing the virtual clock at a configured request
rate.  GET misses are demand-filled (the client fetches from the backing
store and SETs the result), matching how the paper's replayer keeps the
cache populated.

One loop body serves every caller.  The trace's op/key
columns are materialised once as plain Python ints and every distinct
key's wire bytes are rendered once; the loop then runs over the warmup
slice (its counts are thrown away) and over the measured slice.  Per
request it advances the clock, lets the cache's fault injector act (a
cache built with a fault plan carries one), issues the cache calls, and
calls ``on_request``.  ``tests/core/test_replay_paths.py`` pins the
counters a seeded ETC replay leaves behind, so a change to the request
sequence the cache sees fails there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.common.clock import VirtualClock
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace
from repro.workloads.values import ValueSource


@dataclass
class ReplayStats:
    """Measurement-phase outcome of one replay."""

    gets: int = 0
    get_misses: int = 0
    sets: int = 0
    deletes: int = 0
    demand_fills: int = 0

    @property
    def requests(self) -> int:
        return self.gets + self.sets + self.deletes

    @property
    def miss_ratio(self) -> float:
        denominator = self.gets + self.sets
        if denominator == 0:
            return 0.0
        return self.get_misses / denominator


#: Sample every Nth measured request into the latency histogram when a
#: registry is supplied; amortises the two timer calls far below the
#: per-request cache work (the 5 % metrics-overhead budget).
LATENCY_SAMPLE_EVERY = 64


def replay_trace(
    cache,
    trace: Trace,
    value_source: ValueSource,
    clock: Optional[VirtualClock] = None,
    request_rate: float = 100_000.0,
    warmup_fraction: float = 0.2,
    demand_fill: bool = True,
    on_request: Optional[Callable[[int, int], None]] = None,
    registry=None,
) -> ReplayStats:
    """Replay ``trace`` against ``cache`` with real bytes.

    ``request_rate`` (requests/second) sets how far the virtual clock
    advances per request, which scales every time-based policy (marker
    ages, adaptation windows).  The cache's ``fault_injector``, when it
    has one, gets ``on_request(position, clock=, cache=)`` *before* each
    request so it can skew the clock or squeeze capacity;
    ``on_request(position, op)`` is called *after* each request for
    timeline instrumentation.  ``registry`` (a
    :class:`~repro.metrics.MetricsRegistry`) collects per-phase wall
    timings, the final request tallies, and a latency histogram sampled
    every ``LATENCY_SAMPLE_EVERY``-th measured request; it never changes
    the request sequence the cache sees.
    """
    if request_rate <= 0:
        raise ValueError(f"request_rate must be positive, got {request_rate}")
    warmup = int(len(trace) * warmup_fraction)
    ops_arr, keys_arr, _sizes = trace.as_arrays()
    ops = ops_arr.tolist()
    keys = keys_arr.tolist()
    prefix = trace.key_prefix
    key_bytes = {
        key_id: prefix + b"%012d" % key_id
        for key_id in np.unique(keys_arr).tolist()
    }

    advance = clock.advance if clock is not None else None
    tick = 1.0 / request_rate
    faults = getattr(cache, "fault_injector", None)
    fill_value = value_source.value
    timer = time.perf_counter

    def drive(first: int, stop: int, observe=None) -> ReplayStats:
        """Drive requests ``first..stop-1``; count what they did."""
        cache_get, cache_set, cache_delete = cache.get, cache.set, cache.delete
        gets = get_misses = sets = deletes = demand_fills = 0
        for position, op, key_id in zip(
            range(first, stop), ops[first:stop], keys[first:stop]
        ):
            if advance is not None:
                advance(tick)
            if faults is not None:
                faults.on_request(position, clock=clock, cache=cache)
            key = key_bytes[key_id]
            sampled = (
                observe is not None
                and (position - first) % LATENCY_SAMPLE_EVERY == 0
            )
            if sampled:
                started = timer()
            if op == OP_GET:
                gets += 1
                if cache_get(key) is None:
                    get_misses += 1
                    if demand_fill:
                        cache_set(key, fill_value(key_id))
                        demand_fills += 1
            elif op == OP_SET:
                cache_set(key, fill_value(key_id))
                sets += 1
            elif op == OP_DELETE:
                cache_delete(key)
                deletes += 1
            if sampled:
                observe(timer() - started)
            if on_request is not None:
                on_request(position, op)
        return ReplayStats(gets, get_misses, sets, deletes, demand_fills)

    if registry is None:
        drive(0, warmup)
        return drive(warmup, len(ops))
    latency = registry.histogram(
        "replay_request_seconds",
        "sampled per-request wall latency (measured phase)",
        timing=True,
    )
    warmup_seconds = registry.gauge(
        "replay_warmup_seconds", "wall time of the warmup phase", timing=True
    )
    measured_seconds = registry.gauge(
        "replay_measured_seconds", "wall time of the measured phase", timing=True
    )
    started = timer()
    drive(0, warmup)
    warmup_seconds.set(timer() - started)
    started = timer()
    stats = drive(warmup, len(ops), latency.observe)
    measured_seconds.set(timer() - started)
    registry.mount("replay", stats, replace=True)
    return stats

