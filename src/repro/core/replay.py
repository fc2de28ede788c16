"""Data-plane trace replay.

Drives a cache (:class:`~repro.core.zexpander.ZExpander` or
:class:`~repro.core.simple.SimpleKVCache`) with a compact trace, supplying
real value bytes and advancing the virtual clock at a configured request
rate.  GET misses are demand-filled (the client fetches from the backing
store and SETs the result), matching how the paper's replayer keeps the
cache populated.

Two equivalent drivers live here:

* :func:`_replay_reference` — the straightforward per-entry loop, kept as
  the semantic reference and used whenever a caller needs the
  ``on_request`` instrumentation hook.
* :func:`_replay_batched` — the default hot path.  It pulls the trace out
  as numpy arrays once, pre-renders every distinct key's wire bytes, and
  splits the warmup and measurement phases into separate loops with local
  counters, so the per-request work is exactly the cache calls themselves.

Both produce identical :class:`ReplayStats` and drive the cache with an
identical request sequence; ``tests/core/test_replay_paths.py`` pins that.
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


class _ReplayMetrics:
    """Instrument bundle for one replay; no-op when registry is off."""

    def __init__(self, registry) -> None:
        self.timer = time.perf_counter
        self.latency = registry.histogram(
            "replay_request_seconds",
            "sampled per-request wall latency (measured phase)",
            timing=True,
        )
        self.warmup_seconds = registry.gauge(
            "replay_warmup_seconds", "wall time of the warmup phase", timing=True
        )
        self.measured_seconds = registry.gauge(
            "replay_measured_seconds",
            "wall time of the measured phase",
            timing=True,
        )
        self.registry = registry

    def finish(self, stats: "ReplayStats") -> None:
        """Mount the finished stats so the snapshot carries the tallies."""
        self.registry.mount("replay", stats, replace=True)


def replay_trace(
    cache,
    trace: Trace,
    value_source: ValueSource,
    clock: Optional[VirtualClock] = None,
    request_rate: float = 100_000.0,
    warmup_fraction: float = 0.2,
    demand_fill: bool = True,
    on_request: Optional[Callable[[int, int], None]] = None,
    batched: bool = True,
    faults=None,
    registry=None,
) -> ReplayStats:
    """Replay ``trace`` against ``cache`` with real bytes.

    ``request_rate`` (requests/second) sets how far the virtual clock
    advances per request, which scales every time-based policy (marker
    ages, adaptation windows).  ``on_request(position, op)`` is called
    after each request for timeline instrumentation; supplying it routes
    the replay through the per-entry reference loop, as does
    ``batched=False``.  ``faults`` (a duck-typed
    :class:`~repro.faults.injector.FaultInjector`) gets
    ``on_request(position, clock=, cache=)`` *before* each request so it
    can skew the clock or squeeze capacity; it also forces the reference
    loop.  ``registry`` (a :class:`~repro.metrics.MetricsRegistry`)
    collects per-phase wall timings, the final request tallies, and a
    sampled per-request latency histogram; it never changes the request
    sequence the cache sees, and without one the loop records nothing.
    """
    if request_rate <= 0:
        raise ValueError(f"request_rate must be positive, got {request_rate}")
    metrics = _ReplayMetrics(registry) if registry is not None else None
    if not batched or on_request is not None or faults is not None:
        stats = _replay_reference(
            cache,
            trace,
            value_source,
            clock,
            request_rate,
            warmup_fraction,
            demand_fill,
            on_request,
            faults,
            metrics,
        )
    else:
        stats = _replay_batched(
            cache,
            trace,
            value_source,
            clock,
            request_rate,
            warmup_fraction,
            demand_fill,
            metrics,
        )
    if metrics is not None:
        metrics.finish(stats)
    return stats


def _replay_reference(
    cache,
    trace: Trace,
    value_source: ValueSource,
    clock: Optional[VirtualClock],
    request_rate: float,
    warmup_fraction: float,
    demand_fill: bool,
    on_request: Optional[Callable[[int, int], None]],
    faults=None,
    metrics: Optional["_ReplayMetrics"] = None,
) -> ReplayStats:
    """Per-entry loop: one branch tree per request, stats updated inline."""
    warmup = int(len(trace) * warmup_fraction)
    tick = 1.0 / request_rate
    stats = ReplayStats()
    timer = metrics.timer if metrics is not None else None
    phase_started = timer() if timer is not None else 0.0
    for position, (op, key_id, _size) in enumerate(trace):
        if clock is not None:
            clock.advance(tick)
        if faults is not None:
            faults.on_request(position, clock=clock, cache=cache)
        key = trace.key_bytes(key_id)
        measuring = position >= warmup
        started = None
        if timer is not None and measuring:
            if position == warmup:
                metrics.warmup_seconds.set(timer() - phase_started)
                phase_started = timer()
            if (position - warmup) % LATENCY_SAMPLE_EVERY == 0:
                started = timer()
        if op == OP_GET:
            value = cache.get(key)
            if measuring:
                stats.gets += 1
                if value is None:
                    stats.get_misses += 1
            if value is None and demand_fill:
                cache.set(key, value_source.value(key_id))
                if measuring:
                    stats.demand_fills += 1
        elif op == OP_SET:
            cache.set(key, value_source.value(key_id))
            if measuring:
                stats.sets += 1
        elif op == OP_DELETE:
            cache.delete(key)
            if measuring:
                stats.deletes += 1
        if started is not None:
            metrics.latency.observe(timer() - started)
        if on_request is not None:
            on_request(position, op)
    if timer is not None:
        metrics.measured_seconds.set(timer() - phase_started)
    return stats


def _replay_batched(
    cache,
    trace: Trace,
    value_source: ValueSource,
    clock: Optional[VirtualClock],
    request_rate: float,
    warmup_fraction: float,
    demand_fill: bool,
    metrics: Optional["_ReplayMetrics"] = None,
) -> ReplayStats:
    """Array-driven loop: same request sequence, minimal per-request work.

    The trace's op/key columns are materialised once as plain Python ints
    (``tolist`` on the numpy views), wire keys are pre-rendered per
    distinct key id, and the warmup prefix runs in a counter-free loop.
    With ``metrics``, the measured phase runs an instrumented twin of the
    same loop (identical cache calls; every ``LATENCY_SAMPLE_EVERY``-th
    request is timed) so the metrics-off path stays branch-free.
    """
    warmup = int(len(trace) * warmup_fraction)
    tick = 1.0 / request_rate
    ops_arr, keys_arr, _sizes = trace.as_arrays()
    op_list = ops_arr.tolist()
    key_list = keys_arr.tolist()
    prefix = trace.key_prefix
    key_bytes = {
        key_id: prefix + b"%012d" % key_id
        for key_id in np.unique(keys_arr).tolist()
    }
    advance = clock.advance if clock is not None else None
    cache_get = cache.get
    cache_set = cache.set
    cache_delete = cache.delete
    fill_value = value_source.value

    timer = metrics.timer if metrics is not None else None
    phase_started = timer() if timer is not None else 0.0

    # Warmup prefix: drive the cache, count nothing.
    for op, key_id in zip(op_list[:warmup], key_list[:warmup]):
        if advance is not None:
            advance(tick)
        key = key_bytes[key_id]
        if op == OP_GET:
            if cache_get(key) is None and demand_fill:
                cache_set(key, fill_value(key_id))
        elif op == OP_SET:
            cache_set(key, fill_value(key_id))
        elif op == OP_DELETE:
            cache_delete(key)

    if timer is not None:
        metrics.warmup_seconds.set(timer() - phase_started)
        phase_started = timer()

    gets = get_misses = sets = deletes = demand_fills = 0
    if timer is None:
        for op, key_id in zip(op_list[warmup:], key_list[warmup:]):
            if advance is not None:
                advance(tick)
            key = key_bytes[key_id]
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
    else:
        observe = metrics.latency.observe
        countdown = 0
        for op, key_id in zip(op_list[warmup:], key_list[warmup:]):
            if advance is not None:
                advance(tick)
            key = key_bytes[key_id]
            if countdown == 0:
                countdown = LATENCY_SAMPLE_EVERY
                started = timer()
            else:
                started = None
            countdown -= 1
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
            if started is not None:
                observe(timer() - started)
        metrics.measured_seconds.set(timer() - phase_started)
    return ReplayStats(
        gets=gets,
        get_misses=get_misses,
        sets=sets,
        deletes=deletes,
        demand_fills=demand_fills,
    )
