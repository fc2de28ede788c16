"""Unified observability: one registry for every counter in the stack.

The cache core, admission controller, serving layer, replay engine, and
fault auditor all report through a :class:`MetricsRegistry` — existing
``*Stats`` dataclasses are mounted as snapshot-time views (hot paths
untouched), while latencies and payload sizes land in fixed-bucket
log-spaced histograms.
"""

from repro.metrics.registry import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)

__all__ = [
    "NULL_INSTRUMENT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
]
