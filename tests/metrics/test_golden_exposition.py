"""Golden exposition: a seeded replay's timing-free Prometheus text.

A short seeded ETC replay against the paper's configuration
(``append_region_bytes=0``) with the registry bound must render
``to_prometheus(registry, include_timing=False)`` byte-identically to
``benchmarks/results/metrics_smoke.prom``.  Timing metrics are excluded,
so everything left is a pure function of the request sequence; any drift
means cache behaviour (not just formatting) changed.  Regenerate
deliberately, never by accident::

    PYTHONPATH=src python -c "from tests.metrics.test_golden_exposition \
        import GOLDEN, run_exposition; GOLDEN.write_text(run_exposition())"
"""

from pathlib import Path

from repro.common.clock import VirtualClock
from repro.core import ZExpander, ZExpanderConfig, replay_trace
from repro.experiments.common import (
    Scale,
    base_size_of,
    build_trace,
    build_value_source,
)
from repro.metrics import MetricsRegistry
from tests.metrics.exposition import to_prometheus

GOLDEN = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "metrics_smoke.prom"
)
SCALE = Scale(num_keys=1500, num_requests=20_000, seed=42)


def run_exposition() -> str:
    """One seeded replay; returns the timing-free Prometheus text."""
    trace = build_trace("ETC", SCALE)
    values = build_value_source("ETC", trace, seed=SCALE.seed)
    clock = VirtualClock()
    config = ZExpanderConfig(
        total_capacity=int(base_size_of("ETC", SCALE) * 2),
        nzone_fraction=0.5,
        adaptive=False,
        marker_interval_seconds=0.5,
        seed=SCALE.seed,
        append_region_bytes=0,
    )
    cache = ZExpander(config, clock=clock)
    registry = MetricsRegistry()
    cache.bind_metrics(registry)
    replay_trace(
        cache,
        trace,
        values,
        clock=clock,
        request_rate=50_000.0,
        registry=registry,
    )
    return to_prometheus(registry, include_timing=False)


def test_exposition_matches_the_committed_golden():
    assert run_exposition() == GOLDEN.read_text()
