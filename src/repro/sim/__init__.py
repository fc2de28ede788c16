"""Performance modelling.

The paper's throughput and latency numbers come from C prototypes on a
dual Xeon E5-2680v3; a Python interpreter is two orders of magnitude
slower, so timing Python would say nothing about the paper's claims.
Instead, the data plane runs for real (real blocks, real compression,
real filters) and *speed* is computed analytically:

1. a replay measures the workload's **operation mix** — what fraction of
   requests hit the N-zone, decompress a Z-block, are answered by a
   Content Filter, trigger a demotion, and so on;
2. a calibrated **cost model** prices each operation kind (§ cost table in
   :mod:`repro.sim.costmodel`);
3. a **contention model** (Universal Scalability Law, applied to the
   share of requests that touch the N-zone's shared structures) turns
   single-thread service time into throughput-vs-threads curves and
   latency distributions.

DESIGN.md §2 documents this substitution; EXPERIMENTS.md reports the
resulting shapes against the paper's.
"""

from repro.sim.contention import ContentionModel
from repro.sim.costmodel import (
    HIGH_PERFORMANCE_COSTS,
    MEMCACHED_COSTS,
    CostModel,
    OpKind,
)
from repro.sim.latency import LatencyModel
from repro.sim.perfsim import OpMix, PerformanceModel, mix_from_stats

__all__ = [
    "ContentionModel",
    "CostModel",
    "HIGH_PERFORMANCE_COSTS",
    "LatencyModel",
    "MEMCACHED_COSTS",
    "OpKind",
    "OpMix",
    "PerformanceModel",
    "mix_from_stats",
]
