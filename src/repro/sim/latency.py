"""Request-processing-time distributions (Figure 11).

Latency per request = the priced service time of its operation kind plus a
lock/queueing delay.  The delay is exponential with mean equal to the
contention model's wait inflation times the mean service time, and it only
applies to requests that acquire contended locks (probability =
``lock_share``).  This reproduces Figure 11's crossover: the system with
cheaper service times (H-Cache) wins at low percentiles, while the system
with the smaller lock share (H-zExpander) wins the tail.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.rng import derive_seed
from repro.sim.contention import ContentionModel
from repro.sim.costmodel import CostModel, OpKind
from repro.sim.perfsim import OpMix


#: Arrival burstiness: mean wait exceeds the USL's *time-average*
#: inflation because waits cluster at contended instants.
BURST_FACTOR = 2.5


class LatencyModel:
    """Samples per-request processing times for a mix at a thread count."""

    def __init__(
        self,
        costs: CostModel,
        contention: ContentionModel = None,
        seed: int = 0,
    ) -> None:
        self.costs = costs
        self.contention = contention if contention is not None else ContentionModel()
        self._rng = np.random.default_rng(derive_seed(seed, "latency"))

    def sample(self, mix: OpMix, threads: int, count: int = 100_000) -> np.ndarray:
        """Return ``count`` simulated request latencies in seconds."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        kinds = [kind for kind in OpKind if mix.rate(kind) > 0]
        if not kinds:
            raise ValueError("mix has no operations")
        weights = np.array([mix.rate(kind) for kind in kinds], dtype=np.float64)
        weights /= weights.sum()
        service = np.array(
            [self.costs.cost(kind) + self.costs.network_per_request for kind in kinds]
        )
        chosen = self._rng.choice(len(kinds), size=count, p=weights)
        latencies = service[chosen].copy()
        inflation = self.contention.wait_inflation(
            threads, mix.lock_share, mix.set_fraction
        )
        if inflation > 0 and mix.lock_share > 0:
            # Lock waits are a property of the *contended structure*, not
            # of the waiting request: the wait scale is the N-zone lock
            # hold time (the cost of the shared-structure operations),
            # inflated by the USL's excess.  Requests that do Z-zone work
            # between acquisitions (H-zExpander) contend less often AND
            # see a lower inflation — Figure 11's tail crossover.
            hold_kinds = (OpKind.NZONE_GET_HIT, OpKind.NZONE_SET, OpKind.NZONE_DELETE)
            hold_rate = sum(mix.rate(kind) for kind in hold_kinds)
            if hold_rate > 0:
                hold_time = (
                    sum(mix.rate(kind) * self.costs.cost(kind) for kind in hold_kinds)
                    / hold_rate
                )
            else:
                hold_time = float(np.dot(weights, service))
            contended = self._rng.random(count) < mix.lock_share
            waits = self._rng.exponential(
                (inflation / max(mix.lock_share, 1e-9))
                * hold_time
                * BURST_FACTOR,
                size=count,
            )
            latencies = latencies + np.where(contended, waits, 0.0)
        return latencies

    def cdf_points(
        self,
        mix: OpMix,
        threads: int,
        count: int = 100_000,
        points: Sequence[float] = (50, 90, 95, 99, 99.9),
    ) -> List[Tuple[float, float]]:
        """(percentile, seconds) pairs for Figure 11-style reporting."""
        samples = np.sort(self.sample(mix, threads, count))
        return [(q, float(np.percentile(samples, q))) for q in points]
