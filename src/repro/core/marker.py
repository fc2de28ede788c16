"""Marker-request locality benchmarking (§3.3.2).

The N-zone is a black box; to learn how long an item with zero re-accesses
survives in it, zExpander periodically writes a *Marker* — a SET with a
unique key containing characters real workloads never use — and measures
the time until the marker falls out of the zone's eviction stream.  That
eviction age is the N-zone's *locality benchmark*: a Z-zone item re-used
faster than the benchmark would out-compete the N-zone's weakest resident,
so it is promoted.

The benchmark is a weighted average of the three most recent samples.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

#: Marker keys start with a NUL byte — impossible in memcached keys.
MARKER_PREFIX = b"\x00zx-marker\x00"
#: Tiny payload: markers should displace as little real data as possible.
MARKER_VALUE = b"m"


def is_marker_key(key: bytes) -> bool:
    """True for keys minted by :class:`LocalityBenchmark`."""
    return key.startswith(MARKER_PREFIX)


class LocalityBenchmark:
    """Mints marker keys and turns their eviction ages into a benchmark."""

    def __init__(self, weights: Tuple[float, float, float] = (0.5, 0.3, 0.2)) -> None:
        if len(weights) != 3:
            raise ValueError("exactly three weights are required")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must not sum to zero")
        self._weights = tuple(w / total for w in weights)
        self._sequence = 0
        #: In-flight markers: key -> insertion time.
        self._outstanding: Dict[bytes, float] = {}
        #: Most recent eviction-age samples, newest first.
        self._samples: Deque[float] = deque(maxlen=3)

    def mint(self, now: float) -> bytes:
        """Create a fresh marker key, recording its insertion time."""
        self._sequence += 1
        key = MARKER_PREFIX + b"%016d" % self._sequence
        self._outstanding[key] = now
        return key

    def observe_eviction(self, key: bytes, now: float) -> Optional[float]:
        """Feed an evicted key; returns the new sample if it was a marker."""
        inserted = self._outstanding.pop(key, None)
        if inserted is None:
            return None
        sample = max(0.0, now - inserted)
        self._samples.appendleft(sample)
        return sample

    @property
    def value(self) -> Optional[float]:
        """Current benchmark in seconds; None until the first sample."""
        if not self._samples:
            return None
        used = list(self._samples)
        weights = self._weights[: len(used)]
        return sum(w * s for w, s in zip(weights, used)) / sum(weights)
