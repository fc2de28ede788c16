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
from typing import Deque, Dict, Optional

#: Marker keys start with a NUL byte — impossible in memcached keys.
MARKER_PREFIX = b"\x00zx-marker\x00"
#: Tiny payload: markers should displace as little real data as possible.
MARKER_VALUE = b"m"
#: Digits of the sequence number that ends a minted marker key.
SEQUENCE_DIGITS = 16
#: Weights of the three most recent samples, newest first (§3.3.2).
WEIGHTS = (0.5, 0.3, 0.2)


def is_marker_key(key: bytes) -> bool:
    """True for keys of the shape :class:`LocalityBenchmark` mints: the
    prefix and a sequence number.  A library caller's key that only
    starts with the prefix is an item, not a probe: it is demoted on
    eviction and written to images like any other."""
    return (
        len(key) == len(MARKER_PREFIX) + SEQUENCE_DIGITS
        and key.startswith(MARKER_PREFIX)
        and key[len(MARKER_PREFIX):].isdigit()
    )


class LocalityBenchmark:
    """Mints marker keys and turns their eviction ages into a benchmark."""

    def __init__(self) -> None:
        self._sequence = 0
        #: In-flight markers: key -> insertion time.
        self._outstanding: Dict[bytes, float] = {}
        #: Most recent eviction-age samples, newest first.
        self._samples: Deque[float] = deque(maxlen=3)
        #: Current benchmark in seconds: the weighted average of the
        #: samples, recomputed when one arrives; None until the first.
        self.value: Optional[float] = None

    def mint(self, now: float) -> bytes:
        """Create a fresh marker key, recording its insertion time."""
        self._sequence += 1
        key = MARKER_PREFIX + b"%0*d" % (SEQUENCE_DIGITS, self._sequence)
        self._outstanding[key] = now
        return key

    def observe_eviction(self, key: bytes, now: float) -> Optional[float]:
        """Feed an evicted key; returns the new sample if it was a marker."""
        inserted = self._outstanding.pop(key, None)
        if inserted is None:
            return None
        sample = max(0.0, now - inserted)
        self._samples.appendleft(sample)
        weights = WEIGHTS[: len(self._samples)]
        self.value = sum(w * s for w, s in zip(weights, self._samples)) / sum(weights)
        return sample
