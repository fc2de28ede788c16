"""Per-operation cost tables.

Costs are in seconds per request on one core of the paper's testbed class
(Xeon E5-2680v3).  They are calibrated against the absolute anchors the
paper states in §4.3:

* memcached: "less than 100 K RPS with one thread" → a ~10 µs network/
  syscall path dominating every request;
* zExpander serving *all* requests at its Z-zone, no networking: "around
  1.3 M RPS with one thread" on the 95 %/5 % YCSB mix → GET-with-
  decompression ≈ 0.7 µs, SET-with-recompression ≈ 3.5 µs;
* H-Cache: Figure 10's all-GET curve implies ≈ 2.3 M RPS per thread
  before contention → cuckoo GET ≈ 0.42 µs.

The relative magnitudes follow the operations' real byte work: an LZ4-
class codec decompresses ~3 GB/s (2 KB block ≈ 0.7 µs) and compresses
~700 MB/s (≈ 3 µs), a Bloom-filter probe plus trie walk is tens of
nanoseconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpKind(enum.Enum):
    """Every priced request outcome."""

    NZONE_GET_HIT = "nzone_get_hit"
    NZONE_SET = "nzone_set"
    ZZONE_GET_HIT = "zzone_get_hit"
    #: GET/DELETE answered "absent" by the Content Filter (no decompress).
    FILTERED_MISS = "filtered_miss"
    #: Filter false positive: decompressed, then missed.
    FALSE_POSITIVE_MISS = "false_positive_miss"
    #: N-zone eviction admitted into the Z-zone (block rebuild).
    DEMOTION = "demotion"
    #: Z-zone item moved into the N-zone (block rebuild + N set).
    PROMOTION = "promotion"
    ZZONE_DELETE = "zzone_delete"
    NZONE_DELETE = "nzone_delete"


@dataclass(frozen=True)
class CostModel:
    """Seconds per operation, plus a per-request network charge."""

    nzone_get_hit: float
    nzone_set: float
    zzone_get_hit: float
    filtered_miss: float
    false_positive_miss: float
    demotion: float
    promotion: float
    zzone_delete: float
    nzone_delete: float
    #: Added to *every* request (network stack, syscalls); 0 when the
    #: client runs in-process as in the H-prototypes.
    network_per_request: float = 0.0

    def cost(self, kind: OpKind) -> float:
        return getattr(self, kind.value)


#: H-prototype costs (no networking), §4.1's second prototype.  The
#: Z-zone write path (demotion) prices a 2 KB LZ4 recompression at
#: ~1.3 GB/s plus the rebuild bookkeeping; with these values the all-Z
#: 95/5 mix prices to 0.755 µs = 1.32 M RPS, matching §4.3's "around
#: 1.3 M RPS with one thread ... if networking is excluded".
HIGH_PERFORMANCE_COSTS = CostModel(
    nzone_get_hit=0.42e-6,
    nzone_set=0.60e-6,
    zzone_get_hit=0.70e-6,
    # A filtered miss still walks the N-zone index, the trie, and the
    # Content Filter, so it costs *more* than an N-zone hit (the paper:
    # "request hits ... are much more efficient than misses").
    filtered_miss=0.55e-6,
    false_positive_miss=1.15e-6,
    demotion=1.8e-6,
    promotion=2.4e-6,
    zzone_delete=1.8e-6,
    nzone_delete=0.45e-6,
)

#: memcached-based prototype: identical Z-zone costs, a heavier chained-
#: hash/LRU engine, plus the ~10.3 µs networking/dispatch path §4.3 blames
#: for memcached's sub-100 K single-thread RPS.
MEMCACHED_COSTS = CostModel(
    nzone_get_hit=0.70e-6,
    nzone_set=0.95e-6,
    zzone_get_hit=0.70e-6,
    filtered_miss=0.85e-6,
    false_positive_miss=1.45e-6,
    demotion=1.8e-6,
    promotion=2.4e-6,
    zzone_delete=1.8e-6,
    nzone_delete=0.70e-6,
    network_per_request=10.3e-6,
)
